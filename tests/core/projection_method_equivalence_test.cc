#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/rpc_learner.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/normalizer.h"
#include "linalg/matrix.h"
#include "opt/batch_projection.h"
#include "order/orientation.h"
#include "rank/ranking_list.h"

namespace rpc::core {
namespace {

using linalg::Matrix;
using linalg::Vector;
using order::Orientation;

Matrix Normalised(const Matrix& raw) {
  auto normalizer = data::Normalizer::Fit(raw);
  return normalizer->Transform(raw);
}

Matrix LatentCurveData(int n, double noise_sigma, uint64_t seed) {
  const data::LatentCurveSample sample = data::GenerateLatentCurveData(
      Orientation::AllBenefit(4), {.n = n, .noise_sigma = noise_sigma,
                                   .control_margin = 0.1, .seed = seed});
  return Normalised(sample.data);
}

struct FitPair {
  RpcFitResult newton;  // default options
  RpcFitResult golden;  // explicit Golden Section, Algorithm 1's reference
};

std::optional<FitPair> FitBoth(const Matrix& data, const Orientation& alpha) {
  RpcLearnOptions golden;
  golden.projection.method = opt::ProjectionMethod::kGoldenSection;
  auto newton_fit = RpcLearner(RpcLearnOptions{}).Fit(data, alpha);
  auto golden_fit = RpcLearner(golden).Fit(data, alpha);
  EXPECT_TRUE(newton_fit.ok()) << newton_fit.status().ToString();
  EXPECT_TRUE(golden_fit.ok()) << golden_fit.status().ToString();
  if (!newton_fit.ok() || !golden_fit.ok()) return std::nullopt;
  return FitPair{std::move(newton_fit).value(),
                 std::move(golden_fit).value()};
}

// The default changes only the cost of Step 4.
//  * On one curve, Newton's J equals GSS's to 1e-9 relative: both refine
//    every grid-local minimum, and GSS differs only where its tie slack
//    keeps a grid point within 1e-9 of the refined minimum.
//  * Across a fit, that per-row difference in s (up to ~2e-5 on a flat
//    row) moves the next control-point update. The latent-curve and
//    journal fits stop at a Step 6-8 rollback before the dJ test, i.e.
//    mid-descent, where J depends on those s to first order — so fit-level
//    J agrees to 1e-7 relative, not 1e-9 (the converged country fit agrees
//    to ~2e-9). Trajectory length and ranking are unchanged.
void ExpectDefaultMatchesGoldenSection(const Matrix& data,
                                       const Orientation& alpha) {
  const std::optional<FitPair> fits = FitBoth(data, alpha);
  ASSERT_TRUE(fits.has_value());
  const RpcFitResult& newton = fits->newton;
  const RpcFitResult& golden = fits->golden;

  EXPECT_EQ(newton.iterations, golden.iterations);
  EXPECT_NEAR(newton.final_j, golden.final_j, 1e-7 * golden.final_j);
  EXPECT_NEAR(newton.explained_variance, golden.explained_variance, 1e-8);
  EXPECT_EQ(rank::RankingList(newton.scores).OrderedIndices(),
            rank::RankingList(golden.scores).OrderedIndices());

  double j_same_curve = 0.0;
  opt::ProjectRowsBatch(golden.curve.bezier(), data, {}, nullptr,
                        &j_same_curve);
  EXPECT_NEAR(j_same_curve, golden.final_j, 1e-9 * golden.final_j);
}

TEST(ProjectionMethodEquivalenceTest, DefaultIsNewton) {
  EXPECT_EQ(opt::ProjectionOptions().method, opt::ProjectionMethod::kNewton);
  EXPECT_EQ(RpcLearnOptions().projection.method,
            opt::ProjectionMethod::kNewton);
}

TEST(ProjectionMethodEquivalenceTest, LatentCurveDataD4) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectDefaultMatchesGoldenSection(LatentCurveData(2000, 0.04, seed),
                                      Orientation::AllBenefit(4));
  }
}

TEST(ProjectionMethodEquivalenceTest, CountryFixture) {
  const data::Dataset countries =
      data::GenerateCountryData(171, 7, /*include_anchors=*/true);
  const auto alpha = Orientation::FromSigns({1, 1, -1, -1});
  ASSERT_TRUE(alpha.ok());
  ExpectDefaultMatchesGoldenSection(Normalised(countries.values()), *alpha);
}

TEST(ProjectionMethodEquivalenceTest, JournalFixture) {
  const data::Dataset journals =
      data::GenerateJournalData(451, 58, 11, /*include_anchors=*/true)
          .FilterCompleteRows();
  ExpectDefaultMatchesGoldenSection(Normalised(journals.values()),
                                    Orientation::AllBenefit(5));
}

// On larger samples GSS snaps several flat rows to the same grid point, so
// their scores tie exactly and RankingList orders them by row index; Newton
// returns their distinct exact minimisers. The rankings then differ, but
// only inside those ties: walking Newton's order, GSS's score never rises.
TEST(ProjectionMethodEquivalenceTest, NewtonOnlyBreaksGoldenSectionTies) {
  const Matrix data = LatentCurveData(5000, 0.02, 8);
  const std::optional<FitPair> fits =
      FitBoth(data, Orientation::AllBenefit(4));
  ASSERT_TRUE(fits.has_value());
  ASSERT_EQ(fits->newton.iterations, fits->golden.iterations);
  const std::vector<int> order =
      rank::RankingList(fits->newton.scores).OrderedIndices();
  const Vector& golden_scores = fits->golden.scores;
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(golden_scores[order[i]], golden_scores[order[i - 1]])
        << "rows " << order[i - 1] << ", " << order[i];
  }
}

}  // namespace
}  // namespace rpc::core
