#include "core/model_io.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/rpc_ranker.h"
#include "data/generators.h"

namespace rpc::core {
namespace {

using linalg::Matrix;
using linalg::Vector;
using order::Orientation;

PortableRpcModel FittedModel() {
  const data::Dataset ds = data::GenerateCountryData(60, 3, false);
  const auto alpha = Orientation::FromSigns({1, 1, -1, -1});
  auto ranker = RpcRanker::Fit(ds.values(), *alpha);
  EXPECT_TRUE(ranker.ok());
  PortableRpcModel model;
  model.alpha = *alpha;
  model.mins = ranker->normalizer().mins();
  model.maxs = ranker->normalizer().maxs();
  model.control_points = ranker->PortableControlPoints();
  return model;
}

TEST(ModelIoTest, SerializeDeserializeRoundTrip) {
  const PortableRpcModel model = FittedModel();
  const std::string text = model.Serialize();
  const auto parsed = PortableRpcModel::Deserialize(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ApproxEqual(parsed->control_points, model.control_points,
                          1e-15));
  EXPECT_TRUE(ApproxEqual(parsed->mins, model.mins, 1e-15));
  EXPECT_TRUE(ApproxEqual(parsed->maxs, model.maxs, 1e-15));
  EXPECT_EQ(parsed->alpha, model.alpha);
}

TEST(ModelIoTest, ScoresSurviveTheRoundTrip) {
  const data::Dataset ds = data::GenerateCountryData(60, 3, false);
  const auto alpha = Orientation::FromSigns({1, 1, -1, -1});
  auto ranker = RpcRanker::Fit(ds.values(), *alpha);
  ASSERT_TRUE(ranker.ok());
  PortableRpcModel model;
  model.alpha = *alpha;
  model.mins = ranker->normalizer().mins();
  model.maxs = ranker->normalizer().maxs();
  model.control_points = ranker->PortableControlPoints();
  const auto reloaded = PortableRpcModel::Deserialize(model.Serialize());
  ASSERT_TRUE(reloaded.ok());
  for (int i = 0; i < 10; ++i) {
    const Vector x = ds.row(i);
    const auto score = reloaded->Score(x);
    ASSERT_TRUE(score.ok());
    EXPECT_NEAR(*score, ranker->Score(x), 1e-9) << "row " << i;
  }
}

TEST(ModelIoTest, FileRoundTrip) {
  const PortableRpcModel model = FittedModel();
  const std::string path = testing::TempDir() + "/rpc_model_test.txt";
  ASSERT_TRUE(SaveModel(model, path).ok());
  const auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(ApproxEqual(loaded->control_points, model.control_points,
                          1e-15));
  std::remove(path.c_str());
}

TEST(ModelIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadModel("/nonexistent/rpc_model.txt").ok());
}

TEST(ModelIoTest, RejectsCorruptInputs) {
  const PortableRpcModel model = FittedModel();
  const std::string good = model.Serialize();
  // Header missing.
  EXPECT_FALSE(PortableRpcModel::Deserialize("dimension 2\n").ok());
  // Garbage line.
  EXPECT_FALSE(
      PortableRpcModel::Deserialize(good + "mystery 42\n").ok());
  // Truncated: drop the last control point line.
  const size_t cut = good.rfind("control");
  EXPECT_FALSE(PortableRpcModel::Deserialize(good.substr(0, cut)).ok());
  // Alpha entry corrupted.
  std::string bad_alpha = good;
  const size_t pos = bad_alpha.find("+1");
  bad_alpha.replace(pos, 2, "+7");
  EXPECT_FALSE(PortableRpcModel::Deserialize(bad_alpha).ok());
}

// A non-finite number in a bound or a control point is rejected at parse
// time, even inside a file whose checksum is valid.
TEST(ModelIoTest, RejectsNonFiniteNumbers) {
  const double bad_values[] = {std::nan(""), INFINITY, -INFINITY};
  for (const double bad : bad_values) {
    for (int field = 0; field < 3; ++field) {
      PortableRpcModel model = FittedModel();
      if (field == 0) model.mins[1] = bad;
      if (field == 1) model.maxs[1] = bad;
      if (field == 2) model.control_points(1, 2) = bad;
      const auto loaded = PortableRpcModel::Deserialize(model.Serialize());
      ASSERT_FALSE(loaded.ok()) << "field " << field << " value " << bad;
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
      EXPECT_NE(loaded.status().message().find("bad number"),
                std::string::npos)
          << loaded.status().ToString();
    }
  }
}

TEST(ModelIoTest, RejectsDegenerateBounds) {
  PortableRpcModel model = FittedModel();
  model.maxs[0] = model.mins[0];  // zero range
  EXPECT_FALSE(PortableRpcModel::Deserialize(model.Serialize()).ok());
}

TEST(ModelIoTest, RejectsDimensionMismatchInScore) {
  const PortableRpcModel model = FittedModel();
  EXPECT_FALSE(model.Score(Vector{1.0, 2.0}).ok());
}

TEST(ModelIoTest, DeserializeValidatesGeometry) {
  // Control point outside [0,1] must be rejected even in a well-formed
  // file.
  PortableRpcModel model = FittedModel();
  model.control_points(0, 1) = 1.5;
  EXPECT_FALSE(PortableRpcModel::Deserialize(model.Serialize()).ok());
}

// Versioned snapshots (the streaming tier's published models) round-trip
// the version; unversioned files keep the pre-versioning byte format.
TEST(ModelIoTest, VersionRoundTripsAndStaysOptional) {
  PortableRpcModel model = FittedModel();
  EXPECT_EQ(model.Serialize().find("version"), std::string::npos);

  model.version = 42;
  const std::string text = model.Serialize();
  EXPECT_NE(text.find("version 42"), std::string::npos);
  const auto parsed = PortableRpcModel::Deserialize(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, 42u);

  EXPECT_FALSE(
      PortableRpcModel::Deserialize("rpc-model v1\nversion -3\n").ok());
  EXPECT_FALSE(
      PortableRpcModel::Deserialize("rpc-model v1\nversion x\n").ok());
}

// Round-trip fuzz across random degrees, dimensions, orientations, bounds
// and versions: Serialize -> Deserialize must reproduce every field
// bit-exactly (%.17g is lossless for doubles) and scoring through the
// reloaded model must equal the original bit for bit.
TEST(ModelIoTest, RoundTripFuzzAcrossDegreesAndDimensions) {
  Rng rng(20260726);
  int accepted = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int d = 1 + static_cast<int>(rng.UniformInt(8));
    const int degree = 1 + static_cast<int>(rng.UniformInt(6));

    std::vector<int> signs(static_cast<size_t>(d));
    for (int j = 0; j < d; ++j) {
      signs[static_cast<size_t>(j)] = rng.Uniform() < 0.5 ? -1 : 1;
    }
    const auto alpha = Orientation::FromSigns(signs);
    ASSERT_TRUE(alpha.ok());

    PortableRpcModel model;
    model.alpha = *alpha;
    model.version = rng.UniformInt(1u << 30);
    model.mins = Vector(d);
    model.maxs = Vector(d);
    for (int j = 0; j < d; ++j) {
      model.mins[j] = rng.Uniform(-1e3, 1e3);
      model.maxs[j] = model.mins[j] + rng.Uniform(1e-3, 1e3);
    }
    // A monotone control polygon from the worst to the best corner keeps
    // the geometry valid for every degree (Proposition 1 shape).
    model.control_points = Matrix(d, degree + 1);
    const Vector worst = alpha->WorstCorner();
    const Vector best = alpha->BestCorner();
    for (int j = 0; j < d; ++j) {
      for (int r = 0; r <= degree; ++r) {
        const double frac =
            degree == 0 ? 0.0 : static_cast<double>(r) / degree;
        double v = worst[j] + frac * (best[j] - worst[j]);
        if (r > 0 && r < degree) {
          v = std::clamp(v + rng.Uniform(-0.05, 0.05), 0.01, 0.99);
        }
        model.control_points(j, r) = v;
      }
    }

    const auto parsed = PortableRpcModel::Deserialize(model.Serialize());
    ASSERT_TRUE(parsed.ok())
        << "trial " << trial << " d=" << d << " degree=" << degree << ": "
        << parsed.status().ToString();
    ++accepted;
    EXPECT_EQ(parsed->version, model.version);
    EXPECT_EQ(parsed->alpha, model.alpha);
    for (int j = 0; j < d; ++j) {
      EXPECT_EQ(parsed->mins[j], model.mins[j]) << "trial " << trial;
      EXPECT_EQ(parsed->maxs[j], model.maxs[j]) << "trial " << trial;
      for (int r = 0; r <= degree; ++r) {
        EXPECT_EQ(parsed->control_points(j, r), model.control_points(j, r))
            << "trial " << trial;
      }
    }
    // Scoring equivalence on a random probe (exact: same parsed doubles).
    Vector probe(d);
    for (int j = 0; j < d; ++j) {
      probe[j] = rng.Uniform(model.mins[j], model.maxs[j]);
    }
    const auto score_original = model.Score(probe);
    const auto score_reloaded = parsed->Score(probe);
    ASSERT_TRUE(score_original.ok() && score_reloaded.ok());
    EXPECT_EQ(*score_original, *score_reloaded) << "trial " << trial;
  }
  EXPECT_EQ(accepted, 60);
}

// Corruption fuzz: the checksum line covers every byte before itself, so
// any damage inside that coverage — truncation, a single flipped bit,
// appended garbage — must be rejected, never half-parsed into a model.
// (The final newline sits after the covered bytes and after the checksum
// digits; it is the one byte whose mutation is semantically invisible.)
TEST(ModelIoTest, EveryTruncationOfSerializedModelIsRejected) {
  const std::string good = FittedModel().Serialize();
  ASSERT_TRUE(PortableRpcModel::Deserialize(good).ok());
  // Dropping only the final '\n' leaves the checksum line intact and its
  // coverage unchanged: still a valid model.
  ASSERT_TRUE(
      PortableRpcModel::Deserialize(good.substr(0, good.size() - 1)).ok());
  // Every shorter prefix loses checksum digits or covered bytes: rejected.
  for (size_t length = 0; length + 1 < good.size(); ++length) {
    EXPECT_FALSE(PortableRpcModel::Deserialize(good.substr(0, length)).ok())
        << "prefix of length " << length;
  }
}

TEST(ModelIoTest, EverySingleBitFlipInSerializedModelIsRejected) {
  std::string text = FittedModel().Serialize();
  for (size_t byte = 0; byte + 1 < text.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      text[byte] ^= static_cast<char>(1 << bit);
      EXPECT_FALSE(PortableRpcModel::Deserialize(text).ok())
          << "byte " << byte << " bit " << bit;
      text[byte] ^= static_cast<char>(1 << bit);
    }
  }
  // Sanity: the restored buffer still parses.
  EXPECT_TRUE(PortableRpcModel::Deserialize(text).ok());
}

TEST(ModelIoTest, TrailingGarbageAfterChecksumIsRejected) {
  const std::string good = FittedModel().Serialize();
  EXPECT_FALSE(PortableRpcModel::Deserialize(good + "x\n").ok());
  EXPECT_FALSE(PortableRpcModel::Deserialize(good + "dimension 3\n").ok());
  // Even a second, self-consistent checksum line is garbage.
  EXPECT_FALSE(
      PortableRpcModel::Deserialize(good + "crc32c deadbeef\n").ok());
  EXPECT_FALSE(
      PortableRpcModel::Deserialize(good + std::string(64, '\0')).ok());
  // A full second model appended is garbage, not a concatenation format.
  EXPECT_FALSE(PortableRpcModel::Deserialize(good + good).ok());
}

}  // namespace
}  // namespace rpc::core
