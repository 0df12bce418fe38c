#include "data/csv.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace rpc::data {
namespace {

TEST(CsvTest, ParsesHeaderAndLabels) {
  const auto ds = ParseCsv("name,gdp,leb\nNorway,47551,80.29\nIraq,3200,68.5\n");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_objects(), 2);
  EXPECT_EQ(ds->num_attributes(), 2);
  EXPECT_EQ(ds->attribute_name(0), "gdp");
  EXPECT_EQ(ds->label(1), "Iraq");
  EXPECT_DOUBLE_EQ(ds->value(0, 1), 80.29);
}

TEST(CsvTest, NoHeaderNoLabels) {
  CsvOptions options;
  options.has_header = false;
  options.first_column_labels = false;
  const auto ds = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_objects(), 2);
  EXPECT_DOUBLE_EQ(ds->value(1, 0), 3.0);
  EXPECT_EQ(ds->label(0), "obj0");
}

TEST(CsvTest, MissingValueTokens) {
  const auto ds =
      ParseCsv("name,a,b\nx,1,\ny,NA,2\nz,NaN,?\nw,1,2\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(ds->IsMissing(0, 1));
  EXPECT_TRUE(ds->IsMissing(1, 0));
  EXPECT_TRUE(ds->IsMissing(2, 0));
  EXPECT_TRUE(ds->IsMissing(2, 1));
  EXPECT_EQ(ds->CountIncompleteRows(), 3);
  EXPECT_EQ(ds->FilterCompleteRows().num_objects(), 1);
}

TEST(CsvTest, QuotedFieldsWithDelimiters) {
  const auto ds = ParseCsv(
      "name,v\n\"City, The\",3\n\"She said \"\"hi\"\"\",4\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->label(0), "City, The");
  EXPECT_EQ(ds->label(1), "She said \"hi\"");
}

TEST(CsvTest, WindowsLineEndings) {
  const auto ds = ParseCsv("name,v\r\nx,1\r\ny,2\r\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_objects(), 2);
}

TEST(CsvTest, TabDelimiter) {
  CsvOptions options;
  options.delimiter = '\t';
  const auto ds = ParseCsv("name\tv\nx\t1\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_DOUBLE_EQ(ds->value(0, 0), 1.0);
}

TEST(CsvTest, RejectsNonNumericCell) {
  const auto ds = ParseCsv("name,v\nx,hello\n");
  EXPECT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kDataLoss);
}

// "nan"/"NaN" are missing-value markers; every other non-finite cell is
// data loss, not a value.
TEST(CsvTest, RejectsNonFiniteCells) {
  for (const char* cell : {"inf", "-inf", "Infinity", "1e999", "NAN"}) {
    const auto ds = ParseCsv(std::string("name,a,b\nx,1,") + cell + "\n");
    EXPECT_FALSE(ds.ok()) << cell;
    EXPECT_EQ(ds.status().code(), StatusCode::kDataLoss) << cell;
  }
}

TEST(CsvTest, RejectsRaggedRows) {
  const auto ds = ParseCsv("name,a,b\nx,1,2\ny,3\n");
  EXPECT_FALSE(ds.ok());
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseCsv("").ok());
  EXPECT_FALSE(ParseCsv("\n\n").ok());
}

TEST(CsvTest, RoundTripThroughString) {
  Dataset ds;
  ds.AppendRow("with, comma", linalg::Vector{1.5, 2.5});
  ds.AppendRow("plain", linalg::Vector{0.0, -3.0}, {false, true});
  ASSERT_TRUE(ds.SetAttributeNames({"a", "b"}).ok());
  const std::string text = WriteCsvString(ds);
  const auto round = ParseCsv(text);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->num_objects(), 2);
  EXPECT_EQ(round->label(0), "with, comma");
  EXPECT_DOUBLE_EQ(round->value(0, 1), 2.5);
  EXPECT_TRUE(round->IsMissing(1, 1));
}

TEST(CsvTest, FileRoundTrip) {
  Dataset ds;
  ds.AppendRow("x", linalg::Vector{42.0});
  const std::string path = testing::TempDir() + "/rpc_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(ds, path).ok());
  const auto read = ReadCsvFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_DOUBLE_EQ(read->value(0, 0), 42.0);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  const auto ds = ReadCsvFile("/nonexistent/definitely_not_here.csv");
  EXPECT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace rpc::data
