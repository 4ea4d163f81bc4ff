// Table-driven negative-path coverage for the two text loaders: every
// malformed corpus file under tests/data/ must come back as a clean
// kInvalidArgument/kIoError Status carrying enough context to locate the
// defect (line numbers where applicable) — never a CHECK-abort.

#include <cctype>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "graph/csv_loader.h"
#include "query/template_io.h"

namespace fairsqg {
namespace {

std::string DataPath(const std::string& name) {
  return std::string(FAIRSQG_TEST_DATA_DIR) + "/" + name;
}

std::string TestName(const std::string& raw) {
  std::string name = raw;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

struct CsvCase {
  const char* nodes;          // File under tests/data/.
  const char* edges;
  StatusCode code;
  const char* substring;      // Must appear in the error message.
};

class MalformedCsvTest : public ::testing::TestWithParam<CsvCase> {};

TEST_P(MalformedCsvTest, FailsWithStatus) {
  const CsvCase& c = GetParam();
  Result<Graph> g = LoadCsvGraphFiles(DataPath(c.nodes), DataPath(c.edges));
  ASSERT_FALSE(g.ok()) << c.nodes << " + " << c.edges;
  EXPECT_EQ(g.status().code(), c.code) << g.status().ToString();
  EXPECT_NE(g.status().message().find(c.substring), std::string::npos)
      << "message '" << g.status().message() << "' lacks '" << c.substring
      << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MalformedCsvTest,
    ::testing::Values(
        CsvCase{"nodes_bad_header.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "id,label"},
        CsvCase{"nodes_missing_type.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, ":type"},
        CsvCase{"nodes_unknown_type.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "unknown column type"},
        CsvCase{"nodes_empty_attr_name.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "empty attribute column name"},
        CsvCase{"nodes_wrong_cell_count.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "node line 3"},
        CsvCase{"nodes_empty_id.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "empty id"},
        CsvCase{"nodes_duplicate_id.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "duplicate id 'n1'"},
        CsvCase{"nodes_empty_label.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "node line 2: empty label"},
        CsvCase{"nodes_bad_int.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "node line 2, column 'age'"},
        CsvCase{"nodes_int_out_of_range.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "column 'age'"},
        CsvCase{"nodes_bad_double.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "column 'score'"},
        CsvCase{"nodes_double_out_of_range.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "out of range"},
        CsvCase{"nodes_empty.csv", "edges_good.csv",
                StatusCode::kInvalidArgument, "node CSV is empty"},
        CsvCase{"nodes_good.csv", "edges_bad_header.csv",
                StatusCode::kInvalidArgument, "from,to,label"},
        CsvCase{"nodes_good.csv", "edges_wrong_cell_count.csv",
                StatusCode::kInvalidArgument, "edge line 2"},
        CsvCase{"nodes_good.csv", "edges_unknown_endpoint.csv",
                StatusCode::kInvalidArgument, "unknown endpoint id 'n9'"},
        CsvCase{"nodes_good.csv", "edges_empty_label.csv",
                StatusCode::kInvalidArgument, "empty edge label"},
        CsvCase{"nodes_good.csv", "edges_empty.csv",
                StatusCode::kInvalidArgument, "edge CSV is empty"}),
    [](const ::testing::TestParamInfo<CsvCase>& info) {
      return TestName(std::string(info.param.nodes) + "__" + info.param.edges);
    });

TEST(MalformedCsvTest, MissingFileIsIoError) {
  Result<Graph> g =
      LoadCsvGraphFiles(DataPath("no_such_file.csv"), DataPath("edges_good.csv"));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST(MalformedCsvTest, GoodPairLoads) {
  Result<Graph> g =
      LoadCsvGraphFiles(DataPath("nodes_good.csv"), DataPath("edges_good.csv"));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_nodes(), 3u);
  EXPECT_EQ(g->num_edges(), 2u);
}

struct TemplateCase {
  const char* file;
  StatusCode code;
  const char* substring;
};

// Without a printer gtest renders a case as its raw bytes, string-literal
// addresses that move with the binary's layout and with ASLR, and those
// bytes end up in the discovered ctest names. Print the file instead.
void PrintTo(const TemplateCase& c, std::ostream* os) { *os << c.file; }

class MalformedTemplateTest : public ::testing::TestWithParam<TemplateCase> {};

TEST_P(MalformedTemplateTest, FailsWithStatus) {
  const TemplateCase& c = GetParam();
  Result<QueryTemplate> t =
      ReadTemplateFile(DataPath(c.file), std::make_shared<Schema>());
  ASSERT_FALSE(t.ok()) << c.file;
  EXPECT_EQ(t.status().code(), c.code) << t.status().ToString();
  EXPECT_NE(t.status().message().find(c.substring), std::string::npos)
      << "message '" << t.status().message() << "' lacks '" << c.substring
      << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MalformedTemplateTest,
    ::testing::Values(
        TemplateCase{"tmpl_bad_record.qt", StatusCode::kInvalidArgument,
                     "line 3: unknown record 'frobnicate'"},
        TemplateCase{"tmpl_sparse_node_ids.qt", StatusCode::kInvalidArgument,
                     "line 2: node ids must be dense"},
        TemplateCase{"tmpl_bad_node_ref.qt", StatusCode::kInvalidArgument,
                     "line 5: node ref out of range: 'u9'"},
        TemplateCase{"tmpl_bad_op.qt", StatusCode::kInvalidArgument,
                     "line 4: bad comparison op: '>>'"},
        TemplateCase{"tmpl_bad_value.qt", StatusCode::kInvalidArgument,
                     "line 4: bad value tag"},
        TemplateCase{"tmpl_bad_value_int.qt", StatusCode::kInvalidArgument,
                     "line 4: not an int64"},
        TemplateCase{"tmpl_missing_header.qt", StatusCode::kInvalidArgument,
                     "missing 'template' header"},
        TemplateCase{"tmpl_duplicate_output.qt", StatusCode::kInvalidArgument,
                     "line 5: duplicate 'output' line"},
        TemplateCase{"tmpl_duplicate_edge_var.qt", StatusCode::kInvalidArgument,
                     "duplicate query edge"},
        TemplateCase{"tmpl_missing_output.qt", StatusCode::kInvalidArgument,
                     "missing 'output' line"},
        TemplateCase{"tmpl_disconnected.qt", StatusCode::kInvalidArgument,
                     "not connected"}),
    [](const ::testing::TestParamInfo<TemplateCase>& info) {
      return TestName(info.param.file);
    });

TEST(MalformedTemplateTest, MissingFileIsIoError) {
  Result<QueryTemplate> t =
      ReadTemplateFile(DataPath("no_such_template.qt"), std::make_shared<Schema>());
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace fairsqg
