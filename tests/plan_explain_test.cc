// Golden-file tests for EXPLAIN: the stable text rendering of the
// post-split plan is compared byte-for-byte against checked-in goldens for
// the four operator shapes (pure-LFTA filter, split aggregate, join,
// merge). A splitter or ordering-imputation regression shows up as a
// placement or `[order]` diff in the golden.
//
// Regenerate after an intentional plan change:
//   GS_UPDATE_GOLDENS=1 ./build/tests/plan_explain_test
// then inspect the diff under tests/golden/.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "gsql/analyzer.h"
#include "gsql/parser.h"
#include "plan/explain.h"
#include "plan/planner.h"
#include "plan/splitter.h"
#include "udf/registry.h"

#ifndef GS_GOLDEN_DIR
#error "GS_GOLDEN_DIR must be defined to the tests/golden directory"
#endif

namespace gigascope::plan {
namespace {

using gsql::DataType;

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        catalog_.AddSchema(gsql::Catalog::BuiltinPacketSchema()).ok());
    catalog_.AddInterface("eth0");
    options_.resolver = udf::FunctionRegistry::Default();
  }

  void AddDerivedStream(const std::string& name) {
    std::vector<gsql::FieldDef> fields;
    fields.push_back({"ts", DataType::kUint, gsql::OrderSpec::Increasing()});
    fields.push_back({"v", DataType::kUint, gsql::OrderSpec::None()});
    catalog_.PutStreamSchema(
        gsql::StreamSchema(name, gsql::StreamKind::kStream, fields));
  }

  Result<PlannedQuery> Plan(std::string_view query) {
    auto stmt = gsql::ParseStatement(query);
    if (!stmt.ok()) return stmt.status();
    if (auto* select = std::get_if<gsql::SelectStmt>(&stmt.value())) {
      auto resolved = gsql::AnalyzeSelect(*select, catalog_);
      if (!resolved.ok()) return resolved.status();
      return PlanSelect(*resolved, options_);
    }
    auto* merge = std::get_if<gsql::MergeStmt>(&stmt.value());
    auto resolved = gsql::AnalyzeMerge(*merge, catalog_);
    if (!resolved.ok()) return resolved.status();
    return PlanMerge(*resolved, options_);
  }

  // Renders the query and compares against (or regenerates) the golden.
  void CheckGolden(const std::string& golden_name, std::string_view query) {
    auto planned = Plan(query);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    auto split = SplitPlan(*planned);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    std::string text = ExplainText(*planned, *split);

    const std::string path =
        std::string(GS_GOLDEN_DIR) + "/" + golden_name + ".txt";
    if (std::getenv("GS_UPDATE_GOLDENS") != nullptr) {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << text;
      return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (run with GS_UPDATE_GOLDENS=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(text, expected.str()) << "EXPLAIN drifted from " << path;

    // The JSON rendering must at least stay balanced and carry the same
    // placement verdict; its full shape is covered by the text golden.
    std::string json = ExplainJson(*planned, *split);
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
      char c = json[i];
      if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
      if (in_string) continue;
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
    }
    EXPECT_EQ(depth, 0) << "unbalanced JSON: " << json;
    std::string placement_line;
    std::istringstream text_in(text);
    std::getline(text_in, placement_line);  // "query: ..."
    std::getline(text_in, placement_line);  // "placement: ..."
    std::string placement = placement_line.substr(sizeof("placement: ") - 1);
    EXPECT_NE(json.find("\"placement\":\"" + placement + "\""),
              std::string::npos);
  }

  gsql::Catalog catalog_;
  PlannerOptions options_;
};

TEST_F(ExplainTest, PureLftaFilter) {
  CheckGolden("explain_lfta_filter",
              "DEFINE { query_name tcponly; } "
              "SELECT time, destIP, destPort FROM eth0.PKT "
              "WHERE ipVersion = 4 AND protocol = 6");
}

TEST_F(ExplainTest, SplitAggregate) {
  CheckGolden("explain_split_aggregate",
              "DEFINE { query_name counts; } "
              "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
              "WHERE protocol = 6 GROUP BY time/60 AS tb, destIP");
}

TEST_F(ExplainTest, Join) {
  AddDerivedStream("A");
  AddDerivedStream("B");
  CheckGolden("explain_join",
              "DEFINE { query_name joined; } "
              "SELECT l.ts, l.v, r.v FROM A l, B r "
              "WHERE l.ts = r.ts AND l.v > r.v");
}

TEST_F(ExplainTest, FilteredSplitAggregate) {
  CheckGolden("explain_filtered_aggregate",
              "DEFINE { query_name shaped; } "
              "SELECT tb, destIP, count(*), sum(len) FROM eth0.PKT "
              "WHERE protocol = 6 AND destPort > 1024 "
              "GROUP BY time/60 AS tb, destIP");
}

TEST_F(ExplainTest, UdfCalls) {
  CheckGolden("explain_udf",
              "DEFINE { query_name hashed; } "
              "SELECT time, hash64(len) FROM eth0.PKT "
              "WHERE hash64(destPort) > 100");
}

// The first operator line under "hfta:", e.g. "SelectProject @hfta".
std::string HftaRoot(const std::string& text) {
  const size_t hfta = text.find("hfta:\n");
  if (hfta == std::string::npos) return "";
  const size_t begin = text.find_first_not_of(' ', hfta + 6);
  return text.substr(begin, text.find('\n', begin) - begin);
}

// An identity projection over an operator is not planned (the split
// aggregate goldens); every other final projection keeps its node.
TEST_F(ExplainTest, ProjectionKeepsItsNodeUnlessItIsTheIdentity) {
  AddDerivedStream("A");
  const char* kept[] = {
      // reordered keys
      "SELECT destIP, tb, count(*) FROM eth0.PKT "
      "GROUP BY time/60 AS tb, destIP",
      // a column subset
      "SELECT tb, count(*) FROM eth0.PKT GROUP BY time/60 AS tb, destIP",
      // a computed column
      "SELECT tb, destIP, count(*) * 8 FROM eth0.PKT "
      "GROUP BY time/60 AS tb, destIP",
      // a HAVING
      "SELECT tb, destIP, count(*) FROM eth0.PKT "
      "GROUP BY time/60 AS tb, destIP HAVING count(*) > 1",
      // every column of a Source
      "SELECT ts, v FROM A",
  };
  for (const char* query : kept) {
    auto planned = Plan(query);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    auto split = SplitPlan(*planned);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    EXPECT_EQ(HftaRoot(ExplainText(*planned, *split)), "SelectProject @hfta")
        << query;
  }
}

// An unsplit GROUP BY over a stream loses its identity projection too, and
// the elision leaves the logical plan, which shares the aggregate, as it
// was.
TEST_F(ExplainTest, IdentityProjectionOverUnsplitAggregate) {
  AddDerivedStream("A");
  auto planned = Plan(
      "DEFINE { query_name per_ts; } "
      "SELECT ts, count(*) FROM A GROUP BY ts");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto split = SplitPlan(*planned);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  const std::string text = ExplainText(*planned, *split);
  EXPECT_EQ(HftaRoot(text), "Aggregate @hfta") << text;
  EXPECT_EQ(text.find("SelectProject"), std::string::npos) << text;
  ASSERT_EQ(split->hfta->kind, PlanKind::kAggregate);
  EXPECT_EQ(split->hfta->output_schema.field(1).name, "count");
  EXPECT_TRUE(split->hfta->output_schema.field(0).order.IsIncreasingLike());
  ASSERT_EQ(planned->root->kind, PlanKind::kSelectProject);
  EXPECT_NE(planned->root->children[0]->output_schema.field(1).name, "count");
}

TEST_F(ExplainTest, Merge) {
  AddDerivedStream("t0");
  AddDerivedStream("t1");
  CheckGolden("explain_merge",
              "DEFINE { query_name both; } "
              "MERGE t0.ts : t1.ts FROM t0, t1");
}

}  // namespace
}  // namespace gigascope::plan
