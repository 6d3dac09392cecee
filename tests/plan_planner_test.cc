#include <gtest/gtest.h>

#include "gsql/parser.h"
#include "plan/planner.h"
#include "udf/registry.h"

namespace gigascope::plan {
namespace {

using gsql::DataType;
using gsql::OrderKind;

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        catalog_.AddSchema(gsql::Catalog::BuiltinPacketSchema()).ok());
    catalog_.AddInterface("eth0");
    options_.resolver = udf::FunctionRegistry::Default();
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

  gsql::Catalog catalog_;
  PlannerOptions options_;
};

TEST_F(PlannerTest, ScanPlanShape) {
  auto planned = Plan(
      "DEFINE { query_name tcpdest0; } "
      "SELECT destIP, destPort, time FROM eth0.PKT "
      "WHERE ipVersion = 4 AND protocol = 6");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->name, "tcpdest0");
  const PlanPtr& root = planned->root;
  ASSERT_EQ(root->kind, PlanKind::kSelectProject);
  EXPECT_NE(root->predicate, nullptr);
  EXPECT_EQ(root->projections.size(), 3u);
  ASSERT_EQ(root->children[0]->kind, PlanKind::kSource);
  EXPECT_TRUE(root->children[0]->source_is_protocol);
  EXPECT_EQ(root->children[0]->interface_name, "eth0");
  // Output schema: named after the query, with the projected fields.
  EXPECT_EQ(planned->output_schema.name(), "tcpdest0");
  ASSERT_EQ(planned->output_schema.num_fields(), 3u);
  EXPECT_EQ(planned->output_schema.field(0).name, "destIP");
  EXPECT_EQ(planned->output_schema.field(2).name, "time");
  // `time` keeps its increasing property through projection.
  EXPECT_EQ(planned->output_schema.field(2).order.kind,
            OrderKind::kIncreasing);
}

TEST_F(PlannerTest, AggregationPlanShape) {
  auto planned = Plan(
      "DEFINE { query_name flows; } "
      "SELECT tb, destIP, count(*), sum(len) FROM PKT "
      "WHERE protocol = 6 GROUP BY time/60 AS tb, destIP");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  // Shape: SelectProject(final) -> Aggregate(where) -> Source.
  const PlanPtr& final_project = planned->root;
  ASSERT_EQ(final_project->kind, PlanKind::kSelectProject);
  const PlanPtr& agg = final_project->children[0];
  ASSERT_EQ(agg->kind, PlanKind::kAggregate);
  EXPECT_EQ(agg->group_keys.size(), 2u);
  EXPECT_EQ(agg->aggregates.size(), 2u);
  EXPECT_EQ(agg->ordered_key, 0);  // time/60 is increasing
  EXPECT_FALSE(planned->unbounded_aggregation);
  EXPECT_NE(agg->predicate, nullptr);
  EXPECT_EQ(agg->children[0]->kind, PlanKind::kSource);
}

TEST_F(PlannerTest, AvgDecomposesIntoSumAndCount) {
  auto planned = Plan(
      "SELECT tb, avg(len) FROM PKT GROUP BY time/60 AS tb");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const PlanPtr& agg = planned->root->children[0];
  ASSERT_EQ(agg->kind, PlanKind::kAggregate);
  // Stored aggregates are SUM and COUNT, never AVG.
  ASSERT_EQ(agg->aggregates.size(), 2u);
  EXPECT_EQ(agg->aggregates[0].fn, expr::AggFn::kSum);
  EXPECT_EQ(agg->aggregates[1].fn, expr::AggFn::kCount);
  // The final projection divides them (a float).
  EXPECT_EQ(planned->root->projections[1]->type, DataType::kFloat);
}

TEST_F(PlannerTest, DuplicateAggregatesShareStorage) {
  auto planned = Plan(
      "SELECT tb, count(*), avg(len), sum(len) FROM PKT "
      "GROUP BY time/60 AS tb");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const PlanPtr& agg = planned->root->children[0];
  // sum(len) and count(*) are each stored once despite appearing twice
  // (once directly, once inside avg).
  EXPECT_EQ(agg->aggregates.size(), 2u);
}

TEST_F(PlannerTest, UnboundedAggregationFlagged) {
  auto planned = Plan("SELECT destIP, count(*) FROM PKT GROUP BY destIP");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_TRUE(planned->unbounded_aggregation);
  const PlanPtr& agg = planned->root->children[0];
  EXPECT_EQ(agg->ordered_key, -1);
}

TEST_F(PlannerTest, HavingBecomesFinalPredicate) {
  auto planned = Plan(
      "SELECT tb, count(*) FROM PKT GROUP BY time/60 AS tb "
      "HAVING count(*) > 10");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_NE(planned->root->predicate, nullptr);
}

TEST_F(PlannerTest, JoinPlanShape) {
  // Register two derived streams for the join.
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"ts", DataType::kUint, gsql::OrderSpec::Increasing()});
  fields.push_back({"v", DataType::kUint, gsql::OrderSpec::None()});
  catalog_.PutStreamSchema(
      gsql::StreamSchema("A", gsql::StreamKind::kStream, fields));
  catalog_.PutStreamSchema(
      gsql::StreamSchema("B", gsql::StreamKind::kStream, fields));

  auto planned = Plan(
      "DEFINE { query_name joined; } "
      "SELECT l.ts, l.v, r.v FROM A l, B r "
      "WHERE l.ts = r.ts AND l.v > r.v");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const PlanPtr& project = planned->root;
  ASSERT_EQ(project->kind, PlanKind::kSelectProject);
  const PlanPtr& join = project->children[0];
  ASSERT_EQ(join->kind, PlanKind::kJoin);
  EXPECT_EQ(join->window_lo, 0);
  EXPECT_EQ(join->window_hi, 0);
  EXPECT_EQ(join->children.size(), 2u);
  // Join output: fields of both inputs, collision renamed.
  EXPECT_EQ(join->output_schema.num_fields(), 4u);
  EXPECT_TRUE(join->output_schema.FieldIndex("r_ts").has_value());
}

TEST_F(PlannerTest, JoinWithoutWindowRejected) {
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"ts", DataType::kUint, gsql::OrderSpec::Increasing()});
  fields.push_back({"v", DataType::kUint, gsql::OrderSpec::None()});
  catalog_.PutStreamSchema(
      gsql::StreamSchema("A", gsql::StreamKind::kStream, fields));
  catalog_.PutStreamSchema(
      gsql::StreamSchema("B", gsql::StreamKind::kStream, fields));
  auto planned = Plan("SELECT l.v FROM A l, B r WHERE l.v = r.v");
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), Status::Code::kPlanError);
}

TEST_F(PlannerTest, JoinPlusGroupByAggregatesTheJoinOutput) {
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"ts", DataType::kUint, gsql::OrderSpec::Increasing()});
  fields.push_back({"v", DataType::kUint, gsql::OrderSpec::None()});
  catalog_.PutStreamSchema(
      gsql::StreamSchema("A", gsql::StreamKind::kStream, fields));
  catalog_.PutStreamSchema(
      gsql::StreamSchema("B", gsql::StreamKind::kStream, fields));
  auto planned = Plan(
      "SELECT tb, count(*), sum(r.v) FROM A l, B r "
      "WHERE l.ts = r.ts GROUP BY l.ts/10 AS tb");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  // Shape: final SelectProject -> Aggregate -> Join -> Sources.
  const PlanPtr& final_project = planned->root;
  ASSERT_EQ(final_project->kind, PlanKind::kSelectProject);
  const PlanPtr& agg = final_project->children[0];
  ASSERT_EQ(agg->kind, PlanKind::kAggregate);
  ASSERT_EQ(agg->children[0]->kind, PlanKind::kJoin);
  // The join's window attribute drives group closing: l.ts/10 is ordered
  // in the join output, so the aggregation is bounded.
  EXPECT_EQ(agg->ordered_key, 0);
  EXPECT_FALSE(planned->unbounded_aggregation);
  // The sum argument was remapped onto the joined row: a two-input plan
  // has no input-1 refs above the join.
  for (const auto& spec : agg->aggregates) {
    if (spec.arg != nullptr) {
      EXPECT_FALSE(expr::ReferencesInput(spec.arg, 1));
    }
  }
}

TEST_F(PlannerTest, MergePlanShape) {
  std::vector<gsql::FieldDef> fields;
  fields.push_back({"time", DataType::kUint, gsql::OrderSpec::Strict()});
  fields.push_back({"v", DataType::kUint, gsql::OrderSpec::None()});
  catalog_.PutStreamSchema(
      gsql::StreamSchema("t0", gsql::StreamKind::kStream, fields));
  catalog_.PutStreamSchema(
      gsql::StreamSchema("t1", gsql::StreamKind::kStream, fields));

  auto planned = Plan(
      "DEFINE { query_name both; } "
      "MERGE t0.time : t1.time FROM t0, t1");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_EQ(planned->root->kind, PlanKind::kMerge);
  EXPECT_EQ(planned->root->merge_field, 0u);
  EXPECT_EQ(planned->root->children.size(), 2u);
  // Strictness dies in the interleave; monotonicity survives.
  EXPECT_EQ(planned->output_schema.field(0).order.kind,
            OrderKind::kIncreasing);
}

TEST_F(PlannerTest, PlanToStringMentionsOperators) {
  auto planned = Plan(
      "SELECT tb, count(*) FROM PKT GROUP BY time/60 AS tb");
  ASSERT_TRUE(planned.ok());
  std::string text = planned->root->ToString();
  EXPECT_NE(text.find("Aggregate"), std::string::npos);
  EXPECT_NE(text.find("Source"), std::string::npos);
}

}  // namespace
}  // namespace gigascope::plan
