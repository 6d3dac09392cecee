// gsqlc — the GSQL query compiler explorer.
//
// Reads a GSQL program (CREATE statements + queries) from a file or stdin,
// compiles every query, and prints for each: the logical plan, the
// LFTA/HFTA split, the imputed output schema (with ordering properties),
// and the generated NIC (BPF) pre-filter. This is the offline face of the
// paper's "GSQL processor is actually a code generator": it shows exactly
// what would be linked into the runtime and what would be pushed into the
// NIC.
//
// Usage:
//   gsqlc [--explain[=json]] [file.gsql]  # stdin when no file given
//   echo "SELECT ..." | gsqlc --explain
//
// --explain switches to the stable EXPLAIN rendering (plan/explain.h):
// per-operator LFTA/HFTA placement, imputed ordering properties, window
// bounds, and expression cost against the LFTA budget. --explain=json
// emits one JSON object per statement instead, for tooling.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "gsql/analyzer.h"
#include "gsql/parser.h"
#include "plan/explain.h"
#include "plan/planner.h"
#include "plan/splitter.h"
#include "udf/registry.h"

namespace {

using gigascope::Status;
using gigascope::gsql::Catalog;

int Fail(const Status& status) {
  std::fprintf(stderr, "gsqlc: %s\n", status.ToString().c_str());
  return 1;
}

void PrintSchema(const gigascope::gsql::StreamSchema& schema) {
  std::printf("  output schema: %s\n", schema.ToString().c_str());
}

enum class ExplainMode { kOff, kText, kJson };

int CompileProgram(const std::string& source, ExplainMode explain) {
  auto program = gigascope::gsql::Parse(source);
  if (!program.ok()) return Fail(program.status());

  Catalog catalog;
  Status status = catalog.AddSchema(Catalog::BuiltinPacketSchema());
  if (!status.ok()) return Fail(status);
  status = catalog.AddSchema(Catalog::BuiltinNetflowSchema());
  if (!status.ok()) return Fail(status);
  // The engine's self-monitoring stream: registered here too so queries
  // over gs_stats compile in the explorer exactly as they do in gsrun.
  status = catalog.AddSchema(Catalog::BuiltinStatsSchema());
  if (!status.ok()) return Fail(status);
  catalog.AddInterface("eth0");
  catalog.AddInterface("eth1");

  gigascope::plan::PlannerOptions options;
  options.resolver = gigascope::udf::FunctionRegistry::Default();

  int index = 0;
  for (const auto& statement : program->statements) {
    ++index;
    if (const auto* create =
            std::get_if<gigascope::gsql::CreateStmt>(&statement)) {
      status = catalog.AddSchema(create->schema);
      if (!status.ok()) return Fail(status);
      if (explain == ExplainMode::kOff) {
        std::printf("[%d] registered %s\n\n", index,
                    create->schema.ToString().c_str());
      }
      continue;
    }

    gigascope::plan::PlannedQuery planned;
    if (const auto* select =
            std::get_if<gigascope::gsql::SelectStmt>(&statement)) {
      // Parameters get their declared defaults; gsqlc only plans.
      for (const auto& param : select->define.params) {
        options.params.emplace_back(param.name, param.type);
      }
      auto resolved = gigascope::gsql::AnalyzeSelect(*select, catalog);
      if (!resolved.ok()) return Fail(resolved.status());
      auto result = gigascope::plan::PlanSelect(*resolved, options);
      if (!result.ok()) return Fail(result.status());
      planned = std::move(result).value();
      options.params.clear();
    } else if (const auto* merge =
                   std::get_if<gigascope::gsql::MergeStmt>(&statement)) {
      auto resolved = gigascope::gsql::AnalyzeMerge(*merge, catalog);
      if (!resolved.ok()) return Fail(resolved.status());
      auto result = gigascope::plan::PlanMerge(*resolved, options);
      if (!result.ok()) return Fail(result.status());
      planned = std::move(result).value();
    } else {
      continue;
    }

    if (explain != ExplainMode::kOff) {
      auto split = gigascope::plan::SplitPlan(planned);
      if (!split.ok()) return Fail(split.status());
      if (explain == ExplainMode::kJson) {
        std::printf("%s\n",
                    gigascope::plan::ExplainJson(planned, *split).c_str());
      } else {
        std::printf("%s\n",
                    gigascope::plan::ExplainText(planned, *split).c_str());
      }
      catalog.PutStreamSchema(planned.output_schema);
      continue;
    }

    std::printf("[%d] query %s\n", index, planned.name.c_str());
    PrintSchema(planned.output_schema);
    if (planned.unbounded_aggregation) {
      std::printf(
          "  WARNING: no increasing-like group key — aggregate state is "
          "unbounded (§2.2)\n");
    }
    std::printf("  logical plan:\n%s", planned.root->ToString(2).c_str());

    auto split = gigascope::plan::SplitPlan(planned);
    if (!split.ok()) return Fail(split.status());
    if (split->lfta != nullptr) {
      std::printf("  lfta (%s)%s:\n%s", split->lfta_name.c_str(),
                  split->split_aggregation ? " [pre-aggregating]" : "",
                  split->lfta->ToString(2).c_str());
    } else {
      std::printf("  lfta: none (stream input)\n");
    }
    if (split->hfta != nullptr) {
      std::printf("  hfta:\n%s", split->hfta->ToString(2).c_str());
    } else {
      std::printf("  hfta: none (runs entirely as an LFTA)\n");
    }
    if (split->has_nic_program) {
      std::printf("  nic pre-filter (snap %u):\n%s", split->snap_len,
                  split->nic_program.ToString().c_str());
    } else {
      std::printf("  nic pre-filter: none pushable\n");
    }

    // Register the output so later statements can compose over it (§2.2).
    catalog.PutStreamSchema(planned.output_schema);
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ExplainMode explain = ExplainMode::kOff;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--explain") {
      explain = ExplainMode::kText;
    } else if (arg == "--explain=json") {
      explain = ExplainMode::kJson;
    } else if (arg == "--explain=text") {
      explain = ExplainMode::kText;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "gsqlc: unknown flag %s\n", arg.c_str());
      return 2;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "gsqlc: at most one input file\n");
      return 2;
    }
  }
  std::string source;
  if (path != nullptr) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "gsqlc: cannot open %s\n", path);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    source = buffer.str();
  } else {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    source = buffer.str();
  }
  return CompileProgram(source, explain);
}
