#include "plan/splitter.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "expr/cost.h"
#include "net/headers.h"
#include "plan/ordering.h"
#include "plan/window.h"

namespace gigascope::plan {

namespace {

using expr::AggFn;
using expr::AggregateSpec;
using expr::IrKind;
using expr::IrPtr;
using gsql::DataType;
using gsql::FieldDef;
using gsql::OrderSpec;
using gsql::StreamKind;
using gsql::StreamSchema;

/// Bytes that cover Ethernet + maximal IPv4 + maximal TCP headers; the
/// snap length used when no projection needs the payload.
constexpr uint32_t kHeaderSnapLen = 134;

/// Collects the set of source fields a set of expressions touches.
void CollectNeeded(const IrPtr& ir, std::set<size_t>* needed) {
  std::vector<std::pair<size_t, size_t>> refs;
  expr::CollectFieldRefs(ir, &refs);
  for (auto [input, field] : refs) {
    if (input == 0) needed->insert(field);
  }
}

/// Builds the LFTA's pass-through schema and identity projections for a
/// set of needed source fields, and the remap function HFTA expressions
/// use to address them.
struct Passthrough {
  std::vector<IrPtr> projections;
  StreamSchema schema;
  std::map<size_t, size_t> position;  // source field -> lfta output slot
};

Passthrough BuildPassthrough(const StreamSchema& source,
                             const std::set<size_t>& needed,
                             const std::string& schema_name) {
  Passthrough result;
  std::vector<FieldDef> fields;
  for (size_t field : needed) {
    const FieldDef& def = source.field(field);
    result.position[field] = fields.size();
    result.projections.push_back(
        expr::MakeFieldRef(0, field, def.type, def.name));
    fields.push_back(def);  // keeps name, type, and ordering property
  }
  result.schema = StreamSchema(schema_name, StreamKind::kStream,
                               std::move(fields));
  return result;
}

/// Rewrites field references through the LFTA pass-through mapping.
IrPtr RemapIr(const IrPtr& ir, const std::map<size_t, size_t>& position) {
  return expr::CloneIr(ir, [&position](size_t input, size_t field) {
    (void)input;
    auto it = position.find(field);
    size_t slot = it != position.end() ? it->second : field;
    return std::make_pair(size_t{0}, slot);
  });
}

/// The super-aggregate of each sub-aggregate (data-cube style): COUNT
/// re-aggregates by SUM; SUM/MIN/MAX by themselves.
AggFn SuperAggFn(AggFn sub) {
  switch (sub) {
    case AggFn::kCount:
      return AggFn::kSum;
    case AggFn::kSum:
    case AggFn::kMin:
    case AggFn::kMax:
      return sub;
    case AggFn::kAvg:
      break;  // decomposed by the planner; never stored
  }
  return AggFn::kSum;
}

Result<SplitQuery> NoSplit(const PlannedQuery& planned) {
  SplitQuery split;
  split.name = planned.name;
  split.lfta_name = planned.name + "_lfta";
  split.hfta = planned.root;
  return split;
}

/// Splits a scan query: SelectProject over a Protocol source.
Result<SplitQuery> SplitScan(const PlannedQuery& planned,
                             const PlanPtr& select, const PlanPtr& source) {
  SplitQuery split;
  split.name = planned.name;
  split.lfta_name = planned.name + "_lfta";

  std::vector<IrPtr> conjuncts;
  SplitConjuncts(select->predicate, &conjuncts);
  std::vector<IrPtr> cheap, costly;
  for (const IrPtr& conjunct : conjuncts) {
    (expr::IsLftaSafe(conjunct) ? cheap : costly).push_back(conjunct);
  }
  bool projections_safe = std::all_of(
      select->projections.begin(), select->projections.end(),
      [](const IrPtr& p) { return expr::IsLftaSafe(p); });

  std::set<size_t> needed;
  for (const IrPtr& conjunct : costly) CollectNeeded(conjunct, &needed);
  for (const IrPtr& projection : select->projections) {
    CollectNeeded(projection, &needed);
  }
  bool needs_payload = false;
  if (auto payload = source->output_schema.FieldIndex("payload")) {
    needs_payload = needed.count(*payload) > 0;
    // The cheap (LFTA) conjuncts also execute before truncation matters.
    std::set<size_t> cheap_needed;
    for (const IrPtr& conjunct : cheap) CollectNeeded(conjunct, &cheap_needed);
    needs_payload = needs_payload || cheap_needed.count(*payload) > 0;
  }
  split.snap_len = needs_payload ? 0 : kHeaderSnapLen;
  split.has_nic_program =
      CompileNicFilter(AndTogether(cheap), source->output_schema,
                       split.snap_len, &split.nic_program);

  if (costly.empty() && projections_safe) {
    // The whole query runs as an LFTA.
    split.lfta = select;
    split.hfta = nullptr;
    split.lfta_schema = select->output_schema;
    return split;
  }

  Passthrough pass =
      BuildPassthrough(source->output_schema, needed, split.lfta_name);
  split.lfta = MakeSelectProjectNode(source, AndTogether(cheap),
                                     std::move(pass.projections),
                                     pass.schema);
  split.lfta_schema = pass.schema;

  // HFTA reads the LFTA stream.
  PlanPtr hfta_source = MakeSourceNode(pass.schema, "");
  std::vector<IrPtr> hfta_conjuncts;
  for (const IrPtr& conjunct : costly) {
    hfta_conjuncts.push_back(RemapIr(conjunct, pass.position));
  }
  std::vector<IrPtr> hfta_projections;
  for (const IrPtr& projection : select->projections) {
    hfta_projections.push_back(RemapIr(projection, pass.position));
  }
  split.hfta = MakeSelectProjectNode(
      hfta_source, AndTogether(hfta_conjuncts), std::move(hfta_projections),
      select->output_schema);
  return split;
}

/// Splits an aggregation query:
///   final(SelectProject) -> Aggregate(where) -> Source.
Result<SplitQuery> SplitAggregation(const PlannedQuery& planned,
                                    const PlanPtr& final_project,
                                    const PlanPtr& agg,
                                    const PlanPtr& source) {
  SplitQuery split;
  split.name = planned.name;
  split.lfta_name = planned.name + "_lfta";

  // Split the WHERE conjuncts.
  std::vector<IrPtr> conjuncts;
  SplitConjuncts(agg->predicate, &conjuncts);
  std::vector<IrPtr> cheap, costly;
  for (const IrPtr& conjunct : conjuncts) {
    (expr::IsLftaSafe(conjunct) ? cheap : costly).push_back(conjunct);
  }

  bool keys_safe = std::all_of(
      agg->group_keys.begin(), agg->group_keys.end(),
      [](const IrPtr& k) { return expr::IsLftaSafe(k); });
  bool args_safe = std::all_of(
      agg->aggregates.begin(), agg->aggregates.end(),
      [](const AggregateSpec& a) {
        return a.arg == nullptr || expr::IsLftaSafe(a.arg);
      });

  // Which source fields does anything above the LFTA need?
  std::set<size_t> needed;
  for (const IrPtr& conjunct : costly) CollectNeeded(conjunct, &needed);
  for (const IrPtr& key : agg->group_keys) CollectNeeded(key, &needed);
  for (const AggregateSpec& spec : agg->aggregates) {
    if (spec.arg != nullptr) CollectNeeded(spec.arg, &needed);
  }
  bool needs_payload = false;
  if (auto payload = source->output_schema.FieldIndex("payload")) {
    needs_payload = needed.count(*payload) > 0;
    std::set<size_t> cheap_needed;
    for (const IrPtr& conjunct : cheap) CollectNeeded(conjunct, &cheap_needed);
    needs_payload = needs_payload || cheap_needed.count(*payload) > 0;
  }
  split.snap_len = needs_payload ? 0 : kHeaderSnapLen;
  split.has_nic_program =
      CompileNicFilter(AndTogether(cheap), source->output_schema,
                       split.snap_len, &split.nic_program);

  if (keys_safe && args_safe && costly.empty()) {
    // Full aggregate splitting: LFTA subaggregates, HFTA superaggregates.
    // The WHERE is all cheap and runs in the LFTA subaggregate.
    split.split_aggregation = true;

    auto sub = std::make_shared<PlanNode>();
    sub->kind = PlanKind::kAggregate;
    sub->children.push_back(source);
    sub->predicate = AndTogether(cheap);
    sub->group_keys = agg->group_keys;
    sub->aggregates = agg->aggregates;
    sub->ordered_key = agg->ordered_key;
    sub->ordered_key_band = agg->ordered_key_band;
    // The LFTA stream layout mirrors the Aggregate node's: keys, then
    // aggregates — so the HFTA super-aggregate sees the same shape.
    std::vector<FieldDef> fields = agg->output_schema.fields();
    sub->output_schema =
        StreamSchema(split.lfta_name, StreamKind::kStream, fields);
    split.lfta = sub;
    split.lfta_schema = sub->output_schema;

    // HFTA: re-aggregate. Keys are now plain field refs 0..K-1.
    PlanPtr hfta_source = MakeSourceNode(sub->output_schema, "");
    auto super = std::make_shared<PlanNode>();
    super->kind = PlanKind::kAggregate;
    super->children.push_back(hfta_source);
    size_t num_keys = agg->group_keys.size();
    for (size_t k = 0; k < num_keys; ++k) {
      const FieldDef& key = sub->output_schema.field(k);
      super->group_keys.push_back(
          expr::MakeFieldRef(0, k, key.type, key.name));
    }
    super->ordered_key = agg->ordered_key;
    // The LFTA's eager drains emit partials anywhere within the band, so
    // the superaggregate inherits the same slack.
    super->ordered_key_band = agg->ordered_key_band;
    for (size_t a = 0; a < agg->aggregates.size(); ++a) {
      const AggregateSpec& spec = agg->aggregates[a];
      const FieldDef& field = sub->output_schema.field(num_keys + a);
      AggregateSpec super_spec;
      super_spec.fn = SuperAggFn(spec.fn);
      super_spec.arg =
          expr::MakeFieldRef(0, num_keys + a, field.type, field.name);
      super_spec.result_type = spec.result_type;
      super->aggregates.push_back(std::move(super_spec));
    }
    super->output_schema = agg->output_schema;

    // The final projection applies unchanged: layouts and types match.
    split.hfta = MakeSelectProjectNode(super, final_project->predicate,
                                       final_project->projections,
                                       final_project->output_schema);
    return split;
  }

  // Partial split: LFTA filters/projects, HFTA runs the costly WHERE
  // conjuncts and does all aggregation.
  Passthrough pass =
      BuildPassthrough(source->output_schema, needed, split.lfta_name);
  split.lfta = MakeSelectProjectNode(source, AndTogether(cheap),
                                     std::move(pass.projections),
                                     pass.schema);
  split.lfta_schema = pass.schema;

  auto hfta_agg = std::make_shared<PlanNode>();
  hfta_agg->kind = PlanKind::kAggregate;
  hfta_agg->children.push_back(MakeSourceNode(pass.schema, ""));
  std::vector<IrPtr> remapped;
  for (const IrPtr& conjunct : costly) {
    remapped.push_back(RemapIr(conjunct, pass.position));
  }
  hfta_agg->predicate = AndTogether(remapped);
  for (const IrPtr& key : agg->group_keys) {
    hfta_agg->group_keys.push_back(RemapIr(key, pass.position));
  }
  for (const AggregateSpec& spec : agg->aggregates) {
    AggregateSpec remapped = spec;
    if (remapped.arg != nullptr) {
      remapped.arg = RemapIr(remapped.arg, pass.position);
    }
    hfta_agg->aggregates.push_back(std::move(remapped));
  }
  hfta_agg->ordered_key = agg->ordered_key;
  hfta_agg->ordered_key_band = agg->ordered_key_band;
  hfta_agg->output_schema = agg->output_schema;
  split.hfta = MakeSelectProjectNode(hfta_agg, final_project->predicate,
                                     final_project->projections,
                                     final_project->output_schema);
  return split;
}

/// True when `node` is a SelectProject with no predicate whose projections
/// are its operator child's fields 0..n-1, in order and of the same types:
/// it would only rename columns and copy every row onto one more ring.
bool IsIdentityProjection(const PlanNode& node) {
  if (node.kind != PlanKind::kSelectProject || node.predicate != nullptr) {
    return false;
  }
  const PlanNode& child = *node.children[0];
  if (child.kind == PlanKind::kSource ||
      node.projections.size() != child.output_schema.num_fields()) {
    return false;
  }
  for (size_t f = 0; f < node.projections.size(); ++f) {
    const expr::IrNode& projection = *node.projections[f];
    if (projection.kind != IrKind::kField || projection.input != 0 ||
        projection.field != f ||
        projection.type != child.output_schema.field(f).type) {
      return false;
    }
  }
  return true;
}

/// Drops an identity projection at the top of the HFTA: its child takes
/// the projection's output schema (names and ordering properties) and so
/// publishes the query's answer itself. The child is copied, since the
/// logical plan may share it.
void ElideIdentityProjection(PlanPtr* hfta) {
  if (*hfta == nullptr || !IsIdentityProjection(**hfta)) return;
  auto child = std::make_shared<PlanNode>(*(*hfta)->children[0]);
  child->output_schema = (*hfta)->output_schema;
  *hfta = std::move(child);
}

Result<SplitQuery> SplitShape(const PlannedQuery& planned) {
  const PlanPtr& root = planned.root;

  // Scan shape: SelectProject -> Source(protocol).
  if (root->kind == PlanKind::kSelectProject &&
      root->children[0]->kind == PlanKind::kSource &&
      root->children[0]->source_is_protocol) {
    return SplitScan(planned, root, root->children[0]);
  }

  // Aggregation shape: SelectProject -> Aggregate -> Source(protocol).
  if (root->kind == PlanKind::kSelectProject &&
      root->children[0]->kind == PlanKind::kAggregate) {
    const PlanPtr& agg = root->children[0];
    const PlanPtr& source = agg->children[0];
    if (source->kind == PlanKind::kSource && source->source_is_protocol) {
      return SplitAggregation(planned, root, agg, source);
    }
  }

  // Everything else (joins, merges, Stream scans) runs as an HFTA.
  return NoSplit(planned);
}

}  // namespace

Result<SplitQuery> SplitPlan(const PlannedQuery& planned) {
  if (planned.root == nullptr) {
    return Status::Internal("cannot split a null plan");
  }
  GS_ASSIGN_OR_RETURN(SplitQuery split, SplitShape(planned));
  ElideIdentityProjection(&split.hfta);
  return split;
}

bool CompileNicFilter(const expr::IrPtr& predicate,
                      const gsql::StreamSchema& schema, uint32_t snap_len,
                      bpf::Program* out) {
  if (predicate == nullptr) return false;

  // Gather `field = const` equality conjuncts by field name.
  std::vector<IrPtr> conjuncts;
  SplitConjuncts(predicate, &conjuncts);
  std::map<std::string, uint64_t> equalities;
  for (const IrPtr& conjunct : conjuncts) {
    if (conjunct->kind != IrKind::kBinary ||
        conjunct->binary_op != gsql::BinaryOp::kEq) {
      continue;
    }
    const IrPtr* field = &conjunct->children[0];
    const IrPtr* constant = &conjunct->children[1];
    // Strip casts on both sides; allow const = field too.
    auto strip = [](const IrPtr* node) {
      while ((*node)->kind == IrKind::kCast) node = &(*node)->children[0];
      return node;
    };
    field = strip(field);
    constant = strip(constant);
    if ((*field)->kind != IrKind::kField) std::swap(field, constant);
    if ((*field)->kind != IrKind::kField ||
        (*constant)->kind != IrKind::kConst) {
      continue;
    }
    const expr::Value& value = (*constant)->constant;
    uint64_t raw;
    switch (value.type()) {
      case DataType::kInt:
        if (value.int_value() < 0) continue;
        raw = static_cast<uint64_t>(value.int_value());
        break;
      case DataType::kUint:
      case DataType::kIp:
        raw = value.uint_value();
        break;
      default:
        continue;
    }
    if ((*field)->field < schema.num_fields()) {
      equalities[schema.field((*field)->field).name] = raw;
    }
  }

  auto has = [&equalities](const char* name) {
    return equalities.count(name) > 0;
  };
  bool ipv4 = has("ipVersion") && equalities["ipVersion"] == 4;
  uint32_t ret_len = snap_len == 0 ? 0xffffffff : snap_len;

  std::vector<bpf::Instruction> code;
  // Each check appends a test whose failing branch jumps to the final
  // reject RET; displacements are patched at the end.
  std::vector<size_t> reject_patches;

  auto emit_check = [&code, &reject_patches](bpf::Instruction load,
                                             uint32_t expected) {
    code.push_back(load);
    code.push_back(bpf::JEq(expected, 0, 0));
    reject_patches.push_back(code.size() - 1);
  };

  bool emitted = false;
  if (ipv4) {
    emit_check(bpf::LdHalfAbs(12), net::kEtherTypeIpv4);
    // Version nibble: ldb 14; rsh 4 is not in our ISA; use and 0xf0 == 0x40.
    code.push_back(bpf::LdByteAbs(14));
    code.push_back(bpf::Alu(bpf::OpCode::kAnd, 0xf0));
    code.push_back(bpf::JEq(0x40, 0, 0));
    reject_patches.push_back(code.size() - 1);
    emitted = true;

    if (has("protocol")) {
      emit_check(bpf::LdByteAbs(23),
                 static_cast<uint32_t>(equalities["protocol"]));
    }
    if (has("srcIP")) {
      emit_check(bpf::LdWordAbs(26),
                 static_cast<uint32_t>(equalities["srcIP"]));
    }
    if (has("destIP")) {
      emit_check(bpf::LdWordAbs(30),
                 static_cast<uint32_t>(equalities["destIP"]));
    }
    bool proto_is_transport =
        has("protocol") && (equalities["protocol"] == net::kIpProtoTcp ||
                            equalities["protocol"] == net::kIpProtoUdp);
    if (proto_is_transport && (has("srcPort") || has("destPort"))) {
      // Ports exist only in unfragmented first fragments.
      code.push_back(bpf::LdHalfAbs(20));
      code.push_back(bpf::JSet(0x1fff, 0, 0));
      // JSet true (fragmented) must reject: swap branch roles by patching
      // jt to reject instead of jf.
      reject_patches.push_back(code.size() - 1);
      code.push_back(bpf::LdxMshIp(14));
      if (has("srcPort")) {
        code.push_back(bpf::LdHalfInd(14));
        code.push_back(
            bpf::JEq(static_cast<uint32_t>(equalities["srcPort"]), 0, 0));
        reject_patches.push_back(code.size() - 1);
      }
      if (has("destPort")) {
        code.push_back(bpf::LdHalfInd(16));
        code.push_back(
            bpf::JEq(static_cast<uint32_t>(equalities["destPort"]), 0, 0));
        reject_patches.push_back(code.size() - 1);
      }
    }
  }

  if (!emitted) return false;

  size_t accept_index = code.size();
  code.push_back(bpf::Ret(ret_len));
  size_t reject_index = code.size();
  code.push_back(bpf::Ret(0));

  // Patch: every pending check falls through (branch displacement 0) on
  // success and jumps to the reject RET on failure. The fragment JSet is
  // inverted: set bits (fragment) jump to reject.
  for (size_t index : reject_patches) {
    bpf::Instruction& instr = code[index];
    size_t base = index + 1;
    uint8_t to_reject = static_cast<uint8_t>(reject_index - base);
    if (instr.op == bpf::OpCode::kJSet) {
      instr.jt = to_reject;
      instr.jf = 0;
    } else {
      instr.jt = 0;
      instr.jf = to_reject;
    }
  }
  (void)accept_index;

  out->instructions = std::move(code);
  return true;
}

}  // namespace gigascope::plan
