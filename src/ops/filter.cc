#include "ops/filter.h"

namespace gigascope::ops {

using gsql::DataType;

Filter::Filter(const std::optional<expr::CompiledExpr>& predicate,
               const rts::TupleCodec& input_codec) {
  if (!predicate.has_value()) return;
  vm_predicate_ = &*predicate;
  auto terms = expr::MatchFilterTerms(*predicate);
  if (!terms.has_value()) return;
  const gsql::StreamSchema& schema = input_codec.schema();
  std::vector<RawTerm> raw;
  for (const expr::FilterTerm& term : *terms) {
    if (term.field >= schema.num_fields()) return;
    const DataType type = schema.field(term.field).type;
    // Same-type comparison only: that is what the VM executes (compiled
    // predicates insert casts otherwise, and those bytecodes don't match).
    if (term.constant.type() != type) return;
    // A fixed-width field no string precedes: at one offset in every tuple.
    const rts::TupleCodec::Slot& slot = input_codec.slot(term.field);
    if (slot.segment != 0 || slot.width == 0) return;
    RawTerm rt;
    rt.offset = slot.offset;
    rt.type = type;
    rt.cmp = term.cmp;
    switch (type) {
      case DataType::kUint: rt.u = term.constant.uint_value(); break;
      case DataType::kIp: rt.u = term.constant.ip_value(); break;
      case DataType::kBool: rt.u = term.constant.bool_value() ? 1 : 0; break;
      case DataType::kInt: rt.i = term.constant.int_value(); break;
      case DataType::kFloat: rt.f = term.constant.float_value(); break;
      case DataType::kString: return;  // unreachable (no fixed width)
    }
    raw.push_back(rt);
  }
  raw_terms_ = std::move(raw);
  vm_predicate_ = nullptr;
}

void Filter::AddLoadedFields(const gsql::StreamSchema& schema,
                             rts::ReadSet* reads) const {
  if (vm_predicate_ != nullptr) {
    rts::AddLoadedFields(*vm_predicate_, 0, schema, reads);
  }
}

}  // namespace gigascope::ops
