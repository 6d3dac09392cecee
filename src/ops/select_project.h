#ifndef GIGASCOPE_OPS_SELECT_PROJECT_H_
#define GIGASCOPE_OPS_SELECT_PROJECT_H_

#include <optional>
#include <string>
#include <vector>

#include "expr/codegen.h"
#include "expr/vm.h"
#include "rts/node.h"
#include "rts/punctuation.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// Selection + projection: the stateless workhorse of both LFTAs and HFTAs.
///
/// Drops tuples that fail the predicate, fail evaluation (runtime error),
/// or hit a partial-function miss; computes one output field per compiled
/// projection. Punctuations pass through: a bound on an input field maps to
/// a bound on every output field whose projection is an order-preserving
/// function of exactly that field (e.g. `time/60`).
///
/// Reads whole StreamBatches through QueryNode's input loop, or, as an
/// LFTA directly over a packet source, is fed each message in place
/// (rts::FedNode), and emits through a BatchWriter. When the predicate is a conjunction of `field <cmp>
/// constant` terms over fixed-offset fields (the dominant LFTA filter
/// shape), it is evaluated columnar-style straight off the packed tuple
/// bytes: rejected tuples — the vast majority on a selective filter — are
/// read no further. Otherwise the VM loads the fields it reads (the read
/// set) in place. When every projection is a bare column reference (a
/// rename, or a column subset), the output tuple is a copy of those fields'
/// packed bytes, written in place into the output batch as a few runs of
/// bytes: no row, no VM.
class SelectProjectNode : public rts::QueryNode, public rts::FedNode {
 public:
  struct Spec {
    std::string name;                       // node/output stream name
    gsql::StreamSchema input_schema;
    gsql::StreamSchema output_schema;
    std::optional<expr::CompiledExpr> predicate;
    std::vector<expr::CompiledExpr> projections;
    /// For punctuation mapping: the single input field each projection
    /// depends on, or -1 when it depends on zero or several fields or is
    /// not order-preserving.
    std::vector<int> punctuation_source;
    /// Upper bound on messages per published output batch.
    size_t output_batch = 64;
  };

  /// A null `input` makes a fed node: its producer calls Feed.
  SelectProjectNode(Spec spec, rts::Subscription input,
                    rts::StreamRegistry* registry, rts::ParamBlock params);

  size_t Poll(size_t budget) override;
  void Feed(const rts::MessageMeta& message, ByteSpan payload) override;

  /// Whether the predicate compiled to the raw byte-comparing fast path
  /// (introspection for tests and EXPLAIN).
  bool has_raw_filter() const { return !raw_terms_.empty(); }

 private:
  /// One predicate conjunct evaluated on packed bytes: the field at a
  /// fixed offset compared against a pre-extracted constant.
  struct RawTerm {
    size_t offset = 0;
    gsql::DataType type = gsql::DataType::kUint;
    expr::ByteOp cmp = expr::ByteOp::kCmpEq;
    uint64_t u = 0;  // kUint/kIp/kBool constant
    int64_t i = 0;   // kInt constant
    double f = 0;    // kFloat constant
  };

  void BuildRawFilter();
  /// Sets up the copy path when every projection is a bare column.
  void BuildCopyProjection();
  bool RawFilterPass(ByteSpan payload) const;
  void ProcessTuple(ByteSpan payload);
  /// Evaluates the predicate over `at_`; false drops the tuple.
  bool PredicateHolds();
  /// Evaluates the projections over `at_`, emitting the output tuple.
  void EvaluateProjections();
  /// Emits the copy path's output: the projected fields' packed bytes.
  void CopyProjection(ByteSpan payload);
  void ProcessPunctuation(ByteSpan payload);

  Spec spec_;
  rts::Subscription input_;
  rts::ParamBlock params_;
  rts::TupleCodec input_codec_;
  rts::TupleCodec output_codec_;
  rts::BatchWriter writer_;
  expr::Evaluator vm_;
  std::vector<RawTerm> raw_terms_;  // empty: use the general VM
  /// Input fields the predicate and projections load, and where the
  /// current tuple holds them (one entry per input field).
  rts::ReadSet reads_;
  std::vector<const uint8_t*> at_;
  rts::BoundTranslator bounds_;
  /// One run of input bytes the copy path writes: `length` bytes from
  /// `offset` into input segment `segment` (rts::TupleCodec::Slot), or,
  /// when `length` is 0, one STRING field, whose length is read per tuple.
  struct CopyRun {
    uint32_t segment = 0;
    uint32_t offset = 0;
    uint32_t length = 0;
  };
  /// Copy path (empty when some projection is computed): the output tuple
  /// as runs, in output order. Adjacent fixed-width fields share a run.
  std::vector<CopyRun> copy_runs_;
  /// Output bytes that do not vary: the fixed runs plus every string's
  /// length word.
  size_t copy_fixed_bytes_ = 0;
  /// The current tuple's segment starts, for every segment a run reads.
  std::vector<size_t> copy_starts_;
  bool copy_whole_ = false;  // the projection is the identity
  rts::Row out_row_;         // projected output, reused per tuple
  /// A punctuation's bounds on the output, and the computed projections'
  /// values at their bounds (one per projection), reused.
  std::vector<rts::Bound> out_bounds_;
  std::vector<rts::PackedBound> mapped_;
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_SELECT_PROJECT_H_
