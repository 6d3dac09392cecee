#ifndef GIGASCOPE_OPS_AGGREGATE_H_
#define GIGASCOPE_OPS_AGGREGATE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/codegen.h"
#include "expr/vm.h"
#include "rts/node.h"
#include "rts/punctuation.h"
#include "rts/tuple.h"

namespace gigascope::ops {

/// Running state of one group's aggregates (COUNT/SUM/MIN/MAX; AVG is
/// decomposed by the planner).
class GroupAccumulator {
 public:
  explicit GroupAccumulator(const std::vector<expr::AggregateSpec>* specs);

  /// Folds one input tuple in. `args[i]` is the evaluated argument of
  /// spec i (nullopt for COUNT(*)). `weight` is the number of input tuples
  /// this one stands for (Horvitz-Thompson): under 1-in-k source sampling
  /// the LFTA folds survivors with weight k, so COUNT adds k and SUM adds
  /// k*v — unbiased estimates of the unsampled aggregate. MIN/MAX are
  /// order statistics and take the value unweighted.
  void Update(const std::vector<std::optional<expr::Value>>& args,
              uint64_t weight = 1);

  /// Merges another accumulator of the same spec list (superaggregation).
  void Merge(const GroupAccumulator& other);

  /// Produces the aggregate values in spec order.
  rts::Row Finalize() const;

  uint64_t rows() const { return rows_; }

 private:
  const std::vector<expr::AggregateSpec>* specs_;
  uint64_t rows_ = 0;
  struct Cell {
    uint64_t count = 0;
    int64_t sum_int = 0;
    uint64_t sum_uint = 0;
    double sum_float = 0;
    std::optional<expr::Value> extremum;
  };
  std::vector<Cell> cells_;
};

/// Lowers a numeric bound by `band` (saturating for unsigned types):
/// on a banded-increasing stream, a value v only guarantees that no future
/// value falls below v - band.
expr::Value ReduceByBand(const expr::Value& value, uint64_t band);

/// Hash/equality over key rows, for group maps.
struct RowHash {
  size_t operator()(const rts::Row& row) const;
};
struct RowEq {
  bool operator()(const rts::Row& a, const rts::Row& b) const;
};

/// Ordered group-by/aggregation (§2.1): the group key contains an ordered
/// attribute; when a tuple arrives whose ordered key exceeds every open
/// group, all open groups are closed and flushed to the output. With no
/// ordered key (ordered_key = -1) the state is unbounded and emits only on
/// Flush() — permitted but warned about, as in the paper.
///
/// This node serves both as the HFTA-side full aggregation and as the
/// superaggregate of a split aggregation (the specs then re-aggregate the
/// LFTA's subaggregate columns).
class OrderedAggregateNode : public rts::QueryNode {
 public:
  struct Spec {
    std::string name;
    gsql::StreamSchema input_schema;
    gsql::StreamSchema output_schema;  // keys then aggregates
    std::vector<expr::CompiledExpr> keys;
    std::vector<expr::AggregateSpec> agg_specs;
    std::vector<std::optional<expr::CompiledExpr>> agg_args;  // per spec
    int ordered_key = -1;
    /// Band width of the ordered key: groups close only once the key's
    /// running maximum exceeds them by more than the band (0 = monotone).
    uint64_t ordered_key_band = 0;
    /// The single input field each key depends on (for punctuation), -1
    /// otherwise.
    std::vector<int> key_punctuation_source;
    /// Upper bound on messages per published output batch.
    size_t output_batch = 64;
  };

  OrderedAggregateNode(Spec spec, rts::Subscription input,
                       rts::StreamRegistry* registry, rts::ParamBlock params);

  size_t Poll(size_t budget) override;
  void Flush() override;
  void RegisterTelemetry(telemetry::Registry* metrics) const override;
  void AttachJit(jit::QueryJit* jit) override;
  void CountJitKernels(size_t* native, size_t* total) const override;

  size_t open_groups() const { return groups_.size(); }
  uint64_t groups_flushed() const { return groups_flushed_.value(); }

 private:
  void ProcessTuple(ByteSpan payload, uint32_t weight);
  void ProcessPunctuation(ByteSpan payload);
  /// Flushes groups whose ordered key is strictly below `bound` (all groups
  /// when bound is nullopt), in key order.
  void FlushGroups(const std::optional<expr::Value>& bound);
  void EmitGroup(const rts::Row& keys, const GroupAccumulator& acc);

  Spec spec_;
  rts::Subscription input_;
  rts::StreamRegistry* registry_;
  rts::ParamBlock params_;
  rts::TupleCodec input_codec_;
  rts::TupleCodec output_codec_;
  rts::BatchWriter writer_;
  expr::Evaluator vm_;
  /// Input fields the group keys and aggregate arguments load.
  rts::ReadSet reads_;
  rts::StreamBatch batch_;  // input batch, reused across polls
  rts::Row row_;            // read-set decode target, reused per tuple
  rts::Row out_row_;        // emitted group, reused
  std::unordered_map<rts::Row, GroupAccumulator, RowHash, RowEq> groups_;
  std::optional<expr::Value> epoch_;  // max ordered-key value seen
  telemetry::Counter groups_flushed_;
  /// Mirrors groups_.size() so other threads can read the gauge without
  /// touching the (unsynchronized) group map.
  telemetry::Counter open_groups_;
};

/// Requests native kernels for an aggregation Spec's group-key and
/// aggregate-argument expressions — the per-tuple hot loop of both the
/// ordered (HFTA) and direct-mapped (LFTA) aggregates.
void RequestAggKernels(OrderedAggregateNode::Spec* spec, jit::QueryJit* jit);

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_AGGREGATE_H_
