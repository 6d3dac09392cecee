#ifndef GIGASCOPE_OPS_LFTA_AGG_H_
#define GIGASCOPE_OPS_LFTA_AGG_H_

#include <optional>
#include <utility>
#include <vector>

#include "ops/aggregate.h"
#include "rts/shed_state.h"

namespace gigascope::ops {

/// The LFTA's small direct-mapped aggregation hash table (§3).
///
/// No chaining: a hash collision ejects the incumbent group, which is
/// written to the output stream as a partial (sub)aggregate; the HFTA
/// superaggregate re-merges partials. Because of temporal locality,
/// aggregation is effective at early data reduction even with a small
/// table — the property ablated by bench/e3_lfta_hash.
class DirectMappedAggTable {
 public:
  /// `log2_slots` gives 2^log2_slots slots.
  DirectMappedAggTable(int log2_slots,
                       const std::vector<expr::AggregateSpec>* specs);

  /// Folds a tuple into the group with `keys`, weighted by `weight`
  /// (Horvitz-Thompson scaling under source sampling). When a different
  /// group occupies the slot, returns the ejected (keys,
  /// accumulator-finalized values) pair.
  std::optional<std::pair<rts::Row, rts::Row>> Upsert(
      rts::Row keys, const std::vector<std::optional<expr::Value>>& args,
      uint64_t weight = 1);

  /// Removes and returns all occupied groups (epoch close), in slot order.
  std::vector<std::pair<rts::Row, rts::Row>> DrainAll();

  /// Force-evicts the least-recently-touched groups until at most `target`
  /// remain (L3 shedding). Evictees are partials — always safe, the HFTA
  /// re-merges them — returned coldest first.
  std::vector<std::pair<rts::Row, rts::Row>> EvictColdest(size_t target);

  size_t num_slots() const { return slots_.size(); }
  size_t occupied() const { return static_cast<size_t>(occupied_.value()); }
  uint64_t updates() const { return updates_.value(); }
  uint64_t evictions() const { return evictions_.value(); }
  uint64_t shed_evictions() const { return shed_evictions_.value(); }

 private:
  struct Slot {
    bool used = false;
    uint64_t last_touch = 0;  // tick of the last Upsert into this slot
    rts::Row keys;
    std::optional<GroupAccumulator> acc;
  };

  const std::vector<expr::AggregateSpec>* specs_;
  std::vector<Slot> slots_;
  size_t mask_;
  uint64_t tick_ = 0;  // advances once per Upsert; orders slot coldness
  // Telemetry counters: written by the owning LFTA thread only, readable
  // from any thread via the engine's stats snapshots.
  telemetry::Counter occupied_;
  telemetry::Counter updates_;
  telemetry::Counter evictions_;
  telemetry::Counter shed_evictions_;
};

/// LFTA-side pre-aggregation node: evaluates group keys and aggregate
/// arguments, folds into the direct-mapped table, emits ejected partials
/// immediately, and drains the table when the ordered key advances (epoch
/// close) — feeding the HFTA superaggregate.
class LftaAggregateNode : public rts::QueryNode {
 public:
  using Spec = OrderedAggregateNode::Spec;

  /// `shed` (optional) is the engine's shared shedding state: the node
  /// reads the sampling weight, epoch coarsening factor, and table cap from
  /// it on the fly. Reads are relaxed atomics; the node runs on the same
  /// thread as the controller that writes them (the inject thread).
  LftaAggregateNode(Spec spec, int log2_slots, rts::Subscription input,
                    rts::StreamRegistry* registry, rts::ParamBlock params,
                    const rts::ShedState* shed = nullptr);

  size_t Poll(size_t budget) override;
  void Flush() override;
  void RegisterTelemetry(telemetry::Registry* metrics) const override;
  void AttachJit(jit::QueryJit* jit) override;
  void CountJitKernels(size_t* native, size_t* total) const override;

  const DirectMappedAggTable& table() const { return table_; }

 private:
  void ProcessTuple(ByteSpan payload, uint32_t weight);
  void ProcessPunctuation(ByteSpan payload);
  void EmitPartial(const rts::Row& keys, const rts::Row& aggs);
  void DrainEpoch(const expr::Value& new_epoch);
  /// Counts an ordered-key advance to `new_epoch` and drains once every
  /// `epoch_coarsen` advances (L2 shedding; factor 1 = drain every time).
  void MaybeDrainEpoch(const expr::Value& new_epoch);
  /// Applies the L3 occupancy cap, force-evicting coldest groups.
  void EnforceTableCap();

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
  rts::Row out_row_;        // emitted partial, reused
  DirectMappedAggTable table_;
  std::optional<expr::Value> epoch_;
  const rts::ShedState* shed_;
  uint32_t epoch_advances_ = 0;  // ordered-key advances since last drain
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_LFTA_AGG_H_
