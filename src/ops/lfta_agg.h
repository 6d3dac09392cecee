#ifndef GIGASCOPE_OPS_LFTA_AGG_H_
#define GIGASCOPE_OPS_LFTA_AGG_H_

#include <algorithm>
#include <string>
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
///
/// Groups are packed (GroupLayout): a slot holds a group's key bytes in a
/// std::string — inline up to its small-buffer size, and a longer key's
/// storage stays with the slot for the next key — and the fixed-width
/// cells sit in one array beside the slots. Every group leaves the table
/// through an `emit` callback, `void(const GroupRef&)`, which must copy
/// what it needs before returning (the slot is reused right after).
class DirectMappedAggTable {
 public:
  /// `log2_slots` gives 2^log2_slots slots.
  DirectMappedAggTable(int log2_slots, const GroupLayout* layout);

  /// Folds a tuple into the group with packed `key`, weighted by `weight`
  /// (Horvitz-Thompson scaling under source sampling). When a different
  /// group occupies the slot, it is ejected through `emit` first.
  template <typename Emit>
  void Upsert(ByteSpan key, const uint8_t* const* args, uint64_t weight,
              Emit&& emit);

  /// Removes all occupied groups (epoch close), emitting them in slot
  /// order.
  template <typename Emit>
  void DrainAll(Emit&& emit);

  /// Force-evicts the least-recently-touched groups until at most `target`
  /// remain (L3 shedding). Evictees are partials — always safe, the HFTA
  /// re-merges them — emitted coldest first.
  template <typename Emit>
  void EvictColdest(size_t target, Emit&& emit);

  size_t num_slots() const { return slots_.size(); }
  size_t occupied() const { return static_cast<size_t>(occupied_.value()); }
  uint64_t updates() const { return updates_.value(); }
  uint64_t evictions() const { return evictions_.value(); }
  uint64_t shed_evictions() const { return shed_evictions_.value(); }

 private:
  struct Slot {
    uint64_t last_touch = 0;  // tick of the last Upsert; 0 = empty
    std::string key;          // packed key bytes
  };

  GroupRef Group(size_t s) const;
  /// Starts slot `s` as the group of `key`.
  void Claim(size_t s, ByteSpan key, const uint8_t* const* args,
             uint64_t weight);
  /// Folds into slot `s` when it holds `key`'s group.
  bool FoldIfSame(size_t s, ByteSpan key, const uint8_t* const* args,
                  uint64_t weight);

  const GroupLayout* layout_;
  std::vector<Slot> slots_;
  ByteBuffer cells_;                  // slots_.size() * cells_size()
  std::vector<std::string> strings_;  // slots_.size() * num_strings()
  std::vector<size_t> coldest_;       // EvictColdest scratch
  size_t mask_;
  uint64_t tick_ = 0;  // advances once per Upsert; orders slot coldness
  // Telemetry counters: written by the owning LFTA thread only, readable
  // from any thread via the engine's stats snapshots.
  telemetry::Counter occupied_;
  telemetry::Counter updates_;
  telemetry::Counter evictions_;
  telemetry::Counter shed_evictions_;
};

template <typename Emit>
void DirectMappedAggTable::Upsert(ByteSpan key, const uint8_t* const* args,
                                  uint64_t weight, Emit&& emit) {
  ++updates_;
  const size_t s = GroupLayout::Hash(key) & mask_;
  if (slots_[s].last_touch == 0) {
    ++occupied_;
  } else if (FoldIfSame(s, key, args, weight)) {
    return;
  } else {
    // Collision: eject the incumbent as a partial aggregate (§3).
    ++evictions_;
    emit(Group(s));
  }
  Claim(s, key, args, weight);
}

template <typename Emit>
void DirectMappedAggTable::DrainAll(Emit&& emit) {
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].last_touch == 0) continue;
    emit(Group(s));
    slots_[s].last_touch = 0;
  }
  occupied_.Set(0);
}

template <typename Emit>
void DirectMappedAggTable::EvictColdest(size_t target, Emit&& emit) {
  if (occupied() <= target) return;
  const size_t to_evict = occupied() - target;
  // Order the used slots by last touch and evict the oldest. The scan is
  // O(slots); callers amortize it by evicting a chunk below the cap.
  coldest_.clear();
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].last_touch != 0) coldest_.push_back(s);
  }
  std::partial_sort(coldest_.begin(), coldest_.begin() + to_evict,
                    coldest_.end(), [this](size_t a, size_t b) {
                      return slots_[a].last_touch < slots_[b].last_touch;
                    });
  for (size_t i = 0; i < to_evict; ++i) {
    emit(Group(coldest_[i]));
    slots_[coldest_[i]].last_touch = 0;
    ++evictions_;
    ++shed_evictions_;
    --occupied_;
  }
}

/// LFTA-side pre-aggregation node: runs the WHERE, evaluates group keys
/// and aggregate arguments, folds into the direct-mapped table, emits
/// ejected partials immediately, and drains the table when the ordered key
/// advances (epoch close) — feeding the HFTA superaggregate. It sits
/// directly over a packet source, which feeds it each message in place
/// (rts::FedNode); it reads no ring.
class LftaAggregateNode : public rts::QueryNode, public rts::FedNode {
 public:
  using Spec = OrderedAggregateNode::Spec;

  /// `shed` (optional) is the engine's shared shedding state: the node
  /// reads the sampling weight, epoch coarsening factor, and table cap from
  /// it on the fly. Reads are relaxed atomics; the node runs on the same
  /// thread as the controller that writes them (the inject thread).
  LftaAggregateNode(Spec spec, int log2_slots, rts::StreamRegistry* registry,
                    rts::ParamBlock params,
                    const rts::ShedState* shed = nullptr);

  size_t Poll(size_t budget) override;
  void Feed(const rts::MessageMeta& message, ByteSpan payload) override;
  void Flush() override;
  void RegisterTelemetry(telemetry::Registry* metrics) const override;

  const DirectMappedAggTable& table() const { return table_; }

 private:
  void ProcessTuple(ByteSpan payload, uint32_t weight);
  void ProcessPunctuation(ByteSpan payload);
  void EmitPartial(const GroupRef& group);
  /// Moves the epoch to the packed ordered-key value `ordered` when it
  /// exceeds the current one. `drain_first` also drains when no epoch was
  /// set yet (a punctuation does, a first tuple does not).
  void AdvanceEpoch(const uint8_t* ordered, bool drain_first);
  /// Drains every group and punctuates the output below the new epoch
  /// (packed), reduced by the band.
  void DrainEpoch(const uint8_t* new_epoch);
  /// Applies the L3 occupancy cap, force-evicting coldest groups.
  void EnforceTableCap();

  Spec spec_;
  rts::ParamBlock params_;
  rts::TupleCodec input_codec_;
  rts::BatchWriter writer_;
  expr::Evaluator vm_;
  GroupLayout layout_;
  GroupInput grouping_;
  DirectMappedAggTable table_;
  std::optional<rts::PackedBound> epoch_;  // empty: none yet
  const rts::ShedState* shed_;
  uint32_t epoch_advances_ = 0;  // ordered-key advances since last drain
};

}  // namespace gigascope::ops

#endif  // GIGASCOPE_OPS_LFTA_AGG_H_
