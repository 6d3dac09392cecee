#ifndef GIGASCOPE_TELEMETRY_COUNTER_H_
#define GIGASCOPE_TELEMETRY_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace gigascope::telemetry {

/// Adds `n` to a cell that has one writer: a relaxed load and a relaxed
/// store, no read-modify-write. Counter (and so Histogram, whose cells are
/// Counters) and the ring counters all count through it.
inline void SingleWriterAdd(std::atomic<uint64_t>* cell, uint64_t n) {
  cell->store(cell->load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
}

/// A single-writer statistics counter (per Prasaad et al.'s shared-memory
/// scaling argument: per-core statistics want uncontended writes).
///
/// Exactly one thread may write (the owning node's polling thread, or a
/// ring's producer/consumer side); any thread may read. Because of the
/// single-writer contract the increment is a relaxed load + relaxed store —
/// no RMW, so the hot path pays one plain store and never a bus-locked
/// instruction. Readers see a possibly slightly stale but torn-free value.
///
/// The backing cell is indirect: it defaults to the counter's own storage,
/// but `BindCell` can redirect it — e.g. into a shared mapping
/// (Registry::BindCells), so a forked worker's updates land where the
/// parent process can read them. Binding is a control-plane operation: it
/// must happen while no thread is writing the counter.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Writer side. Single writer only — concurrent Add calls lose updates.
  void Add(uint64_t n) {
    SingleWriterAdd(cell_.load(std::memory_order_relaxed), n);
  }
  /// Subtracts `n` (unsigned wrap-around: adding -n).
  void Sub(uint64_t n) { Add(-n); }
  /// Writer side: gauge semantics (last value wins).
  void Set(uint64_t v) {
    cell_.load(std::memory_order_relaxed)
        ->store(v, std::memory_order_relaxed);
  }
  /// Writer side: monotone running maximum (high-water marks).
  void Max(uint64_t v) {
    std::atomic<uint64_t>* cell = cell_.load(std::memory_order_relaxed);
    if (v > cell->load(std::memory_order_relaxed)) {
      cell->store(v, std::memory_order_relaxed);
    }
  }

  Counter& operator++() {
    Add(1);
    return *this;
  }
  Counter& operator--() {
    Sub(1);
    return *this;
  }
  Counter& operator+=(uint64_t n) {
    Add(n);
    return *this;
  }

  /// Reader side: any thread.
  uint64_t value() const {
    return cell_.load(std::memory_order_relaxed)
        ->load(std::memory_order_relaxed);
  }

  /// Redirects the backing storage to `cell`, carrying the current value
  /// over so the reading is continuous. Control plane only: no concurrent
  /// writer may be running. `cell` must outlive the counter (or the next
  /// rebind). Const because registries hold `const Counter*` — binding
  /// moves storage, it does not change the observable value.
  void BindCell(std::atomic<uint64_t>* cell) const {
    cell->store(value(), std::memory_order_relaxed);
    cell_.store(cell, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> value_{0};
  mutable std::atomic<std::atomic<uint64_t>*> cell_{&value_};
};

}  // namespace gigascope::telemetry

#endif  // GIGASCOPE_TELEMETRY_COUNTER_H_
