// Microbenchmark: ring-channel push/pop — the shared-memory hop between
// query nodes — single-threaded, and the two-thread producer/consumer
// handoff that the threaded engine rides on, one message per slot (a
// batch of one). The seed's coarse-mutex std::deque channel is kept here
// as the baseline the lock-free SPSC ring replaced.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

#include "rts/ring.h"

namespace {

using gigascope::rts::MessageMeta;
using gigascope::rts::RingChannel;
using gigascope::rts::StreamBatch;

/// A batch of one message with `payload_bytes` of packed bytes.
StreamBatch OneMessage(size_t payload_bytes) {
  StreamBatch batch;
  batch.Append(MessageMeta{}, payload_bytes);
  return batch;
}

/// The seed implementation (coarse mutex around a deque), preserved as the
/// benchmark baseline.
class MutexRingChannel {
 public:
  explicit MutexRingChannel(size_t capacity) : capacity_(capacity) {}

  bool TryPush(StreamBatch&& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(message));
    ++pushed_;
    high_water_ = std::max(high_water_, queue_.size());
    return true;
  }

  bool TryPop(StreamBatch* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    ++popped_;
    return true;
  }

 private:
  const size_t capacity_;
  std::mutex mutex_;
  std::deque<StreamBatch> queue_;
  uint64_t pushed_ = 0;
  uint64_t popped_ = 0;
  size_t high_water_ = 0;
};

template <class Channel>
void BM_PushPop(benchmark::State& state) {
  Channel channel(1024);
  const StreamBatch message = OneMessage(static_cast<size_t>(state.range(0)));
  StreamBatch out;
  for (auto _ : state) {
    StreamBatch copy = message;
    channel.TryPush(std::move(copy));
    channel.TryPop(&out);
    benchmark::DoNotOptimize(out.arena().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PushPop<RingChannel>)->Arg(24)->Arg(256)->Arg(1500);
BENCHMARK(BM_PushPop<MutexRingChannel>)->Arg(24)->Arg(256)->Arg(1500);

template <class Channel>
void BM_BurstThenDrain(benchmark::State& state) {
  Channel channel(4096);
  const StreamBatch message = OneMessage(64);
  StreamBatch out;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      StreamBatch copy = message;
      channel.TryPush(std::move(copy));
    }
    while (channel.TryPop(&out)) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_BurstThenDrain<RingChannel>);
BENCHMARK(BM_BurstThenDrain<MutexRingChannel>);

/// The case the threaded engine cares about: one producer thread, one
/// consumer thread, backpressure instead of drops. Each benchmark
/// iteration hands one batch across the channel.
template <class Channel>
void BM_TwoThreadHandoff(benchmark::State& state) {
  constexpr uint64_t kBatch = 4096;
  Channel channel(1024);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> target{0};

  std::thread producer([&] {
    const StreamBatch message = OneMessage(64);
    uint64_t produced = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (produced < target.load(std::memory_order_acquire)) {
        StreamBatch copy = message;
        if (channel.TryPush(std::move(copy))) {
          ++produced;
        }
      } else {
        std::this_thread::yield();
      }
    }
  });

  StreamBatch out;
  uint64_t popped = 0;
  for (auto _ : state) {
    target.fetch_add(kBatch, std::memory_order_release);
    const uint64_t goal = popped + kBatch;
    while (popped < goal) {
      if (channel.TryPop(&out)) {
        ++popped;
      } else {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_release);
  producer.join();
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TwoThreadHandoff<RingChannel>)->UseRealTime();
BENCHMARK(BM_TwoThreadHandoff<MutexRingChannel>)->UseRealTime();

}  // namespace
