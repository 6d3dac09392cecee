// Microbenchmark: what tuple batching buys on the ring hop. One ring slot
// now carries a whole StreamBatch, so the per-message cost of the handoff
// — the atomic head/tail dance, the waker check, the counter updates —
// amortizes over the batch. Sweeping the batch size shows the curve the
// engine's batch_max_size default (64) sits on; size 1 is the old
// per-tuple data plane.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "rts/ring.h"

namespace {

using gigascope::rts::RingChannel;
using gigascope::rts::MessageMeta;
using gigascope::rts::StreamBatch;

StreamBatch MakeBatch(size_t messages, size_t payload_bytes) {
  StreamBatch batch;
  for (size_t i = 0; i < messages; ++i) {
    batch.Append(MessageMeta{}, payload_bytes);
  }
  return batch;
}

/// Steady-state single-threaded push/pop: the popped batch is pushed right
/// back, so after warmup no allocation happens and the loop isolates the
/// per-slot transport cost. Reported items are messages, not slots —
/// items/sec across batch sizes is the amortization curve.
void BM_BatchPushPop(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  RingChannel channel(64);
  StreamBatch batch = MakeBatch(batch_size, 64);
  for (auto _ : state) {
    channel.TryPush(std::move(batch));
    channel.TryPop(&batch);
    benchmark::DoNotOptimize(batch.items().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_BatchPushPop)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

/// Two threads, backpressure, a fixed number of messages per iteration
/// carried in batches of the swept size: the cross-core handoff the
/// threaded engine rides on. This is where batching pays most — every slot
/// push/pop is a cache-line conversation between cores.
void BM_TwoThreadBatchHandoff(benchmark::State& state) {
  constexpr uint64_t kMessagesPerIteration = 4096;
  const size_t batch_size = static_cast<size_t>(state.range(0));
  RingChannel channel(256);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> target{0};

  std::thread producer([&] {
    StreamBatch prototype = MakeBatch(batch_size, 64);
    uint64_t produced = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (produced < target.load(std::memory_order_acquire)) {
        StreamBatch batch = prototype;  // producer materializes each batch
        if (channel.TryPush(std::move(batch))) {
          produced += batch_size;
        }
      } else {
        std::this_thread::yield();
      }
    }
  });

  StreamBatch out;
  uint64_t popped = 0;
  for (auto _ : state) {
    target.fetch_add(kMessagesPerIteration, std::memory_order_release);
    const uint64_t goal = popped + kMessagesPerIteration;
    while (popped < goal) {
      if (channel.TryPop(&out)) {
        popped += out.size();
      } else {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_release);
  producer.join();
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kMessagesPerIteration));
}
BENCHMARK(BM_TwoThreadBatchHandoff)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime();

}  // namespace
