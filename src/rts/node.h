#ifndef GIGASCOPE_RTS_NODE_H_
#define GIGASCOPE_RTS_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/type.h"
#include "rts/registry.h"
#include "rts/tuple.h"
#include "telemetry/histogram.h"
#include "telemetry/registry.h"
#include "telemetry/tracer.h"

namespace gigascope::rts {

/// The mutable query-parameter block shared between the engine (which
/// changes parameters on the fly, §3) and the nodes evaluating expressions
/// against it.
using ParamBlock = std::shared_ptr<std::vector<expr::Value>>;

/// A query node: one operator instance in the running query network.
///
/// In the paper query nodes are processes; here they are objects driven by
/// the engine's pump loop (or by caller-owned threads). Each node reads
/// from its input subscriptions and publishes to its output stream via the
/// registry.
///
/// Every node reads each input message through one bracket
/// (ReadMessage, below), from a ring (ReadInput, ReadBatch) or handed
/// over in place by its producer (ReadFed), and publishes through a
/// BatchWriter.
class QueryNode {
 public:
  explicit QueryNode(std::string name) : name_(std::move(name)) {}
  virtual ~QueryNode() = default;
  QueryNode(const QueryNode&) = delete;
  QueryNode& operator=(const QueryNode&) = delete;

  const std::string& name() const { return name_; }

  /// Processes up to `budget` pending input messages; returns how many were
  /// consumed (0 = idle). A fed node (FedNode) reads its messages as they
  /// are produced, so its Poll only flushes its output and returns 0.
  virtual size_t Poll(size_t budget) = 0;

  /// Poll + busy accounting: counts the polls that did work and feeds the
  /// poll-duration and per-tuple latency histograms (two clock reads per
  /// busy poll, one per idle poll). All pump loops go through this; the
  /// owning thread is the single writer.
  size_t PollCounted(size_t budget);

  /// End-of-stream: emits any buffered state (open aggregate groups, join
  /// buffers). Idempotent.
  virtual void Flush() {}

  /// Tuples this node has emitted.
  uint64_t tuples_out() const { return tuples_out_.value(); }
  /// Tuples this node has consumed.
  uint64_t tuples_in() const { return tuples_in_.value(); }
  /// Input tuples that failed framing or evaluation (runtime errors) and
  /// were dropped.
  uint64_t eval_errors() const { return eval_errors_.value(); }
  /// Polls that consumed at least one message (busy-time proxy); 0 on a
  /// fed node.
  uint64_t busy_polls() const { return busy_polls_.value(); }
  /// Sampled (traced) messages that reached this node with no tracer
  /// attached — their span is lost here. Nonzero on worker-process nodes:
  /// the trace context crosses the shm ring but the worker records no
  /// spans, so the truncation is counted instead of silent.
  uint64_t trace_truncated() const { return trace_truncated_.value(); }

  /// Registers this node's counters with the telemetry registry under the
  /// node's name: the base tuples_in/tuples_out/eval_errors, plus the
  /// pushed/popped/dropped/size/high-water counters of every input channel
  /// (prefix "ring", or "ring<i>" with several inputs). Subclasses override
  /// to add operator-specific metrics and must call the base version.
  /// Counters stay readable from any thread while the node is polled; the
  /// registry entries must not outlive the node.
  virtual void RegisterTelemetry(telemetry::Registry* metrics) const;

  /// The input channels this node consumes (registered by subclasses at
  /// construction). The threaded engine uses these to wire consumer
  /// wake-ups and to honor the single-consumer rule: a node — and thus
  /// every channel listed here — is polled by exactly one thread. Process
  /// mode relies on every channel the node reads being listed: only these
  /// are shared with the node's worker process (Engine::StartProcesses).
  const std::vector<Subscription>& inputs() const { return inputs_; }

  /// Attaches the engine's tracer and this node's viewer track. Setup only
  /// (before the node is polled); a null tracer disables span recording.
  void SetTracer(telemetry::Tracer* tracer, uint32_t track_id) {
    tracer_ = tracer;
    track_id_ = track_id;
  }

  /// Marks this node as a query's terminal (public-output) node: tuples it
  /// emits while processing a traced message record the inject→emit
  /// latency. Setup only.
  void set_terminal(bool terminal) { terminal_ = terminal; }
  bool terminal() const { return terminal_; }

  /// Inject→emit latency of traced tuples; populated only on terminal
  /// nodes while a tracer with sampling is attached.
  const telemetry::Histogram& e2e_histogram() const { return e2e_ns_; }
  /// Busy-poll duration / per-message latency distributions (wall ns). A
  /// fed node has no busy poll; its per-message latency is one fed
  /// message in every kFedTimingPeriod, timed alone.
  const telemetry::Histogram& poll_histogram() const { return poll_ns_; }
  const telemetry::Histogram& tuple_histogram() const { return tuple_ns_; }

 protected:
  /// Subclasses call this once per input subscription.
  void RegisterInput(Subscription input) {
    inputs_.push_back(std::move(input));
  }

  // -- The input loop, on the node's owning thread. ------------------------
  // The templates are inlined into the operator's Poll or Feed: no virtual
  // call and no std::function per message. Each message they read goes
  // through one bracket, ReadMessage (private, below).

  /// Fed messages per one timed into tuple_ns (ReadFed): two clock reads
  /// per 64 messages.
  static constexpr uint32_t kFedTimingPeriod = 64;

  /// Reads one message its producer hands over in place (FedNode::Feed)
  /// through ReadMessage, and times one in every kFedTimingPeriod into
  /// tuple_ns: a fed node's Poll reads nothing, so this is where its
  /// per-message cost shows.
  template <typename OnTuple, typename OnPunctuation>
  void ReadFed(const MessageMeta& message, ByteSpan payload,
               const TupleCodec& codec, OnTuple&& on_tuple,
               OnPunctuation&& on_punctuation) {
    if (++fed_ < kFedTimingPeriod) [[likely]] {
      ReadMessage(message, payload, codec, on_tuple, on_punctuation);
      return;
    }
    fed_ = 0;
    const int64_t start_ns = telemetry::MonotonicNowNs();
    ReadMessage(message, payload, codec, on_tuple, on_punctuation);
    const int64_t dur_ns = telemetry::MonotonicNowNs() - start_ns;
    tuple_ns_.Record(static_cast<uint64_t>(dur_ns > 0 ? dur_ns : 0));
  }

  /// Pops one batch from `input` and reads every message of it. Returns
  /// how many it read (0: the ring was empty).
  template <typename OnTuple, typename OnPunctuation>
  size_t ReadBatch(const Subscription& input, const TupleCodec& codec,
                   OnTuple&& on_tuple, OnPunctuation&& on_punctuation) {
    if (!input->TryPop(&batch_)) return 0;
    for (const BatchItem& item : batch_.items()) {
      ReadMessage(item, batch_.payload(item), codec, on_tuple,
                  on_punctuation);
    }
    return batch_.size();
  }

  /// Reads whole batches from `input` until `budget` messages are read;
  /// the last batch may overshoot it (a batch is never split across
  /// polls). Returns how many it read.
  template <typename OnTuple, typename OnPunctuation>
  size_t ReadInput(const Subscription& input, const TupleCodec& codec,
                   size_t budget, OnTuple&& on_tuple,
                   OnPunctuation&& on_punctuation) {
    size_t read = 0;
    while (read < budget) {
      const size_t batch = ReadBatch(input, codec, on_tuple, on_punctuation);
      if (batch == 0) break;
      read += batch;
    }
    return read;
  }

  // -- Trace hooks, called from the polling thread only. -------------------
  // Operators stamp every output derived from the active message with
  // StampOutput, which propagates the trace context downstream. Outputs
  // emitted while a traced message is active inherit its context even when
  // triggered indirectly (a group close, a join match against buffered
  // state) — that convention is what makes the terminal e2e histogram
  // measure inject→group-close latency. No-ops (two predictable branches)
  // when untraced.

  /// Horvitz-Thompson weight of the message being processed. Row-passthrough
  /// operators (select/project, merge) copy it onto each output derived 1:1
  /// from the input so sampling weights survive to a downstream aggregate.
  /// Aggregates must NOT stamp it on their own emissions — group totals and
  /// ejected partials are already scaled.
  uint32_t active_weight() const { return active_weight_; }

  /// Propagates the active trace context onto an outgoing message; on a
  /// terminal node, additionally records the inject→emit latency and an
  /// emit instant for traced tuples.
  void StampOutput(MessageMeta* out) {
    StampOutputWithContext(out, active_trace_id_, active_trace_ns_);
  }

  /// Same, with an explicit context — for operators that buffer tuples
  /// (merge) and emit them under a different active message than the one
  /// that delivered them.
  void StampOutputWithContext(MessageMeta* out, uint64_t trace_id,
                              int64_t trace_ns) {
    if (trace_id == 0 || tracer_ == nullptr) return;
    out->trace_id = trace_id;
    out->trace_ns = trace_ns;
    if (terminal_ && out->kind == MessageKind::kTuple) {
      const int64_t now = tracer_->NowNs();
      if (now > trace_ns) {
        e2e_ns_.Record(static_cast<uint64_t>(now - trace_ns));
      }
      tracer_->RecordInstant(name_ + ":emit", track_id_, trace_id, now);
    }
  }

  // Single-writer (the polling thread); readable from any thread, which is
  // what makes Engine::GetNodeStats safe while workers are pumping.
  telemetry::Counter tuples_in_;
  telemetry::Counter tuples_out_;
  telemetry::Counter eval_errors_;
  telemetry::Counter busy_polls_;
  telemetry::Counter trace_truncated_;

 private:
  /// The one per-message bracket. The message is bracketed for the tracer
  /// (a span when traced, trace_truncated with no tracer attached). A
  /// tuple counts in tuples_in; one that `codec` does not frame counts in
  /// eval_errors and goes no further. `on_tuple(const Message&, ByteSpan)`
  /// receives a framed tuple and `on_punctuation(ByteSpan)` a punctuation
  /// while the message is the active one, so outputs stamped with
  /// StampOutput inherit its trace context and weight.
  template <typename Message, typename OnTuple, typename OnPunctuation>
  void ReadMessage(const Message& message, ByteSpan payload,
                   const TupleCodec& codec, OnTuple&& on_tuple,
                   OnPunctuation&& on_punctuation) {
    BeginMessage(message);
    if (message.kind != MessageKind::kTuple) {
      on_punctuation(payload);
    } else {
      ++tuples_in_;
      if (codec.Framed(payload)) {
        on_tuple(message, payload);
      } else {
        ++eval_errors_;  // a malformed tuple goes no further
      }
    }
    EndMessage();
  }

  /// Starts the span for a dequeued message, if it carries a trace.
  void BeginMessage(const MessageMeta& message) {
    active_trace_id_ = message.trace_id;
    active_weight_ = message.weight;
    if (tracer_ == nullptr) {
      if (message.trace_id != 0) ++trace_truncated_;
      return;
    }
    if (message.trace_id == 0) return;
    active_trace_ns_ = message.trace_ns;
    span_start_ns_ = tracer_->NowNs();
  }

  /// Ends the active span (records it) and clears the trace context.
  void EndMessage() {
    if (tracer_ != nullptr && active_trace_id_ != 0) {
      tracer_->RecordSpan(name_, track_id_, active_trace_id_, span_start_ns_,
                          tracer_->NowNs());
    }
    active_trace_id_ = 0;
    active_weight_ = 1;
  }

  std::string name_;
  std::vector<Subscription> inputs_;
  StreamBatch batch_;  // the input batch being read, reused across polls

  // Latency histograms, single-writer like the counters above.
  telemetry::Histogram poll_ns_;
  telemetry::Histogram tuple_ns_;
  telemetry::Histogram e2e_ns_;

  telemetry::Tracer* tracer_ = nullptr;  // engine-owned, outlives the node
  uint32_t track_id_ = 0;
  bool terminal_ = false;
  // Trace context of the message currently being processed.
  uint64_t active_trace_id_ = 0;
  int64_t active_trace_ns_ = 0;
  int64_t span_start_ns_ = 0;
  // Sampling weight of the message currently being processed.
  uint32_t active_weight_ = 1;
  // Fed messages since the last one ReadFed timed.
  uint32_t fed_ = 0;
};

/// A node its producer feeds in place instead of through a ring: a packet
/// source hands each tuple it interprets, and each punctuation it builds,
/// to the LFTAs over its stream (core::PacketSource::AddFedNode) on the
/// inject thread, which owns them. A fed node subscribes to no ring, so it
/// lists no inputs and registers no ring metrics.
class FedNode {
 public:
  /// Reads one message, tuple or punctuation, with its packed bytes.
  virtual void Feed(const MessageMeta& message, ByteSpan payload) = 0;

 protected:
  ~FedNode() = default;
};

/// Registers one channel's ring metrics under `entity`, named `prefix`
/// plus the pushed/popped/dropped/size/high-water suffixes and the
/// occupancy and batch-size histograms (telemetry/metric_names.h).
void RegisterRingTelemetry(telemetry::Registry* metrics,
                           const std::string& entity,
                           const std::string& prefix,
                           const Subscription& channel);

}  // namespace gigascope::rts

#endif  // GIGASCOPE_RTS_NODE_H_
