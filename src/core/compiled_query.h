#ifndef GIGASCOPE_CORE_COMPILED_QUERY_H_
#define GIGASCOPE_CORE_COMPILED_QUERY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/packet_source.h"
#include "plan/splitter.h"
#include "rts/node.h"
#include "rts/shed_state.h"

namespace gigascope::core {

/// Everything needed to turn plan trees into live operator nodes.
struct InstantiationContext {
  rts::StreamRegistry* registry = nullptr;
  rts::ParamBlock params;
  /// Instantiation-time parameter values (for pass-by-handle arguments).
  std::vector<expr::Value> param_values;
  size_t channel_capacity = 4096;
  int lfta_hash_log2 = 12;
  /// Upper bound on messages per output batch for instantiated operators
  /// (EngineOptions::batch_max_size).
  size_t output_batch = 64;
  /// Aggregate nodes in this plan use the LFTA direct-mapped table.
  bool use_lfta_table = false;
  /// Shared shedding state read by LFTA-stage nodes (nullable = no shedding).
  const rts::ShedState* shed = nullptr;
  /// The packet sources by stream name, set while the LFTA plan is
  /// instantiated: an LFTA operator directly over a protocol source is fed
  /// by it in place (PacketSource::AddFedNode) and subscribes to no ring.
  /// Null: every operator reads its inputs through rings.
  const std::map<std::string, std::unique_ptr<PacketSource>>* sources =
      nullptr;
  /// Receives the created nodes, upstream first.
  std::vector<std::unique_ptr<rts::QueryNode>>* nodes = nullptr;
};

/// Recursively instantiates a plan: children first (each intermediate
/// operator publishes a uniquely named stream; the parent subscribes).
/// The root operator publishes under `output_name`.
///
/// Source nodes do not create operators: a Protocol source subscribes to
/// the engine's `interface.Protocol` packet stream (or, under an LFTA
/// operator, has that operator fed by the stream's source), a Stream
/// source to the named stream — both must already be declared in the
/// registry.
Status InstantiatePlan(const plan::PlanPtr& node,
                       const std::string& output_name,
                       InstantiationContext* ctx);

/// Stream name carrying interpreted packets of `protocol` captured on
/// `interface_name` (e.g. "eth0.PKT").
std::string ProtocolStreamName(const std::string& interface_name,
                               const std::string& protocol);

}  // namespace gigascope::core

#endif  // GIGASCOPE_CORE_COMPILED_QUERY_H_
