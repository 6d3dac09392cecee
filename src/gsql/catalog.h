#ifndef GIGASCOPE_GSQL_CATALOG_H_
#define GIGASCOPE_GSQL_CATALOG_H_

#include <map>
#include <string>

#include "common/status.h"
#include "gsql/schema.h"

namespace gigascope::gsql {

/// The schema catalog: Protocol definitions (packet interpretations) and
/// Stream schemas (query outputs), plus the known Interfaces that Protocols
/// can be bound to (§2.2's Interface.Protocol mechanism).
class Catalog {
 public:
  Catalog() = default;

  /// Registers a schema; fails on duplicate names.
  Status AddSchema(StreamSchema schema);

  /// Registers or replaces a Stream schema for a query output. Query
  /// outputs are re-registered when queries are recompiled.
  void PutStreamSchema(StreamSchema schema);

  /// Looks up a schema by name.
  Result<StreamSchema> GetSchema(const std::string& name) const;

  bool HasSchema(const std::string& name) const;

  /// Declares an interface name (e.g. "eth0"); idempotent.
  void AddInterface(const std::string& name);

  bool HasInterface(const std::string& name) const;

  /// Name of the default interface bound when a Protocol is referenced
  /// without qualification. Empty until an interface is added; the first
  /// added interface becomes the default.
  const std::string& default_interface() const { return default_interface_; }

  /// Installs the built-in PKT protocol schema (decoded packet fields) and
  /// returns its name. Fields:
  ///   time UINT INCREASING        -- 1-second granularity timer (§2.2)
  ///   timestamp UINT STRICTLY INCREASING  -- capture time, nanoseconds
  ///   srcIP IP, destIP IP, srcPort UINT, destPort UINT,
  ///   protocol UINT, ipVersion UINT, len UINT, tcpFlags UINT,
  ///   tcpSeq UINT, payload STRING
  static StreamSchema BuiltinPacketSchema();

  /// Installs a Netflow-record style protocol schema (per §2.1's example):
  ///   endTime UINT INCREASING, startTime UINT BANDED INCREASING(30),
  ///   srcIP IP, destIP IP, srcPort UINT, destPort UINT, protocol UINT,
  ///   packets UINT, bytes UINT
  static StreamSchema BuiltinNetflowSchema();

  /// The engine's self-telemetry stream (§4: the RTS keeps per-node
  /// statistics and Gigascope monitors itself with queries over them).
  /// One tuple per (entity, metric) per snapshot:
  ///   time UINT INCREASING   -- snapshot time, 1-second granularity
  ///   ts UINT INCREASING     -- snapshot time, nanoseconds
  ///   node STRING            -- owning entity (query node, source, channel)
  ///   metric STRING          -- counter name (tuples_in, ring_dropped, ...)
  ///   value UINT             -- the reading (worker metrics included)
  ///   proc STRING            -- owning process ("rts", or worker "w0"...)
  static StreamSchema BuiltinStatsSchema();

  /// Name of the built-in self-telemetry stream ("gs_stats").
  static const char* StatsStreamName();

 private:
  std::map<std::string, StreamSchema> schemas_;
  std::map<std::string, bool> interfaces_;
  std::string default_interface_;
};

}  // namespace gigascope::gsql

#endif  // GIGASCOPE_GSQL_CATALOG_H_
