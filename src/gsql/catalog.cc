#include "gsql/catalog.h"

namespace gigascope::gsql {

Status Catalog::AddSchema(StreamSchema schema) {
  GS_RETURN_IF_ERROR(schema.Validate());
  auto [it, inserted] = schemas_.emplace(schema.name(), std::move(schema));
  if (!inserted) {
    return Status::AlreadyExists("schema '" + it->first +
                                 "' already registered");
  }
  return Status::Ok();
}

void Catalog::PutStreamSchema(StreamSchema schema) {
  schemas_[schema.name()] = std::move(schema);
}

Result<StreamSchema> Catalog::GetSchema(const std::string& name) const {
  auto it = schemas_.find(name);
  if (it == schemas_.end()) {
    return Status::NotFound("no schema named '" + name + "'");
  }
  return it->second;
}

bool Catalog::HasSchema(const std::string& name) const {
  return schemas_.count(name) > 0;
}

void Catalog::AddInterface(const std::string& name) {
  if (interfaces_.empty()) default_interface_ = name;
  interfaces_[name] = true;
}

bool Catalog::HasInterface(const std::string& name) const {
  return interfaces_.count(name) > 0;
}

StreamSchema Catalog::BuiltinPacketSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"time", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"timestamp", DataType::kUint, OrderSpec::Strict()});
  fields.push_back({"srcIP", DataType::kIp, OrderSpec::None()});
  fields.push_back({"destIP", DataType::kIp, OrderSpec::None()});
  fields.push_back({"srcPort", DataType::kUint, OrderSpec::None()});
  fields.push_back({"destPort", DataType::kUint, OrderSpec::None()});
  fields.push_back({"protocol", DataType::kUint, OrderSpec::None()});
  fields.push_back({"ipVersion", DataType::kUint, OrderSpec::None()});
  fields.push_back({"len", DataType::kUint, OrderSpec::None()});
  fields.push_back({"tcpFlags", DataType::kUint, OrderSpec::None()});
  fields.push_back({"tcpSeq", DataType::kUint, OrderSpec::None()});
  fields.push_back({"ipId", DataType::kUint, OrderSpec::None()});
  fields.push_back({"fragOffset", DataType::kUint, OrderSpec::None()});
  fields.push_back({"moreFrags", DataType::kUint, OrderSpec::None()});
  fields.push_back({"payload", DataType::kString, OrderSpec::None()});
  fields.push_back({"ipPayload", DataType::kString, OrderSpec::None()});
  return StreamSchema("PKT", StreamKind::kProtocol, std::move(fields));
}

StreamSchema Catalog::BuiltinNetflowSchema() {
  std::vector<FieldDef> fields;
  fields.push_back({"endTime", DataType::kUint, OrderSpec::Increasing()});
  // Netflow records are dumped every 30 seconds; the start time is always
  // within 30 seconds of the high-water mark (§2.1).
  fields.push_back({"startTime", DataType::kUint, OrderSpec::Banded(30)});
  OrderSpec in_group;
  in_group.kind = OrderKind::kIncreasingInGroup;
  in_group.group_fields = {"srcIP", "destIP", "srcPort", "destPort",
                           "protocol"};
  fields.push_back({"flowStart", DataType::kUint, in_group});
  fields.push_back({"srcIP", DataType::kIp, OrderSpec::None()});
  fields.push_back({"destIP", DataType::kIp, OrderSpec::None()});
  fields.push_back({"srcPort", DataType::kUint, OrderSpec::None()});
  fields.push_back({"destPort", DataType::kUint, OrderSpec::None()});
  fields.push_back({"protocol", DataType::kUint, OrderSpec::None()});
  fields.push_back({"packets", DataType::kUint, OrderSpec::None()});
  fields.push_back({"bytes", DataType::kUint, OrderSpec::None()});
  return StreamSchema("NETFLOW", StreamKind::kProtocol, std::move(fields));
}

StreamSchema Catalog::BuiltinStatsSchema() {
  std::vector<FieldDef> fields;
  // Non-strict: every metric row of one snapshot carries the same time.
  fields.push_back({"time", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"ts", DataType::kUint, OrderSpec::Increasing()});
  fields.push_back({"node", DataType::kString, OrderSpec::None()});
  fields.push_back({"metric", DataType::kString, OrderSpec::None()});
  fields.push_back({"value", DataType::kUint, OrderSpec::None()});
  // Appended last so positional consumers of the original five fields
  // keep working; "rts" is the parent process, workers are "w0", "w1"...
  fields.push_back({"proc", DataType::kString, OrderSpec::None()});
  return StreamSchema(StatsStreamName(), StreamKind::kStream,
                      std::move(fields));
}

const char* Catalog::StatsStreamName() { return "gs_stats"; }

}  // namespace gigascope::gsql
