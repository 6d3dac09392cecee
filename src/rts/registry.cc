#include "rts/registry.h"

namespace gigascope::rts {

Status StreamRegistry::DeclareStream(const gsql::StreamSchema& schema) {
  GS_RETURN_IF_ERROR(schema.Validate());
  auto it = streams_.find(schema.name());
  if (it != streams_.end()) {
    // Re-declaration keeps existing subscribers (query recompilation).
    it->second.schema = schema;
    return Status::Ok();
  }
  StreamEntry entry;
  entry.schema = schema;
  streams_.emplace(schema.name(), std::move(entry));
  return Status::Ok();
}

bool StreamRegistry::HasStream(const std::string& name) const {
  return streams_.count(name) > 0;
}

Result<gsql::StreamSchema> StreamRegistry::GetSchema(
    const std::string& name) const {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("no stream named '" + name + "' in the registry");
  }
  return it->second.schema;
}

Result<Subscription> StreamRegistry::Subscribe(const std::string& name,
                                               size_t capacity) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("cannot subscribe: no stream named '" + name +
                            "'");
  }
  auto channel = std::make_shared<RingChannel>(capacity);
  it->second.subscribers.push_back(channel);
  return channel;
}

size_t StreamRegistry::PublishBatch(const std::string& name,
                                    StreamBatch&& batch, bool* parked) {
  auto it = streams_.find(name);
  if (it == streams_.end() || batch.empty()) return 0;
  auto& subscribers = it->second.subscribers;
  if (subscribers.empty()) return 0;
  size_t accepted = 0;
  bool any_parked = false;
  const auto push = [&](const Subscription& subscriber, StreamBatch&& b) {
    if (subscriber->PushOrDrop(std::move(b))) {
      ++accepted;  // a push that fits leaves nothing parked
    } else if (subscriber->has_parked()) {
      any_parked = true;
    }
  };
  for (size_t s = 0; s + 1 < subscribers.size(); ++s) {
    push(subscribers[s], StreamBatch(batch));
  }
  push(subscribers.back(), std::move(batch));
  if (parked != nullptr) *parked = any_parked;
  return accepted;
}

bool StreamRegistry::FlushParkedPunctuations(const std::string& name) {
  auto it = streams_.find(name);
  if (it == streams_.end()) return false;
  bool parked = false;
  for (const Subscription& subscriber : it->second.subscribers) {
    if (subscriber->has_parked() && !subscriber->FlushParked()) {
      parked = true;
    }
  }
  return parked;
}

std::vector<Subscription> StreamRegistry::Subscribers(
    const std::string& name) const {
  auto it = streams_.find(name);
  if (it == streams_.end()) return {};
  return it->second.subscribers;
}

const std::vector<Subscription>* StreamRegistry::SubscriberList(
    const std::string& name) const {
  auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : &it->second.subscribers;
}

std::vector<std::string> StreamRegistry::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, entry] : streams_) names.push_back(name);
  return names;
}

uint64_t StreamRegistry::Total(RingCounter counter,
                               const std::string& stream) const {
  uint64_t total = 0;
  for (const auto& [name, entry] : streams_) {
    if (!stream.empty() && name != stream) continue;
    for (const Subscription& subscriber : entry.subscribers) {
      total += (subscriber.get()->*counter)();
    }
  }
  return total;
}

double StreamRegistry::MaxOccupancyFraction() const {
  double max_fraction = 0;
  for (const auto& [name, entry] : streams_) {
    for (const Subscription& subscriber : entry.subscribers) {
      if (subscriber->capacity() == 0) continue;
      double fraction = static_cast<double>(subscriber->size()) /
                        static_cast<double>(subscriber->capacity());
      if (fraction > max_fraction) max_fraction = fraction;
    }
  }
  return max_fraction;
}

}  // namespace gigascope::rts
