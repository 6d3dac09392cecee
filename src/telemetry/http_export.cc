#include "telemetry/http_export.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>

#include "telemetry/metric_names.h"

namespace gigascope::telemetry {

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Everything else
/// becomes '_'.
std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Label values escape backslash, double-quote, and newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Counter vs gauge for the `# TYPE` line: histogram-derived stats and
/// instantaneous readings (open_groups, lfta_occupied, shed_level/rate,
/// last_punct_sec, ring sizes) are gauges, cumulative totals are counters.
const char* PrometheusType(const std::string& metric) {
  if (EndsWith(metric, metric::kP50Suffix) ||
      EndsWith(metric, metric::kP90Suffix) ||
      EndsWith(metric, metric::kP99Suffix) ||
      EndsWith(metric, metric::kMaxSuffix) ||
      EndsWith(metric, metric::kRingSizeSuffix) ||
      metric == metric::kOpenGroups || metric == metric::kLftaOccupied ||
      metric == metric::kShedLevel || metric == metric::kShedRate ||
      metric == metric::kLastPunctSec) {
    return "gauge";
  }
  return "counter";
}

void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away; nothing to do for a scrape endpoint
    }
    off += static_cast<size_t>(n);
  }
}

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n"
                "\r\n",
                code, reason, content_type, body.size());
  return std::string(header) + body;
}

}  // namespace

std::string FormatPrometheus(const std::vector<MetricSample>& samples) {
  // Group samples by (sanitized) family name: the exposition format wants
  // one `# TYPE` line with every sample of the family directly under it.
  std::map<std::string, std::vector<const MetricSample*>> families;
  for (const MetricSample& sample : samples) {
    families["gigascope_" + SanitizeMetricName(sample.metric)].push_back(
        &sample);
  }
  std::string out;
  char buf[64];
  for (const auto& [family, members] : families) {
    out += "# TYPE " + family + " " + PrometheusType(members[0]->metric) +
           "\n";
    for (const MetricSample* sample : members) {
      out += family;
      out += "{node=\"" + EscapeLabelValue(sample->entity) + "\",proc=\"" +
             EscapeLabelValue(sample->proc) + "\"}";
      std::snprintf(buf, sizeof(buf), " %llu\n",
                    static_cast<unsigned long long>(sample->value));
      out += buf;
    }
  }
  return out;
}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

Status MetricsHttpServer::Start(uint16_t port, Handlers handlers) {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("MetricsHttpServer already started");
  }
  handlers_ = std::move(handlers);
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never exposed beyond lo
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string msg = std::string("bind 127.0.0.1:") +
                            std::to_string(port) + ": " +
                            std::strerror(errno);
    close(fd);
    return Status::Internal(msg);
  }
  if (listen(fd, 8) < 0) {
    const std::string msg = std::string("listen: ") + std::strerror(errno);
    close(fd);
    return Status::Internal(msg);
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Serve(); });
  return Status::Ok();
}

void MetricsHttpServer::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void MetricsHttpServer::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stop_
    const int conn = accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // Read until the end of the request head. A scrape request is tiny;
    // cap at 8 KiB and give a slow client one second total.
    std::string request;
    char buf[1024];
    pollfd cpfd{conn, POLLIN, 0};
    for (int rounds = 0; rounds < 10; ++rounds) {
      if (poll(&cpfd, 1, 100) <= 0) continue;
      const ssize_t n = read(conn, buf, sizeof(buf));
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
      if (request.find("\r\n\r\n") != std::string::npos ||
          request.size() > 8192) {
        break;
      }
    }
    // "GET <path> HTTP/1.x" — anything else is a 400/404/405.
    std::string method, path;
    const size_t sp1 = request.find(' ');
    if (sp1 != std::string::npos) {
      method = request.substr(0, sp1);
      const size_t sp2 = request.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) {
        path = request.substr(sp1 + 1, sp2 - sp1 - 1);
      }
    }
    const size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    std::string response;
    if (method != "GET") {
      response = HttpResponse(405, "Method Not Allowed", "text/plain",
                              "only GET is supported\n");
    } else if (path == "/metrics" && handlers_.metrics) {
      response = HttpResponse(200, "OK",
                              "text/plain; version=0.0.4; charset=utf-8",
                              handlers_.metrics());
    } else if (path == "/analyze" && handlers_.analyze) {
      response = HttpResponse(200, "OK", "application/json",
                              handlers_.analyze());
    } else {
      response = HttpResponse(404, "Not Found", "text/plain",
                              "try /metrics or /analyze\n");
    }
    WriteAll(conn, response);
    close(conn);
  }
}

}  // namespace gigascope::telemetry
