#include "obs/telemetry/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace pbw::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    default: return "OK";
  }
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;  // peer went away; nothing useful to do
    sent += static_cast<std::size_t>(n);
  }
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

/// Case-insensitive header lookup in the raw header block; returns the
/// trimmed value or "" (headers end where `header_end` says).
std::string find_header(const std::string& request, std::size_t header_end,
                        const std::string& name) {
  const std::string haystack = lower(request.substr(0, header_end));
  const std::string needle = "\r\n" + lower(name) + ":";
  const std::size_t at = haystack.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  std::size_t end = haystack.find("\r\n", begin);
  if (end == std::string::npos) end = header_end;
  std::string value = request.substr(begin, end - begin);
  const auto first = value.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  const auto last = value.find_last_not_of(" \t");
  return value.substr(first, last - first + 1);
}

HttpResponse plain(int status, std::string body) {
  return HttpResponse{status, "text/plain; charset=utf-8", std::move(body)};
}

/// Metric label values come from the wire (the method) or from route
/// patterns; replace anything that could break Prometheus exposition or
/// explode cardinality with '_'.
std::string sanitize_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                      c == '/' || c == '.' || c == '*';
    out.push_back(keep ? c : '_');
  }
  return out;
}

const char* const kDropReasons[] = {"headers", "request_line", "body"};

Counter& dropped_counter(const std::string& reason) {
  return MetricsRegistry::global().counter("http.dropped{reason=\"" + reason +
                                           "\"}");
}

/// Decrements http.in_flight on every exit path, including a peer dying
/// mid-body.
struct InFlightGuard {
  Gauge& gauge;
  explicit InFlightGuard(Gauge& g) : gauge(g) { gauge.add(1.0); }
  ~InFlightGuard() { gauge.add(-1.0); }
};

}  // namespace

HttpServer::~HttpServer() { stop(); }

util::Json HttpServer::dropped() {
  util::Json doc = util::Json::object();
  for (const char* reason : kDropReasons) {
    doc[reason] = dropped_counter(reason).value();
  }
  return doc;
}

void HttpServer::route(std::string method, std::string pattern,
                       RouteHandler handler) {
  if (running()) {
    throw std::logic_error("HttpServer::route: server already started");
  }
  Route r;
  r.method = std::move(method);
  r.label = pattern;
  if (pattern.size() >= 2 && pattern.compare(pattern.size() - 2, 2, "/*") == 0) {
    r.prefix = true;
    pattern.resize(pattern.size() - 1);  // keep the trailing '/'
  }
  r.pattern = std::move(pattern);
  r.handler = std::move(handler);
  routes_.push_back(std::move(r));
}

void HttpServer::set_access_log(const std::string& path) {
  if (running()) {
    throw std::logic_error("HttpServer::set_access_log: server already started");
  }
  access_log_.open(path, std::ios::app);
  if (!access_log_) {
    throw std::runtime_error("HttpServer: cannot open access log '" + path +
                             "'");
  }
  access_log_enabled_ = true;
}

void HttpServer::log_access(const HttpRequest& request, int status,
                            std::size_t response_bytes, double duration_ms) {
  if (!access_log_enabled_) return;
  util::Json row = util::Json::object();
  row["ts"] = std::chrono::duration<double>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count();
  row["id"] = request.id;
  row["method"] = request.method;
  row["path"] = request.path;
  row["status"] = status;
  row["bytes"] = response_bytes;
  row["duration_ms"] = duration_ms;
  row["trace"] = request.trace.trace_id_hex();
  std::lock_guard<std::mutex> lock(access_mutex_);
  access_log_ << row.dump() << "\n";
  access_log_.flush();
}

void HttpServer::start(std::uint16_t port, const std::string& bind) {
  if (running()) throw std::logic_error("HttpServer::start: already running");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("HttpServer: bad bind address '" + bind + "'");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("HttpServer: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("HttpServer: bind " + bind + ":" +
                             std::to_string(port) + ": " + err);
  }
  if (::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("HttpServer: listen: " + err);
  }

  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  bind_ = bind;
  listen_fd_.store(fd, std::memory_order_release);

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
}

void HttpServer::stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Unblock accept() so the thread notices the flag.
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (thread_.joinable()) thread_.join();
}

void HttpServer::serve_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      return;  // listen socket is gone; stop() owns cleanup
    }
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    serve_connection(fd);
    ::close(fd);
  }
}

const HttpServer::Route* HttpServer::match(const std::string& method,
                                           const std::string& path,
                                           bool& path_known) const {
  path_known = false;
  for (const auto& r : routes_) {
    const bool path_match =
        r.prefix ? path.compare(0, r.pattern.size(), r.pattern) == 0
                 : path == r.pattern;
    if (!path_match) continue;
    path_known = true;
    if (r.method == method) return &r;
  }
  return nullptr;
}

void HttpServer::serve_connection(int fd) {
  // Read until the header terminator, then the Content-Length body.  A
  // connection that cannot be answered is closed and counted under
  // http.dropped{reason}.
  std::string request;
  char buf[4096];
  std::size_t header_end = std::string::npos;
  while ((header_end = request.find("\r\n\r\n")) == std::string::npos &&
         request.size() < 16 * 1024) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  if (header_end == std::string::npos) {
    // The peer closed, the read timed out, or the block passed 16 KB.
    dropped_counter("headers").add(1);
    return;
  }

  // "GET /path HTTP/1.1"
  const std::size_t line_end = request.find("\r\n");
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    dropped_counter("request_line").add(1);
    return;
  }

  HttpRequest parsed;
  parsed.method = line.substr(0, sp1);
  parsed.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (const std::size_t q = parsed.path.find('?'); q != std::string::npos) {
    parsed.query = parsed.path.substr(q + 1);
    parsed.path.resize(q);
  }

  // ---- middleware: request id + trace context + instrumentation ----------
  parsed.id = next_request_id();
  const std::string trace_header =
      find_header(request, header_end, kTraceHeader);
  if (!trace_header.empty() && trace_header.size() <= kMaxTraceHeaderBytes) {
    // A malformed header parses to an invalid context — the request is
    // served exactly as if the header were absent.
    parsed.trace = TraceContext::parse(trace_header);
  }
  parsed.trace_propagated = parsed.trace.valid();
  if (!parsed.trace_propagated) parsed.trace = TraceContext::make_root();

  auto& metrics = MetricsRegistry::global();
  InFlightGuard in_flight(metrics.gauge("http.in_flight"));
  const auto handle_start = std::chrono::steady_clock::now();

  // Route before reading any body: an unknown path or a known path with
  // an unregistered method is answered 404/405 immediately (the old
  // server silently closed the socket on anything it disliked).
  bool path_known = false;
  const Route* route = match(parsed.method, parsed.path, path_known);
  // Metric labels use the matched route pattern, never the raw path:
  // /results/<id> must not mint a fresh series per campaign.
  const std::string route_label =
      route != nullptr ? route->label : "unmatched";

  HttpResponse response;
  if (route == nullptr) {
    response = path_known ? plain(405, "method not allowed\n")
                          : plain(404, "not found\n");
  } else {
    const std::string length_header =
        find_header(request, header_end, "Content-Length");
    const bool expects_body =
        parsed.method == "POST" || parsed.method == "PUT";
    std::size_t content_length = 0;
    bool handled_early = false;
    if (!length_header.empty()) {
      char* end = nullptr;
      const unsigned long long v =
          std::strtoull(length_header.c_str(), &end, 10);
      if (end == length_header.c_str() || *end != '\0') {
        response = plain(400, "bad Content-Length\n");
        handled_early = true;
      } else {
        content_length = static_cast<std::size_t>(v);
      }
    } else if (expects_body) {
      // A body-carrying method must declare its length: answer 411
      // instead of timing out on a recv that will never complete.
      response = plain(411, "Content-Length required\n");
      handled_early = true;
    }
    if (!handled_early && content_length > kMaxBodyBytes) {
      response = plain(413, "payload too large\n");
      handled_early = true;
    }
    if (!handled_early) {
      parsed.body = request.substr(header_end + 4);
      while (parsed.body.size() < content_length) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {  // peer died mid-body; nothing to answer
          dropped_counter("body").add(1);
          return;
        }
        parsed.body.append(buf, static_cast<std::size_t>(n));
      }
      parsed.body.resize(content_length);
      try {
        // The handler runs with the request's trace installed: every
        // PBW_SPAN it opens joins the caller's trace (or the fresh root).
        ScopedContext scope(parsed.trace);
        response = route->handler(parsed);
      } catch (const std::exception& e) {
        response = plain(500, std::string("handler error: ") + e.what() + "\n");
      }
    }
  }

  const double duration_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - handle_start)
          .count();
  metrics
      .counter("http.requests{method=\"" + sanitize_label(parsed.method) +
               "\",path=\"" + sanitize_label(route_label) + "\",status=\"" +
               std::to_string(response.status) + "\"}")
      .add(1);
  metrics.histogram("http.latency." + route_label, 0.0, 10.0, 64)
      .observe(duration_ms / 1000.0);
  // The access-log row goes out before the response bytes: a client that
  // saw an answer can rely on its row existing.
  log_access(parsed, response.status, response.body.size(), duration_ms);

  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_text(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "X-Pbw-Request-Id: " + parsed.id + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  send_all(fd, out);
}

}  // namespace pbw::obs
