// Embedded HTTP endpoint: a tiny, dependency-free blocking server.
//
// `pbw-campaign --serve-port=N` exposes live telemetry over plain
// HTTP/1.1 — Prometheus text at /metrics, campaign progress JSON at
// /status — and the fleet coordinator (src/fleet) runs its whole control
// plane (`POST /submit`, `POST /lease`, `POST /results/<id>`) through the
// same server, without pulling a networking library into the build.  One
// dedicated thread accepts connections and answers one request per
// connection (Connection: close); handlers are plain callables, so the
// server knows nothing about metrics, campaigns, or fleets.
//
// Deliberately minimal: GET/POST, no keep-alive, no TLS.  Binds
// 127.0.0.1 by default; pass an explicit bind address (e.g. "0.0.0.0")
// to serve a multi-machine fleet — anything fancier (auth, TLS) belongs
// behind a real reverse proxy.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry/context.hpp"
#include "util/json.hpp"

namespace pbw::obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// One parsed request as a handler sees it: the method, the path with its
/// query string split off, and the body (empty unless Content-Length said
/// otherwise).
struct HttpRequest {
  std::string method;  ///< upper-case, e.g. "GET", "POST"
  std::string path;    ///< decoded-as-is, query stripped
  std::string query;   ///< text after '?', or empty
  std::string body;
  /// Process-unique request id ("r-<16 hex>"), assigned by the server.
  std::string id;
  /// The effective trace context: the X-Pbw-Trace header when the caller
  /// sent a valid one, else a fresh root.  Installed as the thread's
  /// current context for the handler's duration, so every PBW_SPAN the
  /// handler opens is stamped with this trace.
  TraceContext trace;
  /// True when `trace` came over the wire (vs. minted locally).
  bool trace_propagated = false;
};

class HttpServer {
 public:
  /// A handler sees the request (method, path, body); exceptions become
  /// a 500.
  using RouteHandler = std::function<HttpResponse(const HttpRequest&)>;

  /// Bodies above this are answered with 413 and dropped.
  static constexpr std::size_t kMaxBodyBytes = 64u << 20;

  HttpServer() = default;
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for `method` + `pattern`.  A pattern ending in
  /// "/*" matches every path under that prefix (the handler sees the full
  /// path); otherwise the match is exact.  Query strings are stripped
  /// before lookup.  A path that matches some pattern but no registered
  /// method answers 405.  Must be called before start().
  void route(std::string method, std::string pattern, RouteHandler handler);

  /// Opens `path` (append) as a JSONL access log: one object per served
  /// request — {"ts","id","method","path","status","bytes","duration_ms",
  /// "trace"} — written before the response bytes go out, so a client
  /// that saw an answer can rely on its row existing.  Must be called
  /// before start(); throws std::runtime_error when the file won't open.
  void set_access_log(const std::string& path);

  /// Binds `bind`:`port` (0 picks an ephemeral port — see port()) and
  /// starts the accept thread.  `bind` must be an IPv4 dotted-quad;
  /// the default keeps the historical loopback-only behaviour.  Throws
  /// std::runtime_error on failure.
  ///
  /// Every served request is also measured: counters
  /// `http.requests{method,path,status}` (path is the matched route
  /// pattern, never the raw path, so /results/<id> cannot explode the
  /// series), per-route latency histograms `http.latency.<pattern>`, and
  /// an `http.in_flight` gauge, all in MetricsRegistry::global().  A
  /// connection closed without a response counts in
  /// `http.dropped{reason}` (see dropped()).
  void start(std::uint16_t port, const std::string& bind = "127.0.0.1");

  /// Stops accepting, closes the socket, joins the thread.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// The bound port (the actual one when started with 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The address start() bound ("" before start()).
  [[nodiscard]] const std::string& bind_address() const noexcept {
    return bind_;
  }

  /// Connections closed without a response, process-wide, by reason —
  /// {"headers", "request_line", "body"}: the header block never completed
  /// (the peer closed, the read timed out, or it passed 16 KB), the
  /// request line lacked a method, path or version, or the peer left
  /// mid-body.  The same counts are the http.dropped{reason} counters;
  /// /status documents embed this object as "http_dropped".
  [[nodiscard]] static util::Json dropped();

 private:
  struct Route {
    std::string method;
    std::string pattern;  ///< exact path, or prefix when `prefix` is set
    std::string label;    ///< the pattern as registered (e.g. "/results/*")
    bool prefix = false;
    RouteHandler handler;
  };

  void serve_loop();
  void serve_connection(int fd);
  [[nodiscard]] const Route* match(const std::string& method,
                                   const std::string& path,
                                   bool& path_known) const;
  void log_access(const HttpRequest& request, int status,
                  std::size_t response_bytes, double duration_ms);

  std::vector<Route> routes_;
  std::ofstream access_log_;
  std::mutex access_mutex_;
  bool access_log_enabled_ = false;
  std::atomic<bool> running_{false};
  /// Atomic: stop() closes and clears the fd while the accept loop reads
  /// it (the loop re-checks running_ after every accept() return).
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::string bind_;
  std::thread thread_;
};

}  // namespace pbw::obs
