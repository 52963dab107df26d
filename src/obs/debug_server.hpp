// Minimal TCP debug endpoint — plain POSIX sockets, a blocking poll() loop,
// one background thread, zero dependencies.
//
// The server answers "GET <path>" with the output of a registered handler
// (HTTP/1.0 semantics: one request per connection, Connection: close). It
// exists to make the service's observability reachable by curl and
// Prometheus scrapers:
//
//   /metrics  -> render_metrics_text (Prometheus text exposition)
//   /statusz  -> human-readable service status
//   /tracez   -> recent slow-query traces as Chrome trace JSON
//
// Deliberately not a web server: no keep-alive, no TLS, no request bodies,
// 4 KiB request cap, loopback-oriented. Handlers run on the server thread —
// they must be snapshot-cheap (ours render from atomic counters and
// shared_ptr copies). Port 0 binds an ephemeral port (tests); `port()`
// reports the bound value.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace dsteiner::obs {

class debug_server {
 public:
  /// Registers `handler` for exact-match `path` before start(). The handler
  /// receives the raw query string (the part after '?', possibly empty —
  /// parse it with query_param()). Handlers must be callable from the
  /// server thread for the server's lifetime.
  void add_route(std::string path, std::string content_type,
                 std::function<std::string(std::string_view)> handler);

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and launches the accept loop.
  /// Returns false (with no thread started) if the socket cannot be bound.
  bool start(std::uint16_t port = 0);

  /// Idempotent; joins the server thread. Called by the destructor.
  void stop();

  ~debug_server();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// The bound port (meaningful after a successful start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Total wall-clock budget for reading one request (default 1000 ms).
  /// A client that connects and stalls — or drips bytes slower than a
  /// request line — gets a 400 when the budget runs out instead of wedging
  /// the single-threaded accept loop. Tests shrink this to keep the
  /// stalled-client case fast; call before start().
  void set_read_timeout_ms(int ms) noexcept { read_timeout_ms_ = ms; }

 private:
  struct route {
    std::string path;
    std::string content_type;
    std::function<std::string(std::string_view)> handler;
  };

  void serve_loop();
  void handle_connection(int fd);

  std::vector<route> routes_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_{0};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int read_timeout_ms_ = 1000;
};

/// Returns the value of `key` in a "?a=1&b=2" style query string (the part
/// after '?', without the '?'), or empty when absent. No %-decoding — the
/// debug routes only take small numeric/identifier values. Shared by the
/// /tracez and /slo routes.
std::string query_param(std::string_view query, std::string_view key);

/// Numeric variant of query_param(): parses the whole value as a decimal
/// unsigned integer, returning `fallback` when the key is absent or the
/// value is empty, signed, padded, has trailing junk or overflows.
std::uint64_t query_param_u64(std::string_view query, std::string_view key,
                              std::uint64_t fallback);

/// Blocking loopback HTTP GET used by tests and the bench-smoke scrape.
/// Returns the full response (status line + headers + body), or an empty
/// string on connect/IO failure.
std::string http_get(std::uint16_t port, const std::string& path);

/// Strips the header block from an http_get() response, returning the body.
std::string http_body(const std::string& response);

}  // namespace dsteiner::obs
