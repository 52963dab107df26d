#include "obs/debug_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace dsteiner::obs {
namespace {

/// Writes all of `data`, tolerating short writes. Returns false on error.
bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Waits until `fd` has input or `deadline` passes; false on timeout/error.
bool wait_readable(int fd, std::chrono::steady_clock::time_point deadline) {
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  if (remaining.count() <= 0) return false;
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  return ::poll(&pfd, 1, static_cast<int>(remaining.count())) > 0;
}

/// Half-closes `fd` after a response sent before the request was fully read,
/// then discards client input until the client closes or `deadline` passes.
/// Closing a socket with unread input makes the kernel send RST, and an RST
/// can destroy the response before the client reads it.
void drain_after_response(int fd,
                          std::chrono::steady_clock::time_point deadline) {
  ::shutdown(fd, SHUT_WR);
  char sink[4096];
  while (wait_readable(fd, deadline) &&
         ::recv(fd, sink, sizeof(sink), 0) > 0) {
  }
}

void send_response(int fd, const char* status, const std::string& content_type,
                   const std::string& body) {
  char header[256];
  const int n = std::snprintf(header, sizeof(header),
                              "HTTP/1.0 %s\r\n"
                              "Content-Type: %s\r\n"
                              "Content-Length: %zu\r\n"
                              "Connection: close\r\n\r\n",
                              status, content_type.c_str(), body.size());
  if (n <= 0) return;
  if (!write_all(fd, header, static_cast<std::size_t>(n))) return;
  write_all(fd, body.data(), body.size());
}

}  // namespace

void debug_server::add_route(std::string path, std::string content_type,
                             std::function<std::string(std::string_view)> handler) {
  routes_.push_back(
      {std::move(path), std::move(content_type), std::move(handler)});
}

std::string query_param(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{}
                                          : query.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    if (pair.substr(0, eq) == key) return std::string(pair.substr(eq + 1));
  }
  return {};
}

std::uint64_t query_param_u64(std::string_view query, std::string_view key,
                              std::uint64_t fallback) {
  const std::string value = query_param(query, key);
  const char* const end = value.data() + value.size();
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc{} || ptr != end) return fallback;
  return parsed;
}

bool debug_server::start(std::uint16_t port) {
  if (running_.load(std::memory_order_acquire)) return false;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  // Recover the ephemeral port the kernel picked when port == 0.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void debug_server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

debug_server::~debug_server() { stop(); }

void debug_server::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    // Short timeout so the stop flag is honoured promptly without signals.
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;
    if ((pfd.revents & POLLIN) == 0) continue;

    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    handle_connection(conn);
    ::close(conn);
  }
}

void debug_server::handle_connection(int fd) {
  // Bound the read in both space and time: a request line fits comfortably
  // in 4 KiB, we never accept bodies, and the whole read gets one wall-clock
  // budget — a stalled (or byte-dripping) client cannot hold the
  // single-threaded accept loop past read_timeout_ms_.
  char buf[4096];
  std::size_t have = 0;
  bool complete = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(read_timeout_ms_);
  while (have < sizeof(buf) - 1 && wait_readable(fd, deadline)) {
    const ssize_t n = ::recv(fd, buf + have, sizeof(buf) - 1 - have, 0);
    if (n <= 0) break;
    have += static_cast<std::size_t>(n);
    buf[have] = '\0';
    if (std::strstr(buf, "\r\n") != nullptr) {
      complete = true;
      break;
    }
  }
  buf[have] = '\0';

  if (!complete) {
    if (have >= sizeof(buf) - 1) {
      // Buffer full with no end-of-line in sight: no registered route has a
      // request line this long, so answer as for an unknown resource.
      send_response(fd, "404 Not Found", "text/plain",
                    "request line too long\n");
    } else {
      send_response(fd, "400 Bad Request", "text/plain",
                    "incomplete request\n");
    }
    drain_after_response(fd, deadline);
    return;
  }
  if (std::strncmp(buf, "GET ", 4) != 0) {
    send_response(fd, "400 Bad Request", "text/plain", "bad request\n");
    return;
  }
  const char* path_begin = buf + 4;
  const char* path_end = path_begin;
  while (*path_end != '\0' && *path_end != ' ' && *path_end != '\r' &&
         *path_end != '\n' && *path_end != '?') {
    ++path_end;
  }
  const std::string path(path_begin, path_end);

  std::string_view query;
  if (*path_end == '?') {
    const char* query_begin = path_end + 1;
    const char* query_end = query_begin;
    while (*query_end != '\0' && *query_end != ' ' && *query_end != '\r' &&
           *query_end != '\n') {
      ++query_end;
    }
    query = std::string_view(query_begin,
                             static_cast<std::size_t>(query_end - query_begin));
  }

  for (const auto& r : routes_) {
    if (r.path == path) {
      requests_.fetch_add(1, std::memory_order_relaxed);
      send_response(fd, "200 OK", r.content_type, r.handler(query));
      return;
    }
  }
  std::string listing =
      "not found: " + (path.size() > 128 ? path.substr(0, 128) + "..." : path) +
      "\nroutes:\n";
  for (const auto& r : routes_) listing += "  " + r.path + "\n";
  send_response(fd, "404 Not Found", "text/plain", listing);
}

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return {};
  }

  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!write_all(fd, request.data(), request.size())) {
    ::close(fd);
    return {};
  }

  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_body(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  if (pos == std::string::npos) return {};
  return response.substr(pos + 4);
}

}  // namespace dsteiner::obs
