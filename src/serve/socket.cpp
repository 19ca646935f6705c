#include "serve/socket.hpp"

#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace compact::serve {
namespace {

/// One accepted connection. The fd is owned here and closed by the last
/// holder: the reader thread and every in-flight responder share ownership
/// through shared_ptr, so a response completing after the client stopped
/// reading still has a valid (if dead) fd to fail against.
struct connection {
  explicit connection(int descriptor) : fd(descriptor) {}
  ~connection() { close_fd(fd); }
  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;

  int fd;
  std::mutex write_mutex;
};

[[noreturn]] void socket_fail(const std::string& what) {
  throw compact::error(what + ": " + std::strerror(errno));
}

}  // namespace

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw compact::error("socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) socket_fail("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    socket_fail("connect " + path);
  }
  return fd;
}

bool write_line(int fd, const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a vanished peer yields EPIPE instead of SIGPIPE.
    const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_line(int fd, std::string& buffer, std::string& line) {
  // Only the bytes appended since the last search can hold the newline, so
  // each byte is searched once and a long line costs linear time.
  std::size_t searched = 0;
  for (;;) {
    const std::size_t newline = buffer.find('\n', searched);
    if (newline != std::string::npos) {
      line.assign(buffer, 0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    searched = buffer.size();
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      if (buffer.empty()) return false;
      line = std::move(buffer);  // unterminated final line
      buffer.clear();
      return true;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

std::size_t serve_unix(server& s, const socket_options& options,
                       const std::atomic<bool>* stop) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.path.size() >= sizeof(addr.sun_path))
    throw compact::error("socket path too long: " + options.path);
  std::strncpy(addr.sun_path, options.path.c_str(),
               sizeof(addr.sun_path) - 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) socket_fail("socket");
  ::unlink(options.path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(listen_fd);
    errno = saved;
    socket_fail("bind " + options.path);
  }
  if (::listen(listen_fd, 128) != 0) {
    const int saved = errno;
    ::close(listen_fd);
    errno = saved;
    socket_fail("listen " + options.path);
  }

  std::atomic<std::size_t> consumed{0};
  std::mutex registry_mutex;
  std::vector<std::weak_ptr<connection>> registry;
  std::vector<std::thread> readers;

  const auto served_enough = [&] {
    return (options.max_requests != 0 &&
            consumed.load(std::memory_order_relaxed) >=
                options.max_requests) ||
           (stop != nullptr && stop->load(std::memory_order_relaxed));
  };

  while (!served_enough()) {
    pollfd waiter{};
    waiter.fd = listen_fd;
    waiter.events = POLLIN;
    const int ready = ::poll(&waiter, 1, 200);  // tick to re-check the stop
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int client_fd = ::accept(listen_fd, nullptr, nullptr);
    if (client_fd < 0) continue;

    auto conn = std::make_shared<connection>(client_fd);
    {
      const std::lock_guard<std::mutex> lock(registry_mutex);
      registry.push_back(conn);
    }
    readers.emplace_back([&s, &consumed, &served_enough, conn,
                          max = options.max_requests] {
      std::string buffer;
      std::string line;
      while (read_line(conn->fd, buffer, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        const std::size_t serial =
            consumed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (max != 0 && serial > max) break;
        api::request_v1 request;
        try {
          request = api::request_from_json(line);
        } catch (const api::parse_error& e) {
          const std::lock_guard<std::mutex> lock(conn->write_mutex);
          write_line(conn->fd, api::to_json(parse_failure(line, e.what())));
          continue;
        }
        s.submit(std::move(request),
                 [conn](const api::response_v1& resp) {
                   const std::lock_guard<std::mutex> lock(conn->write_mutex);
                   write_line(conn->fd, api::to_json(resp));
                 });
        if (served_enough()) break;
      }
    });
  }

  ::close(listen_fd);
  // Force any reader still blocked in read() out (a client that never
  // disconnects must not wedge shutdown), then join and drain.
  {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    for (const std::weak_ptr<connection>& weak : registry)
      if (const std::shared_ptr<connection> conn = weak.lock())
        ::shutdown(conn->fd, SHUT_RD);
  }
  for (std::thread& reader : readers) reader.join();
  s.drain();
  return consumed.load(std::memory_order_relaxed);
}

}  // namespace compact::serve

#else  // !(__unix__ || __APPLE__)

namespace compact::serve {

int connect_unix(const std::string&) {
  throw compact::error("unix-domain sockets are unsupported on this platform");
}
bool write_line(int, const std::string&) { return false; }
bool read_line(int, std::string&, std::string&) { return false; }
void close_fd(int) {}

std::size_t serve_unix(server&, const socket_options&,
                       const std::atomic<bool>*) {
  throw compact::error("unix-domain sockets are unsupported on this platform");
}

}  // namespace compact::serve

#endif
