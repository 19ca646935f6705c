// Spawning compact-serve and talking to it over its unix socket. The line
// framing is the benchmark's own, so the client cost stays fixed while the
// program's transport changes.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class daemon_process {
 public:
  /// fork + exec `binary` (absolute) with `args`, working directory
  /// `run_dir`, output to run_dir/daemon.log. `socket` is the socket path
  /// as the benchmark (not the daemon) sees it.
  daemon_process(const std::string& binary, const std::vector<std::string>& args,
                 const std::string& run_dir, std::string socket);
  ~daemon_process();
  daemon_process(const daemon_process&) = delete;
  daemon_process& operator=(const daemon_process&) = delete;

  /// Connect once the socket accepts; throws after `timeout_s`.
  [[nodiscard]] int connect(double timeout_s) const;
  /// SIGTERM, then wait (SIGKILL after a grace period); idempotent.
  void stop();
  /// Peak resident set (VmHWM) in KiB, or -1 when unreadable.
  [[nodiscard]] long peak_rss_kib() const;

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// Blocking line I/O over a connected socket.
class line_channel {
 public:
  explicit line_channel(int fd) : fd_(fd) {}
  ~line_channel();
  line_channel(const line_channel&) = delete;
  line_channel& operator=(const line_channel&) = delete;

  /// Send `line` + '\n'; false when the peer is gone.
  bool send(const std::string& line);
  /// Receive one line (without '\n'); false on EOF or error.
  bool receive(std::string& line);

 private:
  int fd_;
  std::string buffer_;
};

}  // namespace perfbench
