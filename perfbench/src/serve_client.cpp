#include "serve_client.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

daemon_process::daemon_process(const std::string& binary,
                               const std::vector<std::string>& args,
                               const std::string& run_dir, std::string socket)
    : socket_(std::move(socket)) {
  ::unlink(socket_.c_str());
  std::vector<std::string> argv_store{binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    if (::chdir(run_dir.c_str()) != 0) ::_exit(126);
    const int fd = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
}

daemon_process::~daemon_process() { stop(); }

int daemon_process::connect(double timeout_s) const {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + socket_);
  std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;
    ::close(fd);
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_)
      throw std::runtime_error("compact-serve exited before accepting");
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() > timeout_s)
      throw std::runtime_error("compact-serve did not accept on " + socket_);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void daemon_process::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) break;
    if (std::chrono::steady_clock::now() - start > std::chrono::seconds(20)) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

long daemon_process::peak_rss_kib() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      long kib = -1;
      status >> kib;
      return kib;
    }
    std::getline(status, key);
  }
  return -1;
}

line_channel::~line_channel() {
  if (fd_ >= 0) ::close(fd_);
}

bool line_channel::send(const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool line_channel::receive(std::string& line) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace perfbench
