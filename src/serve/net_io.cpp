#include "serve/net_io.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/common.hpp"
#include "util/str.hpp"

namespace dv::serve {

namespace {

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

Address Address::parse(const std::string& text) {
  Address a;
  if (starts_with(text, "unix:")) {
    a.kind = Kind::kUnix;
    a.path = text.substr(5);
    DV_REQUIRE(!a.path.empty(), "unix socket address needs a path");
    DV_REQUIRE(a.path.size() < sizeof(sockaddr_un{}.sun_path),
               "unix socket path too long: " + a.path);
    return a;
  }
  if (starts_with(text, "tcp:")) {
    a.kind = Kind::kTcp;
    const std::string rest = text.substr(4);
    const auto colon = rest.rfind(':');
    std::string port_text = rest;
    if (colon != std::string::npos) {
      a.host = rest.substr(0, colon);
      port_text = rest.substr(colon + 1);
    }
    DV_REQUIRE(!port_text.empty(), "tcp address needs a port");
    char* end = nullptr;
    const long p = std::strtol(port_text.c_str(), &end, 10);
    DV_REQUIRE(end && *end == '\0' && p > 0 && p < 65536,
               "bad tcp port: " + port_text);
    a.port = static_cast<int>(p);
    return a;
  }
  throw Error("address must be unix:/path or tcp:[host:]port, got: " + text);
}

std::string Address::describe() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

int listen_socket(const Address& addr, int backlog) {
  if (addr.kind == Address::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DV_REQUIRE(fd >= 0, errno_text("socket(AF_UNIX)"));
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
    ::unlink(addr.path.c_str());  // stale socket from a previous daemon
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string msg = errno_text("bind " + addr.describe());
      ::close(fd);
      throw Error(msg);
    }
    if (::listen(fd, backlog) != 0) {
      const std::string msg = errno_text("listen " + addr.describe());
      ::close(fd);
      throw Error(msg);
    }
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DV_REQUIRE(fd >= 0, errno_text("socket(AF_INET)"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(addr.port));
  if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    throw Error("bad listen host (IPv4 literal required): " + addr.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    const std::string msg = errno_text("bind " + addr.describe());
    ::close(fd);
    throw Error(msg);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string msg = errno_text("listen " + addr.describe());
    ::close(fd);
    throw Error(msg);
  }
  return fd;
}

int connect_socket(const Address& addr) {
  if (addr.kind == Address::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DV_REQUIRE(fd >= 0, errno_text("socket(AF_UNIX)"));
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string msg = errno_text("connect " + addr.describe());
      ::close(fd);
      throw Error(msg);
    }
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DV_REQUIRE(fd >= 0, errno_text("socket(AF_INET)"));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(addr.port));
  if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    throw Error("bad connect host (IPv4 literal required): " + addr.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    const std::string msg = errno_text("connect " + addr.describe());
    ::close(fd);
    throw Error(msg);
  }
  return fd;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

void shutdown_fd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

// ------------------------------------------------------------- FrameStream

FrameStream::FrameStream(int fd, std::size_t max_frame)
    : fd_(fd), max_frame_(max_frame) {
  DV_REQUIRE(fd_ >= 0, "FrameStream needs a valid fd");
}

FrameStream::~FrameStream() { close_fd(fd_); }

bool FrameStream::read_frame(std::string& out) {
  for (;;) {
    const auto nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      DV_REQUIRE(nl - pos_ <= max_frame_,
                 "oversized frame (> " + std::to_string(max_frame_) +
                     " bytes)");
      out.assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return true;
    }
    // Compact before growing: everything before pos_ is consumed.
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    DV_REQUIRE(buf_.size() <= max_frame_,
               "oversized frame (> " + std::to_string(max_frame_) +
                   " bytes without newline)");
    char chunk[65536];
    ssize_t n;
    do {
      n = ::read(fd_, chunk, sizeof(chunk));
    } while (n < 0 && errno == EINTR);
    if (n < 0) throw Error(errno_text("read"));
    if (n == 0) {
      DV_REQUIRE(buf_.empty(), "connection closed mid-frame");
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void FrameStream::write_frame(const std::string& frame) {
  // The frame and its '\n' leave through one iovec pair, so a
  // megabyte-sized reply is never copied just to append the terminator.
  char newline = '\n';
  const std::size_t total = frame.size() + 1;
  std::size_t off = 0;
  while (off < total) {
    iovec iov[2]{};
    std::size_t n_iov = 0;
    if (off < frame.size()) {
      iov[n_iov++] = {const_cast<char*>(frame.data()) + off,
                      frame.size() - off};
    }
    iov[n_iov++] = {&newline, 1};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    ssize_t n;
    do {
      // MSG_NOSIGNAL: a peer that vanished mid-response must surface as an
      // error on this connection, not SIGPIPE the whole daemon.
      n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) throw Error(errno_text("send"));
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace dv::serve
