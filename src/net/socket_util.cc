#include "src/net/socket_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <vector>

namespace dcws::net {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::Release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> ListenLoopback(uint16_t port, int backlog,
                              uint16_t* bound_port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) {
    return Status::Internal(Errno("socket"));
  }
  int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::Internal(Errno("bind"));
  }
  if (::listen(socket.fd(), backlog) < 0) {
    return Status::Internal(Errno("listen"));
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
                      &len) < 0) {
      return Status::Internal(Errno("getsockname"));
    }
    *bound_port = ntohs(addr.sin_port);
  }
  return socket;
}

Result<Socket> ConnectLoopback(uint16_t port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) {
    return Status::Internal(Errno("socket"));
  }
  int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Status::Unavailable(Errno("connect"));
  }
  return socket;
}

Status WriteAll(const Socket& socket, std::span<const std::string_view> parts,
                bool more_follows) {
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (std::string_view part : parts) {
    if (part.empty()) continue;
    iov.push_back({const_cast<char*>(part.data()), part.size()});
  }
  size_t next = 0;  // first buffer with bytes left to send
  while (next < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + next;
    msg.msg_iovlen = std::min<size_t>(iov.size() - next, IOV_MAX);
    ssize_t n = ::sendmsg(socket.fd(), &msg,
                          MSG_NOSIGNAL | (more_follows ? MSG_MORE : 0));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("sendmsg"));
    }
    // Skip the buffers sent whole, then advance into a partial one.
    auto sent = static_cast<size_t>(n);
    while (next < iov.size() && sent >= iov[next].iov_len) {
      sent -= iov[next].iov_len;
      ++next;
    }
    if (sent > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + sent;
      iov[next].iov_len -= sent;
    }
  }
  return Status::Ok();
}

Status WriteAll(const Socket& socket, std::string_view data) {
  return WriteAll(socket, std::span<const std::string_view>(&data, 1));
}

Status SendFile(const Socket& socket, int fd, size_t size) {
  off_t offset = 0;  // sendfile advances it past every byte it sends
  while (static_cast<size_t>(offset) < size) {
    ssize_t n = ::sendfile(socket.fd(), fd, &offset,
                           size - static_cast<size_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (offset == 0 && (errno == EINVAL || errno == ENOSYS)) {
        return Status::Unimplemented(Errno("sendfile"));
      }
      return Status::Unavailable(Errno("sendfile"));
    }
    if (n == 0) return Status::Unavailable("sendfile: file ended early");
  }
  return Status::Ok();
}

Result<size_t> ReadInto(const Socket& socket, std::span<char> buffer) {
  while (true) {
    ssize_t n = ::recv(socket.fd(), buffer.data(), buffer.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("recv"));
    }
    return static_cast<size_t>(n);
  }
}

}  // namespace dcws::net
