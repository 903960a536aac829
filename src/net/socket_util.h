#ifndef DCWS_NET_SOCKET_UTIL_H_
#define DCWS_NET_SOCKET_UTIL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "src/util/result.h"

namespace dcws::net {

// Thin RAII + Status wrappers over POSIX TCP sockets (loopback only:
// the TCP transport binds 127.0.0.1; cooperating server *names* are
// resolved by the TcpNetwork registry, standing in for DNS).

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  // Releases ownership.
  int Release();
  void Close();

 private:
  int fd_ = -1;
};

// Creates a listening socket on 127.0.0.1:`port` (port 0 = ephemeral).
// Returns the socket; the actually-bound port is written to
// `bound_port`.
Result<Socket> ListenLoopback(uint16_t port, int backlog,
                              uint16_t* bound_port);

// Connects to 127.0.0.1:`port`.
Result<Socket> ConnectLoopback(uint16_t port);

// Blocking full write of `parts`, in order, as one byte stream: one
// vectored sendmsg per round (MSG_NOSIGNAL), resuming a partial send at
// the first unsent byte of the buffer it stopped in; EINTR retries.
Status WriteAll(const Socket& socket, std::span<const std::string_view> parts);

// Blocking full write of one buffer (the vectored write above).
Status WriteAll(const Socket& socket, std::string_view data);

// Blocking read into `buffer`; returns the byte count, 0 = orderly
// shutdown.  EINTR retries.
Result<size_t> ReadInto(const Socket& socket, std::span<char> buffer);

}  // namespace dcws::net

#endif  // DCWS_NET_SOCKET_UTIL_H_
