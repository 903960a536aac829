#include "src/net/tcp.h"

#include <poll.h>
#include <pthread.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <span>

#include "src/http/wire.h"
#include "src/util/logging.h"

namespace dcws::net {

namespace {

// Every response the host writes.  The serialized head and the entity go
// out in one vectored write, so a stored document is sent from the
// store's bytes without being copied behind its head.  A sealed
// version's body goes out with sendfile(2) instead, behind a head held
// back with MSG_MORE: the kernel attaches the memfd's pages to the
// socket by reference, so the host copies nothing.
Status WriteResponse(const Socket& conn, const http::Response& response) {
  std::string head = response.SerializeHead();
  std::string_view parts[] = {head, response.entity()};
  if (response.shared.fd < 0) return WriteAll(conn, parts);
  DCWS_RETURN_IF_ERROR(
      WriteAll(conn, std::span<const std::string_view>(parts, 1), true));
  Status sent = SendFile(conn, response.shared.fd, response.entity().size());
  if (sent.code() != StatusCode::kUnimplemented) return sent;
  // This kernel cannot sendfile from the memfd: write the mapping.
  return WriteAll(conn, response.entity());
}

// Paces an accept loop while the process has no free descriptor.
// accept(2) allocates the new descriptor before it looks at the queue,
// so at the limit it fails at once, connection queued or not, and
// retrying at once would spin.  One per accepting thread.
class AcceptPacer {
 public:
  // After accept(2) returned `fd`, with `error` its errno: backs off if
  // it failed for want of descriptors or memory, logging the errno once
  // per episode.
  void After(int fd, int error) {
    if (fd >= 0) {
      starved_ = false;
      return;
    }
    if (error != EMFILE && error != ENFILE && error != ENOBUFS &&
        error != ENOMEM) {
      return;
    }
    if (!starved_) {
      DCWS_LOG(kWarning) << "accept: " << std::strerror(error)
                         << "; retrying every 10 ms";
    }
    starved_ = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

 private:
  bool starved_ = false;
};

http::Response MakeBadRequest() {
  http::Response bad;
  bad.status_code = 400;
  return bad;
}

}  // namespace

TcpServerHost::TcpServerHost(core::Server* server, TcpNetwork* network)
    : server_(server),
      network_(network),
      idle_workers_(server->params().worker_threads) {}

Result<std::unique_ptr<TcpServerHost>> TcpServerHost::Start(
    core::Server* server, TcpNetwork* network, uint16_t listen_port) {
  std::unique_ptr<TcpServerHost> host(
      new TcpServerHost(server, network));
  uint16_t bound = 0;
  // The kernel backlog is not L_sq: a burst past the listen backlog is
  // dropped at SYN, unanswered and uncounted.  L_sq bounds pending_, so
  // every excess connection gets its 503 (§5.2).
  DCWS_ASSIGN_OR_RETURN(host->listener_,
                        ListenLoopback(listen_port, SOMAXCONN, &bound));
  host->port_ = bound;
  host->step_back_ = Socket(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!host->step_back_.valid()) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }

  host->front_end_thread_ = std::thread([h = host.get()]() {
    h->FrontEndLoop();
  });
  int workers = server->params().worker_threads;
  host->workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    host->workers_.emplace_back([h = host.get()]() { h->WorkerLoop(); });
  }
  host->duty_thread_ = std::thread([h = host.get()]() { h->DutyLoop(); });
  return host;
}

TcpServerHost::~TcpServerHost() { Stop(); }

void TcpServerHost::Stop() {
  {
    MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Wake every thread blocked in accept() WITHOUT closing the listener:
  // on Linux, shutdown() of a listening socket fails all its pending and
  // later accept() calls, and it only reads the fd, while Close() would
  // write fd_ = -1 racing the accepting threads' listener_.fd() reads —
  // and would let the kernel hand the fd number to a concurrent open
  // before an accept() rechecks it.  The fd is closed only after every
  // thread that accepts has exited.
  ::shutdown(listener_.fd(), SHUT_RDWR);
  CallOffFrontEnd();
  front_end_cv_.NotifyAll();
  queue_cv_.NotifyAll();
  if (front_end_thread_.joinable()) front_end_thread_.join();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  listener_.Close();
  if (duty_thread_.joinable()) duty_thread_.join();
  // Workers and duties are quiesced, so no more Emits: settle the JSONL
  // mirror before Stop returns (artifact collectors read it next).
  server_->journal().Flush();
  MutexLock lock(mutex_);
  pending_.clear();  // RAII closes any queued connections
}

TcpServerHost::AcceptState TcpServerHost::accept_state() {
  MutexLock lock(mutex_);
  return {front_end_accepting_, idle_workers_};
}

void TcpServerHost::FrontEndLoop() {
  AcceptPacer pacer;
  while (true) {
    {
      MutexLock lock(mutex_);
      // Idle workers accept for themselves; the front end owns the
      // listener only once every worker is busy (LeaveIdleLocked).
      while (!stopping_ && !front_end_accepting_) front_end_cv_.Wait(mutex_);
      if (stopping_) return;
    }
    // Wait for a connection, or for a worker going idle to call the front
    // end off.  No worker accepts meanwhile, so a readable listener has a
    // connection for accept() to return.
    pollfd ready[] = {{listener_.fd(), POLLIN, 0},
                      {step_back_.fd(), POLLIN, 0}};
    if (::poll(ready, 2, -1) <= 0) continue;
    if (ready[1].revents == 0) {
      int fd = ::accept(listener_.fd(), nullptr, nullptr);
      pacer.After(fd, errno);
      Admit(Socket(fd));
      continue;
    }
    uint64_t calls = 0;
    ssize_t drained = ::read(step_back_.fd(), &calls, sizeof(calls));
    (void)drained;
    // Called off.  First admit every connection the kernel queued while
    // every worker was busy: the idle worker takes the first from
    // pending_, and the rest are queued or shed against L_sq, as if the
    // front end had accepted them on arrival, so §5.2 does not depend on
    // how soon the front end ran.
    pollfd listener = {listener_.fd(), POLLIN, 0};
    while (::poll(&listener, 1, 0) > 0) {
      int fd = ::accept(listener_.fd(), nullptr, nullptr);
      if (fd < 0) break;  // shut down by Stop
      Admit(Socket(fd));
    }
    {
      MutexLock lock(mutex_);
      // Keep the listener if every worker is busy again: the idle ones
      // took admitted connections, or the call-off is stale (its worker
      // left idle again after a step-back it did not wait for).
      front_end_accepting_ = idle_workers_ == 0;
    }
    queue_cv_.NotifyAll();
  }
}

void TcpServerHost::Admit(Socket conn) {
  if (!conn.valid()) return;
  bool queued = false;
  {
    MutexLock lock(mutex_);
    if (pending_.size() <
        static_cast<size_t>(server_->params().socket_queue_length)) {
      pending_.push_back(
          PendingConn{std::move(conn), server_->clock()->Now()});
      queued = true;
    }
  }
  if (queued) {
    queue_cv_.NotifyOne();  // a worker waiting for the step-back takes it
    return;
  }
  // Socket queue overflow: graceful 503 (§5.2) and close.  The server
  // never sees the request; feed its outcome counters and event journal
  // (nullptr: the drop happens before the wire bytes are parsed, so the
  // event has no target or trace id).  Both the 503 write and the
  // journal emit happen outside mutex_ — a slow client reading its
  // rejection must not stall the accept path or the workers draining the
  // queue.
  server_->CountQueueDrop(nullptr);
  (void)WriteResponse(conn, http::MakeOverloadedResponse());
}

void TcpServerHost::TakeQueuedLocked(Socket* conn,
                                     std::optional<MicroTime>* queued_at) {
  *conn = std::move(pending_.front().conn);
  *queued_at = pending_.front().queued_at;
  pending_.pop_front();
}

void TcpServerHost::CallOffFrontEnd() {
  uint64_t one = 1;
  ssize_t written = ::write(step_back_.fd(), &one, sizeof(one));
  (void)written;
}

void TcpServerHost::LeaveIdleLocked() {
  if (--idle_workers_ > 0) return;
  front_end_accepting_ = true;
  front_end_cv_.NotifyOne();
}

void TcpServerHost::WorkerLoop() {
  // sendfile(2) has no MSG_NOSIGNAL, and a client that closes mid-body
  // would raise SIGPIPE, whose default action ends the process.  Blocked
  // here, it stays pending on this thread and does nothing.
  sigset_t pipe;
  sigemptyset(&pipe);
  sigaddset(&pipe, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &pipe, nullptr);
  AcceptPacer pacer;
  while (true) {
    Socket conn;
    std::optional<MicroTime> queued_at;
    {
      MutexLock lock(mutex_);
      // Idle.  While the front end owns the listener, wait until it
      // queues a connection or steps back; pending_ comes before the
      // listener.
      while (!stopping_ && pending_.empty() && front_end_accepting_) {
        queue_cv_.Wait(mutex_);
      }
      if (stopping_) return;
      if (!pending_.empty()) {
        TakeQueuedLocked(&conn, &queued_at);
        LeaveIdleLocked();
      }
    }
    if (!conn.valid()) {
      // Nothing queued and the front end has stepped back: accept here
      // and serve the connection without a hand-off.
      int fd = ::accept(listener_.fd(), nullptr, nullptr);
      int error = errno;
      conn = Socket(fd);
      {
        MutexLock lock(mutex_);
        if (stopping_) return;
        if (conn.valid()) LeaveIdleLocked();
      }
      pacer.After(fd, error);
      if (!conn.valid()) continue;
    }
    // Busy.  Serve, then take the next queued connection without going
    // idle, so the front end keeps the listener while the queue lasts.
    bool call_off = false;
    for (bool busy = true; busy;) {
      ServeConnection(std::move(conn), queued_at);
      MutexLock lock(mutex_);
      if (stopping_) return;
      busy = !pending_.empty();
      if (busy) {
        TakeQueuedLocked(&conn, &queued_at);
      } else {
        ++idle_workers_;
        call_off = front_end_accepting_;
      }
    }
    if (call_off) CallOffFrontEnd();
  }
}

void TcpServerHost::ServeConnection(Socket conn,
                                    std::optional<MicroTime> queued_at) {
  // HTTP/1.0: one request per connection.  A request is a few hundred
  // bytes, so a small stack buffer takes it without an allocation; the
  // framer accumulates a longer one across reads.
  MicroTime read_start = server_->clock()->Now();
  http::MessageFramer framer;
  std::optional<std::string> wire;
  char buffer[4096];
  while (!wire.has_value()) {
    auto read = ReadInto(conn, buffer);
    if (!read.ok() || *read == 0) return;  // peer went away
    framer.Feed(std::string_view(buffer, *read));
    if (framer.has_error()) {
      (void)WriteResponse(conn, MakeBadRequest());
      return;
    }
    wire = framer.NextMessage();
  }
  auto request = http::ParseRequest(*wire);
  if (!request.ok()) {
    (void)WriteResponse(conn, MakeBadRequest());
    return;
  }
  core::RequestTrace trace;
  if (queued_at.has_value() && read_start > *queued_at) {
    trace.queue_wait = read_start - *queued_at;
  }
  MicroTime parsed = server_->clock()->Now();
  if (parsed > read_start) trace.parse_micros = parsed - read_start;
  http::Response response =
      server_->HandleRequest(*request, network_, &trace);
  MicroTime write_start = server_->clock()->Now();
  (void)WriteResponse(conn, response);
  server_->ObserveNetWrite(server_->clock()->Now() - write_start);
}

void TcpServerHost::DutyLoop() {
  // Statistics + pinger thread (Tick spaces the real work by T_st /
  // T_pi / T_val internally).
  while (true) {
    {
      MutexLock lock(mutex_);
      if (stopping_) return;
    }
    server_->Tick(network_);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TcpNetwork::~TcpNetwork() { StopAll(); }

Result<TcpServerHost*> TcpNetwork::AddServer(core::Server* server,
                                             uint16_t listen_port) {
  DCWS_ASSIGN_OR_RETURN(std::unique_ptr<TcpServerHost> host,
                        TcpServerHost::Start(server, this, listen_port));
  TcpServerHost* raw = host.get();
  MutexLock lock(mutex_);
  ports_[server->address()] = raw->port();
  hosts_[server->address()] = std::move(host);
  return raw;
}

bool TcpNetwork::StopServer(const http::ServerAddress& address) {
  std::unique_ptr<TcpServerHost> host;
  {
    MutexLock lock(mutex_);
    auto it = hosts_.find(address);
    if (it == hosts_.end()) return false;
    host = std::move(it->second);
    hosts_.erase(it);
    // ports_ keeps the entry: dials now get connection-refused.
  }
  // Stop outside the lock — in-flight ServeConnection handlers may call
  // back into Execute/Resolve.
  host->Stop();
  MutexLock lock(mutex_);
  retired_.push_back(std::move(host));
  return true;
}

Result<TcpServerHost*> TcpNetwork::StartServer(core::Server* server) {
  uint16_t port = 0;
  {
    MutexLock lock(mutex_);
    auto it = ports_.find(server->address());
    if (it == ports_.end()) {
      return Status::NotFound("server never added: " +
                              server->address().ToString());
    }
    if (hosts_.contains(server->address())) {
      return Status::FailedPrecondition("server already running: " +
                                        server->address().ToString());
    }
    port = it->second;
  }
  // SO_REUSEADDR on the listener makes rebinding the same port safe even
  // with lingering TIME_WAIT connections from the previous incarnation.
  DCWS_ASSIGN_OR_RETURN(std::unique_ptr<TcpServerHost> host,
                        TcpServerHost::Start(server, this, port));
  TcpServerHost* raw = host.get();
  MutexLock lock(mutex_);
  hosts_[server->address()] = std::move(host);
  return raw;
}

bool TcpNetwork::RemoveServer(const http::ServerAddress& address) {
  bool stopped = StopServer(address);
  MutexLock lock(mutex_);
  return ports_.erase(address) > 0 || stopped;
}

uint16_t TcpNetwork::Resolve(const http::ServerAddress& address) const {
  MutexLock lock(mutex_);
  auto it = ports_.find(address);
  return it == ports_.end() ? 0 : it->second;
}

void TcpNetwork::StopAll() {
  std::vector<TcpServerHost*> hosts;
  {
    MutexLock lock(mutex_);
    for (auto& [address, host] : hosts_) hosts.push_back(host.get());
  }
  for (TcpServerHost* host : hosts) host->Stop();
}

Result<http::Response> TcpCall(uint16_t port,
                               const http::Request& request) {
  DCWS_ASSIGN_OR_RETURN(Socket conn, ConnectLoopback(port));
  DCWS_RETURN_IF_ERROR(WriteAll(conn, request.Serialize()));
  return ReadResponse(conn);
}

Result<http::Response> ReadResponse(const Socket& conn) {
  http::MessageFramer framer;
  // One buffer for every read of the response, never zero-filled: a
  // multi-MB co-op fetch still reads 64 KiB per recv.
  constexpr size_t kChunk = 64 * 1024;
  auto buffer = std::make_unique_for_overwrite<char[]>(kChunk);
  while (true) {
    auto read = ReadInto(conn, std::span<char>(buffer.get(), kChunk));
    if (!read.ok()) return read.status();
    if (*read == 0) {
      return Status::Unavailable("connection closed mid-response");
    }
    framer.Feed(std::string_view(buffer.get(), *read));
    if (framer.has_error()) return framer.error();
    if (auto wire = framer.NextMessage()) {
      return http::ParseResponse(*wire);
    }
  }
}

Result<http::Response> TcpNetwork::Execute(
    const http::ServerAddress& target, const http::Request& request) {
  uint16_t port = Resolve(target);
  if (port == 0) {
    return Status::NotFound("no such server: " + target.ToString());
  }
  return TcpCall(port, request);
}

Result<http::Response> TcpFetcher::Fetch(const http::Url& url) {
  http::Request request;
  request.method = "GET";
  request.target = url.path;
  request.headers.Set(std::string(http::kHeaderHost), url.Authority());
  return network_->Execute({url.host, url.port}, request);
}

}  // namespace dcws::net
