#include "src/net/tcp.h"

#include <sys/socket.h>
#include <unistd.h>

#include "src/http/wire.h"
#include "src/util/logging.h"

namespace dcws::net {

namespace {

// Every response the host writes: the serialized head and the entity go
// out in one vectored write, so a stored document is sent from the
// store's bytes without being copied behind its head.
Status WriteResponse(const Socket& conn, const http::Response& response) {
  std::string head = response.SerializeHead();
  std::string_view parts[] = {head, response.entity()};
  return WriteAll(conn, parts);
}

http::Response MakeBadRequest() {
  http::Response bad;
  bad.status_code = 400;
  return bad;
}

}  // namespace

TcpServerHost::TcpServerHost(core::Server* server, TcpNetwork* network)
    : server_(server), network_(network) {}

Result<std::unique_ptr<TcpServerHost>> TcpServerHost::Start(
    core::Server* server, TcpNetwork* network, uint16_t listen_port) {
  std::unique_ptr<TcpServerHost> host(
      new TcpServerHost(server, network));
  uint16_t bound = 0;
  DCWS_ASSIGN_OR_RETURN(
      host->listener_,
      ListenLoopback(listen_port,
                     server->params().socket_queue_length, &bound));
  host->port_ = bound;

  host->accept_thread_ = std::thread([h = host.get()]() {
    h->AcceptLoop();
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
  // Wake the blocked accept() WITHOUT closing the listener: shutdown()
  // only reads the fd, while Close() would write fd_ = -1 racing the
  // accept thread's listener_.fd() read — and would let the kernel hand
  // the fd number to a concurrent open before accept() rechecks it.  A
  // self-connection poke covers platforms where shutdown() on a
  // listening socket does not unblock accept.  The fd is closed only
  // after the accept thread has exited.
  ::shutdown(listener_.fd(), SHUT_RDWR);
  { auto poke = ConnectLoopback(port_); }
  queue_cv_.NotifyAll();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (duty_thread_.joinable()) duty_thread_.join();
  // Workers and duties are quiesced, so no more Emits: settle the JSONL
  // mirror before Stop returns (artifact collectors read it next).
  server_->journal().Flush();
  MutexLock lock(mutex_);
  pending_.clear();  // RAII closes any queued connections
}

void TcpServerHost::AcceptLoop() {
  while (true) {
    int fd = ::accept(listener_.fd(), nullptr, nullptr);
    {
      MutexLock lock(mutex_);
      if (stopping_) {
        if (fd >= 0) ::close(fd);
        return;
      }
    }
    if (fd < 0) {
      MutexLock lock(mutex_);
      if (stopping_) return;
      continue;
    }
    Socket conn(fd);
    bool enqueued = false;
    {
      MutexLock lock(mutex_);
      if (pending_.size() <
          static_cast<size_t>(server_->params().socket_queue_length)) {
        pending_.push_back(
            PendingConn{std::move(conn), server_->clock()->Now()});
        enqueued = true;
      }
    }
    if (!enqueued) {
      // Socket queue overflow: graceful 503 (§5.2) and close.  The
      // server never sees the request; feed its outcome counters and
      // event journal (nullptr: the drop happens before the wire bytes
      // are parsed, so the event has no target or trace id).  Both the
      // 503 write and the journal emit happen outside mutex_ — a slow
      // client reading its rejection must not stall the accept path or
      // the workers draining the queue.
      server_->CountQueueDrop(nullptr);
      (void)WriteResponse(conn, http::MakeOverloadedResponse());
      continue;
    }
    queue_cv_.NotifyOne();
  }
}

void TcpServerHost::WorkerLoop() {
  while (true) {
    PendingConn pending;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && pending_.empty()) queue_cv_.Wait(mutex_);
      if (stopping_) return;
      pending = std::move(pending_.front());
      pending_.pop_front();
    }
    ServeConnection(std::move(pending.conn), pending.accepted_at);
  }
}

void TcpServerHost::ServeConnection(Socket conn, MicroTime accepted_at) {
  // HTTP/1.0: one request per connection.
  MicroTime read_start = server_->clock()->Now();
  http::MessageFramer framer;
  std::optional<std::string> wire;
  while (!wire.has_value()) {
    auto chunk = ReadSome(conn);
    if (!chunk.ok() || chunk->empty()) return;  // peer went away
    framer.Feed(*chunk);
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
  if (read_start > accepted_at) {
    trace.queue_wait = read_start - accepted_at;
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
  http::MessageFramer framer;
  while (true) {
    auto chunk = ReadSome(conn);
    if (!chunk.ok()) return chunk.status();
    if (chunk->empty()) {
      return Status::Unavailable("connection closed mid-response");
    }
    framer.Feed(*chunk);
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
