#ifndef DCWS_NET_TCP_H_
#define DCWS_NET_TCP_H_

#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/server.h"
#include "src/net/socket_util.h"
#include "src/util/mutex.h"
#include "src/workload/browse.h"

namespace dcws::net {

class TcpNetwork;

// A DCWS server on a real TCP socket — the paper's §5.1 process
// structure: one front-end thread holding the bounded socket queue
// (L_sq; overflow answered 503 and closed), N_wk worker threads parsing
// requests off the wire and serving them, and one statistics/pinger
// duty thread.
//
// Who accepts: every idle worker blocks in accept() on the listener and
// serves the connection it gets itself (Linux wakes one accept() waiter
// per connection), so an idle host hands nothing between threads.  The
// front end owns the listener from the moment the last idle worker
// takes a connection until a worker goes idle again: it queues what it
// accepts in pending_, or answers 503 once pending_ holds L_sq.  A
// worker that finishes while pending_ holds a connection serves it next
// without going idle, so the front end keeps accepting while the queue
// lasts.  A worker that finishes with pending_ empty calls the front end
// off and waits for it.  Before stepping back, the front end admits every
// connection the kernel queued while every worker was busy (the idle
// worker takes the first, the rest meet L_sq), however late the front
// end ran.  Only connections that waited in pending_ record an
// accept_wait span.
//
// Sockets bind 127.0.0.1; server *names* (the host part of
// ServerAddress) resolve through the owning TcpNetwork's registry, which
// stands in for DNS.  You can point curl at the bound port.
class TcpServerHost {
 public:
  // Binds and starts threads.  `listen_port` 0 picks an ephemeral port.
  static Result<std::unique_ptr<TcpServerHost>> Start(
      core::Server* server, TcpNetwork* network, uint16_t listen_port);

  ~TcpServerHost();
  TcpServerHost(const TcpServerHost&) = delete;
  TcpServerHost& operator=(const TcpServerHost&) = delete;

  void Stop();

  core::Server& server() { return *server_; }
  uint16_t port() const { return port_; }

 private:
  TcpServerHost(core::Server* server, TcpNetwork* network);

  void FrontEndLoop();
  void WorkerLoop();
  void DutyLoop();
  // Queues `conn` in pending_, or answers it 503 past L_sq (§5.2).
  void Admit(Socket conn);
  // Pops the oldest queued connection.
  void TakeQueuedLocked(Socket* conn, std::optional<MicroTime>* queued_at)
      DCWS_REQUIRES(mutex_);
  // Hands the listener to the front end when the idle count reaches 0.
  void LeaveIdleLocked() DCWS_REQUIRES(mutex_);
  void CallOffFrontEnd();  // writes step_back_
  // Parses one request off `conn`, serves it, writes the response.
  // HTTP/1.0 semantics: one request per connection.  `queued_at` is when
  // the front end queued the connection (for the accept_wait span); a
  // connection the serving worker accepted itself has none.
  void ServeConnection(Socket conn, std::optional<MicroTime> queued_at);

  core::Server* server_;
  TcpNetwork* network_;
  // Bound by Start before any thread exists; Stop only shutdown()s it
  // (a read of the fd) until every thread that accepts has been joined.
  // dcws-lint: allow(guarded-by): Start-then-Stop lifecycle, see above
  Socket listener_;
  uint16_t port_ DCWS_CONST_AFTER_INIT = 0;  // bound before threads start
  // An eventfd (Socket only holds the fd): a worker that goes idle
  // while the front end owns the listener writes it, and the front end
  // steps back.
  Socket step_back_ DCWS_CONST_AFTER_INIT;  // created before threads start

  Mutex mutex_;
  CondVar front_end_cv_;  // front_end_accepting_ set, or stopping
  CondVar queue_cv_;      // queued, the front end stepped back, or stopping
  // The socket queue (bounded by L_sq), each entry stamped with the time
  // the front end queued it.
  struct PendingConn {
    Socket conn;
    MicroTime queued_at = 0;
  };
  std::deque<PendingConn> pending_ DCWS_GUARDED_BY(mutex_);
  // Workers not serving a connection: in accept(), or waiting for the
  // front end to step back.  Every worker starts idle.
  int idle_workers_ DCWS_GUARDED_BY(mutex_);
  // The front end owns the listener: set when idle_workers_ reaches 0,
  // cleared when the front end steps back.  No worker is in accept()
  // meanwhile.
  bool front_end_accepting_ DCWS_GUARDED_BY(mutex_) = false;
  bool stopping_ DCWS_GUARDED_BY(mutex_) = false;

  // Spawned by Start, joined only by Stop (idempotent via stopping_).
  // dcws-lint: allow(guarded-by): Start/Stop lifecycle serializes these
  std::thread front_end_thread_;
  // dcws-lint: allow(guarded-by): see front_end_thread_
  std::vector<std::thread> workers_;
  // dcws-lint: allow(guarded-by): see front_end_thread_
  std::thread duty_thread_;
};

// Owns a group of TCP hosts and the name registry that maps DCWS server
// names (ServerAddress.host:port) to bound loopback ports.  Implements
// core::PeerClient so server-to-server traffic travels over real
// sockets.
class TcpNetwork : public core::PeerClient {
 public:
  ~TcpNetwork() override;

  // Starts a TCP host for `server` and registers its name.
  // `listen_port` 0 (the default) picks an ephemeral loopback port;
  // tools that need stable ports (dcws_serve --port) pass one.
  Result<TcpServerHost*> AddServer(core::Server* server,
                                   uint16_t listen_port = 0);

  // Crash-kills the host for `address`: listener closed, threads
  // stopped.  The name stays registered, so peers dialing it see
  // connection-refused (Unavailable) — a crashed machine, not a
  // deconfigured one.  Returns false if the name is unknown or already
  // stopped.
  bool StopServer(const http::ServerAddress& address);

  // Restarts a previously stopped server on the SAME loopback port the
  // name already resolves to (its Server state survives, like a process
  // restart over a durable document store).
  Result<TcpServerHost*> StartServer(core::Server* server);

  // Membership removal: stops the host and unregisters the name so
  // later dials fail NotFound.
  bool RemoveServer(const http::ServerAddress& address);

  // The loopback port a server name resolves to (0 if unknown).
  uint16_t Resolve(const http::ServerAddress& address) const;

  void StopAll();

  Result<http::Response> Execute(const http::ServerAddress& target,
                                 const http::Request& request) override;

 private:
  mutable Mutex mutex_;
  std::unordered_map<http::ServerAddress, uint16_t,
                     http::ServerAddressHash>
      ports_ DCWS_GUARDED_BY(mutex_);
  std::unordered_map<http::ServerAddress,
                     std::unique_ptr<TcpServerHost>,
                     http::ServerAddressHash>
      hosts_ DCWS_GUARDED_BY(mutex_);
  // Stopped hosts kept alive until network destruction (a straggler may
  // still hold a pointer returned by AddServer/StartServer).
  std::vector<std::unique_ptr<TcpServerHost>> retired_
      DCWS_GUARDED_BY(mutex_);
};

// Issues one HTTP/1.0 exchange over a fresh loopback connection.
Result<http::Response> TcpCall(uint16_t port,
                               const http::Request& request);

// Reads one HTTP response off `conn`: TcpCall's read half.
Result<http::Response> ReadResponse(const Socket& conn);

// workload::Fetcher over a TcpNetwork (clients resolve names the same
// way the servers do).
class TcpFetcher : public workload::Fetcher {
 public:
  explicit TcpFetcher(TcpNetwork* network) : network_(network) {}
  Result<http::Response> Fetch(const http::Url& url) override;

 private:
  TcpNetwork* network_;
};

}  // namespace dcws::net

#endif  // DCWS_NET_TCP_H_
