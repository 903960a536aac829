#ifndef DCWS_CORE_CLUSTER_H_
#define DCWS_CORE_CLUSTER_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/server.h"
#include "src/util/mutex.h"

namespace dcws::core {

// Zero-latency synchronous dispatch between servers in one process.
// Used directly by unit/integration tests and wrapped by the simulator
// (which adds modelled costs).
// Supports failure injection: a server marked down is unreachable, which
// is how crash-consistency tests exercise §4.5.
class LoopbackNetwork : public PeerClient {
 public:
  void AddServer(Server* server);
  // Unregisters a server (membership removal); subsequent calls to it
  // fail NotFound, and any down marking is cleared.
  void RemoveServer(const http::ServerAddress& address);
  void SetDown(const http::ServerAddress& address, bool down);
  bool IsDown(const http::ServerAddress& address) const;

  Result<http::Response> Execute(const http::ServerAddress& target,
                                 const http::Request& request) override;

  Server* Find(const http::ServerAddress& address) const;

 private:
  mutable Mutex mutex_;
  std::unordered_map<http::ServerAddress, Server*,
                     http::ServerAddressHash>
      servers_ DCWS_GUARDED_BY(mutex_);
  std::set<http::ServerAddress> down_ DCWS_GUARDED_BY(mutex_);
};

// Convenience owner of a fully-peered group of DCWS servers sharing one
// clock and parameter set — "any available machine may be added as a
// cooperating server".
class Cluster {
 public:
  // Creates `count` servers named <host_prefix>1..N on consecutive ports.
  Cluster(int count, const ServerParams& params, const Clock* clock,
          const std::string& host_prefix = "server",
          uint16_t base_port = 8001);

  size_t size() const { return servers_.size(); }
  Server& server(size_t i) { return *servers_[i]; }
  LoopbackNetwork& network() { return network_; }

  // Runs every server's periodic duties once.
  void TickAll();

  // Adds another empty server to the group, peered with everyone.
  Server& AddServer();

  // Removes server `i` from the running group with document re-homing:
  // the victim first recalls its own migrated documents, every remaining
  // server recalls documents placed on the victim and forgets it, and
  // the victim is unregistered from the network.  Later servers shift
  // down one index.
  void RemoveServer(size_t i);

 private:
  ServerParams params_;
  const Clock* clock_;
  std::string host_prefix_;
  uint16_t next_port_;
  std::vector<std::unique_ptr<Server>> servers_;
  LoopbackNetwork network_;
};

}  // namespace dcws::core

#endif  // DCWS_CORE_CLUSTER_H_
