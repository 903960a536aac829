#include "src/core/cluster.h"

namespace dcws::core {

void LoopbackNetwork::AddServer(Server* server) {
  MutexLock lock(mutex_);
  servers_[server->address()] = server;
}

void LoopbackNetwork::RemoveServer(const http::ServerAddress& address) {
  MutexLock lock(mutex_);
  servers_.erase(address);
  down_.erase(address);
}

void LoopbackNetwork::SetDown(const http::ServerAddress& address,
                              bool down) {
  MutexLock lock(mutex_);
  if (down) {
    down_.insert(address);
  } else {
    down_.erase(address);
  }
}

bool LoopbackNetwork::IsDown(const http::ServerAddress& address) const {
  MutexLock lock(mutex_);
  return down_.contains(address);
}

Server* LoopbackNetwork::Find(const http::ServerAddress& address) const {
  MutexLock lock(mutex_);
  auto it = servers_.find(address);
  return it == servers_.end() ? nullptr : it->second;
}

Result<http::Response> LoopbackNetwork::Execute(
    const http::ServerAddress& target, const http::Request& request) {
  Server* server = nullptr;
  {
    MutexLock lock(mutex_);
    if (down_.contains(target)) {
      return Status::Unavailable("server down: " + target.ToString());
    }
    auto it = servers_.find(target);
    if (it == servers_.end()) {
      return Status::NotFound("no such server: " + target.ToString());
    }
    server = it->second;
  }
  // Dispatch outside the lock: the handler may itself call back into the
  // network (co-op fetch through home), and holding the lock would
  // deadlock that re-entrancy.
  http::Response response = server->HandleRequest(request, this);
  // e2ebench's self-test drives its walker and content check through
  // this network, and they read `body`: hand them a copy of the entity.
  if (response.shared.owner != nullptr) {
    response.body = std::string(response.entity());
    response.shared = {};
  }
  return response;
}

Cluster::Cluster(int count, const ServerParams& params,
                 const Clock* clock, const std::string& host_prefix,
                 uint16_t base_port)
    : params_(params),
      clock_(clock),
      host_prefix_(host_prefix),
      next_port_(base_port) {
  for (int i = 0; i < count; ++i) AddServer();
}

Server& Cluster::AddServer() {
  http::ServerAddress address;
  address.host = host_prefix_ + std::to_string(servers_.size() + 1);
  address.port = next_port_++;
  auto server = std::make_unique<Server>(address, params_, clock_);
  // Full peering, both directions.
  for (const auto& existing : servers_) {
    existing->RegisterPeer(address);
    server->RegisterPeer(existing->address());
  }
  network_.AddServer(server.get());
  servers_.push_back(std::move(server));
  return *servers_.back();
}

void Cluster::RemoveServer(size_t i) {
  Server* victim = servers_[i].get();
  const http::ServerAddress address = victim->address();
  // Graceful drain: the victim's own placements come home first (so
  // co-ops elsewhere drop their entries), then the survivors re-home
  // anything they placed on the victim and forget it.
  victim->RecallAll(&network_);
  for (const auto& server : servers_) {
    if (server.get() == victim) continue;
    server->ForgetPeer(address, &network_);
  }
  network_.RemoveServer(address);
  servers_.erase(servers_.begin() + static_cast<ptrdiff_t>(i));
}

void Cluster::TickAll() {
  for (const auto& server : servers_) {
    // A server marked down is crashed: it neither serves nor runs its
    // statistics/pinger duties (otherwise its outbound piggybacks would
    // keep announcing it alive).
    if (network_.IsDown(server->address())) continue;
    server->Tick(&network_);
  }
}

}  // namespace dcws::core
