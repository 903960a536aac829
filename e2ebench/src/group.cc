#include "e2ebench/src/group.h"

#include <thread>

namespace dcws::e2e {

Result<std::unique_ptr<ServerGroup>> ServerGroup::Start(
    const workload::SiteSpec& site, const core::ServerParams& params,
    int servers, const Clock* clock) {
  std::unique_ptr<ServerGroup> group(new ServerGroup());
  for (int i = 0; i < servers; ++i) {
    http::ServerAddress address{"dcws" + std::to_string(i + 1),
                                static_cast<uint16_t>(8001 + i)};
    group->servers_.push_back(
        std::make_unique<core::Server>(address, params, clock));
  }
  for (auto& a : group->servers_) {
    for (auto& b : group->servers_) {
      if (a != b) a->RegisterPeer(b->address());
    }
  }
  DCWS_RETURN_IF_ERROR(
      group->home().LoadSite(site.documents, site.entry_points));
  group->network_ = std::make_unique<net::TcpNetwork>();
  for (auto& server : group->servers_) {
    DCWS_ASSIGN_OR_RETURN(net::TcpServerHost * host,
                          group->network_->AddServer(server.get()));
    (void)host;
  }

  // Ready = the home serves its first entry point.
  http::Request probe;
  probe.target = site.entry_points.empty() ? "/" : site.entry_points[0];
  probe.headers.Set(std::string(http::kHeaderHost),
                    group->home().address().ToString());
  for (int attempt = 0;; ++attempt) {
    auto response = group->network_->Execute(group->home().address(), probe);
    if (response.ok() && response->status_code == 200) break;
    if (attempt == 1000) {
      return Status::Unavailable("home never answered its entry point");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return group;
}

ServerGroup::~ServerGroup() {
  // Hosts hold pointers to the servers: stop them first.
  if (network_) network_->StopAll();
  network_.reset();
}

std::vector<http::ServerAddress> ServerGroup::addresses() const {
  std::vector<http::ServerAddress> out;
  for (const auto& server : servers_) out.push_back(server->address());
  return out;
}

std::vector<http::Url> ServerGroup::EntryUrls(
    const workload::SiteSpec& site) const {
  const http::ServerAddress& home = servers_[0]->address();
  std::vector<http::Url> urls;
  for (const std::string& path : site.entry_points) {
    urls.push_back(http::Url{home.host, home.port, path});
  }
  return urls;
}

void ServerGroup::SetPacing(MicroTime stats_interval,
                            MicroTime migration_interval,
                            MicroTime coop_accept_interval) {
  for (auto& server : servers_) {
    server->SetPacing(stats_interval, migration_interval,
                      coop_accept_interval);
  }
}

}  // namespace dcws::e2e
