#ifndef DCWS_E2EBENCH_GROUP_H_
#define DCWS_E2EBENCH_GROUP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/server.h"
#include "src/http/url.h"
#include "src/net/tcp.h"
#include "src/util/clock.h"
#include "src/workload/site.h"

namespace dcws::e2e {

// A DCWS server group on one loopback TcpNetwork, as tools/dcws_serve
// runs it: server 1 ("dcws1:8001") is the home and loads the site,
// servers 2..N start empty.  Every server knows every other.
class ServerGroup {
 public:
  // Constructs the servers, loads the site at the home (store and LDG
  // build), starts every TCP host, and returns once the home has
  // answered a request for the first entry point with 200.
  static Result<std::unique_ptr<ServerGroup>> Start(
      const workload::SiteSpec& site, const core::ServerParams& params,
      int servers, const Clock* clock);

  ~ServerGroup();
  ServerGroup(const ServerGroup&) = delete;
  ServerGroup& operator=(const ServerGroup&) = delete;

  size_t size() const { return servers_.size(); }
  core::Server& server(size_t i) { return *servers_[i]; }
  core::Server& home() { return *servers_[0]; }
  net::TcpNetwork& network() { return *network_; }
  std::vector<http::ServerAddress> addresses() const;
  // The site's entry points as URLs at the home.
  std::vector<http::Url> EntryUrls(const workload::SiteSpec& site) const;

  // Statistics/migration pacing on every server (Server::SetPacing).
  void SetPacing(MicroTime stats_interval, MicroTime migration_interval,
                 MicroTime coop_accept_interval);

 private:
  ServerGroup() = default;

  std::vector<std::unique_ptr<core::Server>> servers_;
  std::unique_ptr<net::TcpNetwork> network_;
};

}  // namespace dcws::e2e

#endif  // DCWS_E2EBENCH_GROUP_H_
