#include "src/baseline/rr_dns.h"

#include <memory>

namespace dcws::baseline {

namespace {

// Disables DCWS migration: baselines rely on replication, not document
// movement.
void DisableMigration(core::ServerParams& params) {
  params.min_load_cps = 1e18;
}

struct MeasuredRates {
  double cps = 0;
  double bps = 0;
  double drop_rate = 0;
};

// Shared warm-up + measured-window loop for baseline worlds.
MeasuredRates MeasureWindow(sim::SimWorld& world, MicroTime warmup,
                            MicroTime measure) {
  world.queue().RunUntil(warmup);
  sim::ClientTotals start = world.totals();
  world.queue().RunUntil(warmup + measure);
  sim::ClientTotals end = world.totals();

  MeasuredRates rates;
  double seconds = ToSeconds(measure);
  uint64_t connections = end.connections - start.connections;
  uint64_t drops = end.drops - start.drops;
  rates.cps = static_cast<double>(connections) / seconds;
  rates.bps = static_cast<double>(end.bytes - start.bytes) / seconds;
  uint64_t offered = connections + drops;
  rates.drop_rate = offered == 0 ? 0
                                 : static_cast<double>(drops) /
                                       static_cast<double>(offered);
  return rates;
}

}  // namespace

BaselineResult RunRrDnsExperiment(const workload::SiteSpec& site,
                                  const RrDnsConfig& config) {
  sim::SimConfig sim_config = config.sim;
  sim_config.replicate_site_everywhere = true;
  DisableMigration(sim_config.params);

  sim::SimWorld world(site, sim_config);

  // Caching-resolver state: resolver r holds a (server, expiry) mapping;
  // the authoritative DNS round-robins on each refresh.
  struct ResolverCache {
    size_t server = 0;
    MicroTime expires_at = -1;
  };
  int resolvers =
      (config.clients + config.clients_per_resolver - 1) /
      std::max(config.clients_per_resolver, 1);
  auto caches = std::make_shared<std::vector<ResolverCache>>(
      std::max(resolvers, 1));
  auto rr_cursor = std::make_shared<size_t>(0);

  std::vector<std::unique_ptr<sim::SimClient>> clients;
  Rng seeds(sim_config.seed);
  for (int i = 0; i < config.clients; ++i) {
    size_t resolver = static_cast<size_t>(i) % caches->size();
    const workload::SiteSpec* site_ptr = &site;
    auto resolve = [&world, caches, rr_cursor, resolver,
                    ttl = config.dns_ttl, site_ptr](Rng& rng) {
      ResolverCache& cache = (*caches)[resolver];
      if (cache.expires_at < world.Now()) {
        cache.server = (*rr_cursor)++ % world.host_count();
        cache.expires_at = world.Now() + ttl;
      }
      const std::string& entry =
          site_ptr->entry_points[rng.NextBelow(
              site_ptr->entry_points.size())];
      const http::ServerAddress& address =
          world.host(cache.server).address();
      return http::Url{address.host, address.port, entry};
    };
    clients.push_back(std::make_unique<sim::SimClient>(
        &world, std::move(resolve), seeds.NextUint64()));
    clients.back()->Start();
  }

  MeasuredRates rates =
      MeasureWindow(world, config.warmup, config.measure);
  BaselineResult result;
  result.cps = rates.cps;
  result.bps = rates.bps;
  result.drop_rate = rates.drop_rate;
  uint64_t site_bytes = 0;
  for (const auto& doc : site.documents) site_bytes += doc.size();
  result.storage_bytes = site_bytes * world.host_count();
  return result;
}

BaselineResult RunCentralRouterExperiment(
    const workload::SiteSpec& site, const CentralRouterConfig& config) {
  sim::SimConfig sim_config = config.sim;
  sim_config.replicate_site_everywhere = true;
  DisableMigration(sim_config.params);

  auto world = std::make_unique<sim::SimWorld>(site, sim_config);
  sim::SimWorld* w = world.get();

  // The router: a pass-through station in front of the replicas.  Every
  // request costs switching CPU on the way in, and every response body
  // crosses the router NIC on the way out.
  struct Router {
    MicroTime busy_until = 0;
    int pending = 0;
    size_t next_backend = 0;
    uint64_t drops = 0;
  };
  auto router = std::make_shared<Router>();
  const http::ServerAddress vip{"vip", 80};

  w->SetSubmitInterceptor([w, router, vip, config](
                              const http::ServerAddress& target,
                              const http::Request& request,
                              sim::SimHost::ResponseCallback done) {
    if (!(target == vip)) return false;  // server-to-server traffic
    if (router->pending >= config.router_backlog) {
      router->drops += 1;
      w->queue().ScheduleAfter(config.router_connection_cpu,
                               [done = std::move(done)]() {
                                 done(http::MakeOverloadedResponse());
                               });
      return true;
    }
    router->pending += 1;
    // Inbound pass: per-connection switching cost.
    MicroTime start =
        std::max(router->busy_until, w->Now()) +
        config.router_connection_cpu;
    router->busy_until = start;

    size_t backend = router->next_backend++ % w->host_count();
    w->queue().ScheduleAt(start, [w, router, backend, config,
                                  request = request,
                                  done = std::move(done)]() mutable {
      sim::SimHost& host = w->host(backend);
      host.Submit(std::move(request), [w, router, config,
                                       done = std::move(done)](
                                          http::Response response) mutable {
        // Outbound pass: response bytes cross the router NIC.
        MicroTime transmit = static_cast<MicroTime>(
            static_cast<double>(response.body.size()) *
            kMicrosPerSecond /
            static_cast<double>(config.router_bytes_per_sec));
        MicroTime finish =
            std::max(router->busy_until, w->Now()) + transmit;
        router->busy_until = finish;
        w->queue().ScheduleAt(
            finish, [router, done = std::move(done),
                     response = std::move(response)]() mutable {
              router->pending -= 1;
              done(std::move(response));
            });
      });
    });
    return true;
  });

  std::vector<std::unique_ptr<sim::SimClient>> clients;
  Rng seeds(sim_config.seed);
  const workload::SiteSpec* site_ptr = &site;
  for (int i = 0; i < config.clients; ++i) {
    auto through_vip = [vip, site_ptr](Rng& rng) {
      const std::string& entry = site_ptr->entry_points[rng.NextBelow(
          site_ptr->entry_points.size())];
      return http::Url{vip.host, vip.port, entry};
    };
    clients.push_back(std::make_unique<sim::SimClient>(
        w, std::move(through_vip), seeds.NextUint64()));
    clients.back()->Start();
  }

  MeasuredRates rates =
      MeasureWindow(*w, config.warmup, config.measure);
  BaselineResult result;
  result.cps = rates.cps;
  result.bps = rates.bps;
  result.drop_rate = rates.drop_rate;
  uint64_t site_bytes = 0;
  for (const auto& doc : site.documents) site_bytes += doc.size();
  result.storage_bytes = site_bytes * w->host_count();
  return result;
}

}  // namespace dcws::baseline
