#include "tests/harness/cluster_harness.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "src/http/message.h"
#include "src/obs/export.h"
#include "src/obs/history.h"
#include "src/util/logging.h"

namespace dcws::test {

namespace {

// Polling quantum for Wait*/DriveUntil.  Small enough that predicates
// react within a few milliseconds of the state change, large enough not
// to starve a single-core machine running the cluster's own threads.
constexpr auto kPollInterval = std::chrono::milliseconds(2);

std::pair<std::string, std::string> PartitionKey(
    const http::ServerAddress& a, const http::ServerAddress& b) {
  std::string sa = a.ToString();
  std::string sb = b.ToString();
  return sa < sb ? std::make_pair(sa, sb) : std::make_pair(sb, sa);
}

// Starting a host binds a loopback port, the one harness step that can
// fail; a member without a host would void every later assertion.
void CheckHost(const Result<net::TcpServerHost*>& host, const char* step,
               const http::ServerAddress& address) {
  if (host.ok()) return;
  DCWS_LOG(kError) << step << " failed for " << address.ToString() << ": "
                   << host.status().ToString();
  std::abort();
}

}  // namespace

core::ServerParams ClusterHarness::ChaosParams() {
  core::ServerParams params;
  params.worker_threads = 3;
  params.stats_interval = Millis(50);
  params.load_window = Millis(100);
  params.pinger_interval = Millis(100);
  params.validation_interval = Millis(200);
  params.remigrate_interval = Seconds(30);  // keep T_home out of the way
  params.coop_accept_interval = Millis(250);
  params.hit_threshold = 1;
  params.min_load_cps = 2;
  // History samples land on the accelerated duty cadence, so even a
  // short chaos scenario dumps a multi-sample trend per instrument.
  params.history_interval = Millis(100);
  return params;
}

ClusterHarness::ClusterHarness(Options options)
    : options_(std::move(options)),
      trace_ids_(obs::SeedFromName("cluster-harness")),
      next_port_(options_.base_port) {
  for (int i = 0; i < options_.servers; ++i) AddMember();
}

ClusterHarness::~ClusterHarness() {
  // Stop hosts before the Server objects they point at go away.
  network_.StopAll();
}

void ClusterHarness::AddMember() {
  http::ServerAddress address;
  address.host = options_.host_prefix + std::to_string(next_name_++);
  address.port = next_port_++;
  auto server =
      std::make_unique<core::Server>(address, options_.params, &clock_);
  for (Member& member : members_) {
    member.server->RegisterPeer(address);
    server->RegisterPeer(member.server->address());
  }
  CheckHost(network_.AddServer(server.get()), "AddServer", address);
  members_.push_back(Member{std::move(server), true});
}

void ClusterHarness::StartServer(size_t i) {
  if (members_[i].running) return;
  CheckHost(network_.StartServer(members_[i].server.get()), "StartServer",
            address(i));
  members_[i].running = true;
}

void ClusterHarness::StopServer(size_t i) {
  if (!members_[i].running) return;
  network_.StopServer(address(i));
  members_[i].running = false;
}

void ClusterHarness::PartitionPinger(size_t i, size_t j) {
  server(i).pinger().InjectProbeFailure(address(j), true);
  server(j).pinger().InjectProbeFailure(address(i), true);
  partitions_.insert(PartitionKey(address(i), address(j)));
}

void ClusterHarness::HealPinger(size_t i, size_t j) {
  server(i).pinger().InjectProbeFailure(address(j), false);
  server(j).pinger().InjectProbeFailure(address(i), false);
  partitions_.erase(PartitionKey(address(i), address(j)));
}

size_t ClusterHarness::AddServer() {
  AddMember();
  return members_.size() - 1;
}

void ClusterHarness::RemoveServer(size_t i) {
  core::Server* victim = members_[i].server.get();
  const http::ServerAddress victim_address = victim->address();
  // Re-homing protocol, same order as core::Cluster::RemoveServer: the
  // victim's own placements come home first (so co-ops elsewhere drop
  // their entries), then every survivor recalls what it placed on the
  // victim and forgets it, then the host goes away.
  if (members_[i].running) victim->RecallAll(&network_);
  for (size_t j = 0; j < members_.size(); ++j) {
    if (j == i) continue;
    members_[j].server->ForgetPeer(victim_address, &network_);
  }
  network_.RemoveServer(victim_address);
  // Drop any partition bookkeeping that involved the victim.
  for (auto it = partitions_.begin(); it != partitions_.end();) {
    if (it->first == victim_address.ToString() ||
        it->second == victim_address.ToString()) {
      it = partitions_.erase(it);
    } else {
      ++it;
    }
  }
  members_.erase(members_.begin() + static_cast<ptrdiff_t>(i));
}

Result<http::Response> ClusterHarness::Get(size_t i,
                                           const std::string& target) {
  http::Request request;
  request.method = "GET";
  request.target = target;
  return network_.Execute(address(i), request);
}

ClusterHarness::TracedGet ClusterHarness::GetTraced(
    size_t i, const std::string& target) {
  TracedGet traced;
  traced.id = trace_ids_.Next();
  http::Request request;
  request.method = "GET";
  request.target = target;
  request.headers.Set(std::string(http::kHeaderDcwsTrace),
                      obs::FormatTraceId(traced.id));
  traced.response = network_.Execute(address(i), request);
  return traced;
}

Result<std::string> ClusterHarness::StatusJson(size_t i) {
  DCWS_ASSIGN_OR_RETURN(http::Response response,
                        Get(i, "/.dcws/status?format=json"));
  if (response.status_code != 200) {
    return Status::Internal("status endpoint returned " +
                            std::to_string(response.status_code));
  }
  return response.body;
}

std::optional<double> ClusterHarness::MetricValue(
    size_t i, const std::string& name) {
  auto json = StatusJson(i);
  if (!json.ok()) return std::nullopt;
  // The ExportJson schema is regular enough for a scan:
  //   {"name":"<name>","labels":{...},"type":"counter","value":N}
  std::string needle = "\"name\":\"" + name + "\"";
  size_t at = json->find(needle);
  if (at == std::string::npos) return std::nullopt;
  size_t end = json->find('}', at);  // closes this metric's labels obj
  end = json->find('}', end == std::string::npos ? at : end + 1);
  size_t value_at = json->find("\"value\":", at);
  if (value_at == std::string::npos ||
      (end != std::string::npos && value_at > end)) {
    return std::nullopt;  // histogram (no scalar value) or truncated
  }
  return std::strtod(json->c_str() + value_at + 8, nullptr);
}

bool ClusterHarness::TraceSeen(size_t i, obs::TraceId id) {
  auto response = Get(i, "/.dcws/traces?format=json");
  if (!response.ok() || response->status_code != 200) return false;
  return response->body.find(obs::FormatTraceId(id)) !=
         std::string::npos;
}

bool ClusterHarness::WaitFor(const std::function<bool()>& predicate,
                             MicroTime timeout) {
  const MicroTime deadline =
      clock_.Now() + (timeout > 0 ? timeout : options_.default_timeout);
  while (true) {
    if (predicate()) return true;
    if (clock_.Now() >= deadline) return false;
    std::this_thread::sleep_for(kPollInterval);
  }
}

bool ClusterHarness::Partitioned(size_t i, size_t j) const {
  return partitions_.contains(
      PartitionKey(members_[i].server->address(),
                   members_[j].server->address()));
}

bool ClusterHarness::SyncedNow() {
  // Index of running addresses for placement checks.
  std::set<std::string> running_addresses;
  for (const Member& member : members_) {
    if (member.running) {
      running_addresses.insert(member.server->address().ToString());
    }
  }
  for (const Member& member : members_) {
    if (!member.running) continue;
    core::Server& server = *member.server;
    for (const auto& view : server.ldg().MigratedSnapshot()) {
      if (!running_addresses.contains(view.location.ToString())) {
        return false;
      }
    }
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    for (size_t j = i + 1; j < members_.size(); ++j) {
      if (!members_[i].running || !members_[j].running) continue;
      if (Partitioned(i, j)) continue;
      if (members_[i].server->pinger().IsDown(address(j))) return false;
      if (members_[j].server->pinger().IsDown(address(i))) return false;
    }
  }
  return true;
}

bool ClusterHarness::WaitSync() {
  return WaitFor([this]() { return SyncedNow(); });
}

bool ClusterHarness::WaitMigrated(size_t home, const std::string& doc) {
  return WaitFor([this, home, doc]() {
    auto brief = server(home).ldg().Brief(doc);
    return brief.ok() && !(brief->location == address(home));
  });
}

bool ClusterHarness::WaitRecall(size_t home, const std::string& doc) {
  return WaitFor([this, home, doc]() {
    auto brief = server(home).ldg().Brief(doc);
    return brief.ok() && brief->location == address(home);
  });
}

bool ClusterHarness::WaitHosted(size_t coop, const std::string& target) {
  return WaitFor([this, coop, target]() {
    return server(coop).coop_table().Get(target).ok();
  });
}

bool ClusterHarness::WaitRevalidated(size_t coop,
                                     const std::string& target,
                                     MicroTime after) {
  return WaitFor([this, coop, target, after]() {
    auto hosted = server(coop).coop_table().Get(target);
    return hosted.ok() && hosted->last_validated >= after;
  });
}

bool ClusterHarness::WaitPeerDown(size_t observer, size_t peer) {
  return WaitFor([this, observer, peer]() {
    return server(observer).pinger().IsDown(address(peer));
  });
}

bool ClusterHarness::WaitPeerUp(size_t observer, size_t peer) {
  return WaitFor([this, observer, peer]() {
    return !server(observer).pinger().IsDown(address(peer));
  });
}

bool ClusterHarness::WaitTraceSeen(size_t i, obs::TraceId id) {
  return WaitFor([this, i, id]() { return TraceSeen(i, id); });
}

std::vector<obs::Event> ClusterHarness::Events(size_t i,
                                               uint64_t since) const {
  return members_[i].server->journal().Snapshot(since);
}

std::optional<obs::Event> ClusterHarness::FindEvent(
    size_t i, obs::EventType type, const EventMatch& match) const {
  for (obs::Event& event : Events(i)) {
    if (event.type != type) continue;
    if (match != nullptr && !match(event)) continue;
    return std::move(event);
  }
  return std::nullopt;
}

std::optional<obs::Event> ClusterHarness::WaitEvent(size_t i,
                                                    obs::EventType type,
                                                    EventMatch match,
                                                    MicroTime timeout) {
  std::optional<obs::Event> found;
  WaitFor(
      [&]() {
        found = FindEvent(i, type, match);
        return found.has_value();
      },
      timeout);
  return found;
}

bool ClusterHarness::DriveUntil(
    size_t i, const std::vector<std::string>& targets,
    const std::function<bool()>& predicate) {
  const MicroTime deadline = clock_.Now() + options_.default_timeout;
  size_t next = 0;
  while (true) {
    if (predicate()) return true;
    if (clock_.Now() >= deadline) return false;
    (void)Get(i, targets[next++ % targets.size()]);
    std::this_thread::sleep_for(kPollInterval);
  }
}

std::string ClusterHarness::DumpStatus() {
  // Read the registries and trace rings directly rather than over HTTP,
  // so stopped members still dump (that is exactly when we need them).
  std::string out;
  for (const Member& member : members_) {
    core::Server& server = *member.server;
    out += "==== " + server.address().ToString() +
           (member.running ? "" : " (stopped)") + " ====\n";
    out += obs::ExportText(server.metrics().Snapshot());
    out += "---- traces ----\n";
    out += obs::FormatTracesJson(server.recent_traces().Snapshot(),
                                 server.slow_traces().Snapshot());
    out += "---- history ----\n";
    out += obs::FormatHistoryText(server.history().Snapshot());
    out += "\n---- events (" + std::to_string(server.journal().total()) +
           " total, " + std::to_string(server.journal().dropped()) +
           " evicted) ----\n";
    for (const obs::Event& event : server.journal().Snapshot()) {
      out += obs::FormatEventText(event);
    }
    out += "\n";
  }
  return out;
}

void ClusterHarness::WriteArtifacts(const std::string& label) {
  const char* dir = std::getenv("DCWS_CHAOS_ARTIFACTS");
  if (dir == nullptr || *dir == '\0') return;
  std::string path = std::string(dir) + "/" + label + ".dump.txt";
  std::ofstream out(path);
  if (!out) {
    DCWS_LOG(kWarning) << "cannot write chaos artifact " << path;
    return;
  }
  out << DumpStatus();
  DCWS_LOG(kInfo) << "chaos artifact written: " << path;
}

}  // namespace dcws::test
