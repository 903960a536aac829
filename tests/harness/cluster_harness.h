#ifndef DCWS_TESTS_HARNESS_CLUSTER_HARNESS_H_
#define DCWS_TESTS_HARNESS_CLUSTER_HARNESS_H_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/server.h"
#include "src/net/tcp.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"
#include "src/util/clock.h"

namespace dcws::test {

// A live DCWS cluster owned by a test fixture.  Every member is a
// net::TcpServerHost on a loopback port (accepting workers, a front end
// with the bounded socket queue, duty thread), all members share one
// net::TcpNetwork, and the harness provides the fault injectors and
// convergence predicates the chaos suite is built from:
//
//   StartServer / StopServer   crash-restart a member on its original
//                              port; its Server state — the durable
//                              document store — survives.
//   PartitionPinger            sever the liveness channel between two
//                              members while data traffic still flows
//                              (probe results forced to failure).
//   AddServer / RemoveServer   membership changes against the running
//                              group, with document re-homing on
//                              removal.
//   WaitSync / WaitRecall /    polling predicates over server state,
//   WaitPeerDown / ...         the /.dcws/status JSON endpoint, and
//                              X-DCWS-Trace ids — tests assert on these
//                              instead of sleeping.
//
// Predicates poll every couple of milliseconds up to a deadline; there
// are deliberately NO fixed sleeps in any assertion path, so the suite
// is timing-robust under sanitizers and single-core machines.
class ClusterHarness {
 public:
  // Aggressive intervals so migration / pinger / validation cycles all
  // complete within a test: T_st 50ms, T_pi 100ms, T_val 200ms,
  // hit_threshold 1, min_load_cps 2.
  static core::ServerParams ChaosParams();

  struct Options {
    int servers = 3;
    core::ServerParams params = ChaosParams();
    // Members are named <host_prefix><n>:<base_port + n - 1>; the names
    // resolve through the network's registry to ephemeral loopback ports.
    std::string host_prefix = "node";
    uint16_t base_port = 9101;
    // Deadline for every Wait* predicate.  Generous on purpose: a
    // predicate returns as soon as it holds, so the timeout only bounds
    // the failure case (TSan on one core can be very slow).
    MicroTime default_timeout = Seconds(60);
  };

  explicit ClusterHarness(Options options);
  ~ClusterHarness();

  ClusterHarness(const ClusterHarness&) = delete;
  ClusterHarness& operator=(const ClusterHarness&) = delete;

  // ---- topology ----
  size_t size() const { return members_.size(); }
  core::Server& server(size_t i) { return *members_[i].server; }
  const http::ServerAddress& address(size_t i) const {
    return members_[i].server->address();
  }
  net::TcpNetwork& network() { return network_; }
  bool running(size_t i) const { return members_[i].running; }
  const core::ServerParams& params() const { return options_.params; }

  // ---- lifecycle ----
  // Restarts a stopped member's host on its original port, against its
  // surviving Server state (a process restart over a durable store).
  void StartServer(size_t i);
  // Crash-kills member i's host: queued connections are closed,
  // in-flight requests complete, and dials are refused (Unavailable)
  // until StartServer.
  void StopServer(size_t i);

  // Severs the liveness channel between members i and j, both
  // directions: every probe/piggyback/fetch outcome each records about
  // the other counts as a failure, while data traffic still flows.
  void PartitionPinger(size_t i, size_t j);
  void HealPinger(size_t i, size_t j);

  // Adds a new empty member to the running group, fully peered.
  // Returns its index.
  size_t AddServer();
  // Removes member i from the running group with document re-homing:
  // the victim recalls its own migrated documents, the survivors recall
  // documents they placed on it and forget it, and its host is stopped
  // and its name unregistered.  Later members shift down one index.
  void RemoveServer(size_t i);

  // ---- request helpers ----
  Result<http::Response> Get(size_t i, const std::string& target);
  // GET carrying a freshly minted X-DCWS-Trace id; the id is returned
  // so the test can assert on its propagation (WaitTraceSeen).
  struct TracedGet {
    obs::TraceId id = 0;
    Result<http::Response> response = Status::Unavailable("not sent");
  };
  TracedGet GetTraced(size_t i, const std::string& target);

  // ---- status / trace introspection (over HTTP, like a client) ----
  // Body of GET /.dcws/status?format=json from member i.
  Result<std::string> StatusJson(size_t i);
  // Value of counter/gauge `name` parsed out of member i's status JSON.
  std::optional<double> MetricValue(size_t i, const std::string& name);
  // True when member i's GET /.dcws/traces lists `id`.
  bool TraceSeen(size_t i, obs::TraceId id);

  // ---- convergence predicates (all poll; none sleep for effect) ----
  // Polls until `predicate` holds.  Returns false on deadline.
  bool WaitFor(const std::function<bool()>& predicate,
               MicroTime timeout = 0);

  // Cluster-wide convergence: every running member's migrated placements
  // point at running members, and no running, un-partitioned pair
  // considers each other down.
  bool WaitSync();

  // Placement predicates against member `home`'s LDG.
  bool WaitMigrated(size_t home, const std::string& doc);
  bool WaitRecall(size_t home, const std::string& doc);

  // Co-op table predicates against member `coop`, where `target` is the
  // /~migrate/... form (migrate::EncodeMigratedTarget).
  bool WaitHosted(size_t coop, const std::string& target);
  // Holds once the hosted entry was validated against home at or after
  // `after` (home restart tests: proof of T_val-driven revalidation).
  bool WaitRevalidated(size_t coop, const std::string& target,
                       MicroTime after);

  bool WaitPeerDown(size_t observer, size_t peer);
  bool WaitPeerUp(size_t observer, size_t peer);
  bool WaitTraceSeen(size_t i, obs::TraceId id);

  // ---- event-journal predicates ----
  // Member i's event journal (events with seq > since, oldest first),
  // read directly.  Works on stopped members too: the journal lives in
  // the Server, which survives a host crash — that is exactly the
  // state a post-mortem assertion needs.
  std::vector<obs::Event> Events(size_t i, uint64_t since = 0) const;
  // Oldest event of `type` in member i's journal that satisfies `match`
  // (no match function = any event of that type).
  using EventMatch = std::function<bool(const obs::Event&)>;
  std::optional<obs::Event> FindEvent(
      size_t i, obs::EventType type,
      const EventMatch& match = nullptr) const;
  // Polls member i's journal until such an event appears; returns it,
  // or nullopt on deadline.
  std::optional<obs::Event> WaitEvent(size_t i, obs::EventType type,
                                      EventMatch match = nullptr,
                                      MicroTime timeout = 0);

  // Sends GETs for `targets` round-robin at member i until `predicate`
  // holds — the stimulus loop for traffic-driven transitions (piggyback
  // recovery, per-request revalidation).  Returns false on deadline.
  bool DriveUntil(size_t i, const std::vector<std::string>& targets,
                  const std::function<bool()>& predicate);

  // ---- failure artifacts ----
  // Status + trace dumps for every running member, one big string.
  std::string DumpStatus();
  // When $DCWS_CHAOS_ARTIFACTS names a directory, writes DumpStatus()
  // to <dir>/<label>.dump.txt (CI uploads these on failure); otherwise
  // a no-op.  Safe to call from a gtest TearDown.
  void WriteArtifacts(const std::string& label);

  const Clock* clock() const { return &clock_; }
  MicroTime Now() const { return clock_.Now(); }

 private:
  struct Member {
    std::unique_ptr<core::Server> server;
    bool running = false;
  };

  void AddMember();
  bool Partitioned(size_t i, size_t j) const;
  bool SyncedNow();

  Options options_;
  WallClock clock_;
  obs::TraceIdGenerator trace_ids_;
  std::vector<Member> members_;
  std::set<std::pair<std::string, std::string>> partitions_;
  net::TcpNetwork network_;
  uint16_t next_port_;
  int next_name_ = 1;
};

}  // namespace dcws::test

#endif  // DCWS_TESTS_HARNESS_CLUSTER_HARNESS_H_
