#ifndef DCWS_MIGRATE_HOME_POLICY_H_
#define DCWS_MIGRATE_HOME_POLICY_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/ldg.h"
#include "src/load/glt.h"
#include "src/migrate/selection.h"
#include "src/obs/events.h"
#include "src/util/clock.h"

namespace dcws::migrate {

// Home-server-side migration policy: decides *when* to migrate, *what*
// (via Algorithm 1) and *where* (the least-loaded co-op), enforcing the
// paper's rate limits — at most one migration per statistics interval
// from a home server, and at most one migration per T_coop into any
// given co-op server (§5.2) — and the T_home re-migration/revocation
// timeout (§4.5).
//
// Pure decision logic with private timing state; the owning server
// executes the decisions against its LDG and transports.  Not
// thread-safe: the statistics module calls it from one thread.
class HomeMigrationPolicy {
 public:
  struct Config {
    MicroTime migration_interval = 10 * kMicrosPerSecond;    // T_st pace
    MicroTime coop_accept_interval = 60 * kMicrosPerSecond;  // T_coop
    MicroTime remigrate_interval = 300 * kMicrosPerSecond;   // T_home
    // Algorithm 1's initial hit threshold T.
    uint64_t hit_threshold = 4;
    // Migrate only when we see real demand at all; an idle server
    // migrating documents would just churn.
    double min_load_cps = 1.0;
  };

  // Migrate only when our load exceeds the candidate co-op's by this
  // factor — the "determination that a migration should occur".
  static constexpr double kImbalanceFactor = 1.25;
  // Re-migration trigger: after T_home, revoke when the co-op hosting a
  // document is loaded this much more than we are.
  static constexpr double kRevokeImbalanceFactor = 2.0;

  struct Decision {
    std::string doc;
    http::ServerAddress target;
  };

  HomeMigrationPolicy(http::ServerAddress self, Config config)
      : self_(std::move(self)), config_(config) {}

  // Called once per statistics recalculation with a fresh selection
  // snapshot, the current GLT view and our own load metric.  Returns at
  // most one migration (the paper migrates at most one file per
  // interval).  `down_peers` are never chosen as targets: migrating to
  // a peer the pinger has declared down would be revoked on the very
  // next statistics pass, an oscillation the chaos suite provoked.
  std::optional<Decision> Decide(
      const std::vector<graph::LocalDocumentGraph::SelectionView>& views,
      const load::GlobalLoadTable& glt, double own_load, MicroTime now,
      const std::vector<http::ServerAddress>& down_peers = {});
  // Adapter from full DocumentRecord snapshots (tests and tools).
  std::optional<Decision> Decide(
      const std::vector<graph::DocumentRecord>& snapshot,
      const load::GlobalLoadTable& glt, double own_load, MicroTime now,
      const std::vector<http::ServerAddress>& down_peers = {});

  // Commits the decision into the policy's timing state.  The caller
  // separately updates the LDG (SetLocation) — kept apart so tests can
  // drive policy and graph independently.
  void RecordMigration(const Decision& decision, MicroTime now);

  // Documents to pull back home: any hosted by a down peer, plus (at
  // most one per call, to avoid placement thrash) a document past the
  // T_home timeout whose co-op is now substantially busier than us.
  std::vector<std::string> DocsToRevoke(
      const std::vector<graph::LocalDocumentGraph::MigratedView>& migrated,
      const load::GlobalLoadTable& glt, double own_load,
      const std::vector<http::ServerAddress>& down_peers, MicroTime now);
  // Adapter from full DocumentRecord snapshots (tests and tools).
  std::vector<std::string> DocsToRevoke(
      const std::vector<graph::DocumentRecord>& snapshot,
      const load::GlobalLoadTable& glt, double own_load,
      const std::vector<http::ServerAddress>& down_peers, MicroTime now);

  void RecordRevocation(const std::string& doc);

  const Config& config() const { return config_; }

  // Adjusts rate-limit pacing at runtime (experiment drivers accelerate
  // warm-up, then restore Table-1 values before measuring).
  void set_pacing(MicroTime migration_interval,
                  MicroTime coop_accept_interval) {
    config_.migration_interval = migration_interval;
    config_.coop_accept_interval = coop_accept_interval;
  }

  // Introspection for tests and stats reporting.
  size_t migrations_started() const { return migrations_started_; }
  size_t revocations() const { return revocations_; }

  // Decision audit: when set, every positive Decide verdict emits a
  // kMigrationDecided event carrying the GLT snapshot it weighed and
  // the threshold comparison that justified it.  Set once before use
  // (the owning server wires it at construction); may stay null (tests
  // that drive the policy directly).
  void set_journal(obs::EventJournal* journal) { journal_ = journal; }

 private:
  // Emits the kMigrationDecided audit event for a positive verdict.
  void RecordDecision(const Decision& decision,
                      const std::vector<load::LoadEntry>& peers,
                      double own_load, double peer_load, MicroTime now);

  obs::EventJournal* journal_ = nullptr;
  http::ServerAddress self_;
  Config config_;

  MicroTime last_migration_ = -1;
  std::unordered_map<http::ServerAddress, MicroTime,
                     http::ServerAddressHash>
      last_migration_to_;
  struct Placement {
    http::ServerAddress coop;
    MicroTime migrated_at = 0;
  };
  std::unordered_map<std::string, Placement> placements_;

  size_t migrations_started_ = 0;
  size_t revocations_ = 0;
};

}  // namespace dcws::migrate

#endif  // DCWS_MIGRATE_HOME_POLICY_H_
