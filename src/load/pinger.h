#ifndef DCWS_LOAD_PINGER_H_
#define DCWS_LOAD_PINGER_H_

#include <set>
#include <unordered_map>
#include <vector>

#include "src/http/address.h"
#include "src/load/glt.h"
#include "src/obs/events.h"
#include "src/util/clock.h"
#include "src/util/mutex.h"

namespace dcws::load {

// Decision logic for the pinger thread (§3.3, §4.5): when load
// information about a peer has not been refreshed within the activation
// interval, generate an artificial HTTP transfer; when several
// consecutive probes fail, declare the peer down so the server can recall
// its migrated documents.
//
// This class is pure policy — the owning server performs the actual
// probes — so the same code drives the simulator's virtual pinger and
// a TCP host's real pinger thread.
//
// Thread-safe.  Although the probe loop runs on one duty thread,
// RecordProbeResult is also called from every WORKER thread: absorbing a
// piggyback header counts as hearing from the peer, and a failed co-op
// fetch counts against it (Server::AbsorbPiggyback / FetchFromHome) —
// so the failure table sees genuinely concurrent updates.
class PingerPolicy {
 public:
  struct Config {
    MicroTime staleness_limit = 20 * kMicrosPerSecond;  // T_pi
    int max_consecutive_failures = 3;
  };

  explicit PingerPolicy(Config config) : config_(config) {}

  // Peers whose GLT entry is older than the staleness limit and that are
  // not already declared down.  Called once per pinger wake-up.
  std::vector<http::ServerAddress> PeersToProbe(
      const GlobalLoadTable& table, MicroTime now) const
      DCWS_EXCLUDES(mutex_);

  // Records a probe outcome.  A success clears the failure count and any
  // down state (a machine may come back).
  void RecordProbeResult(const http::ServerAddress& peer, bool success)
      DCWS_EXCLUDES(mutex_);

  // True once max_consecutive_failures probes in a row have failed.
  bool IsDown(const http::ServerAddress& peer) const
      DCWS_EXCLUDES(mutex_);
  std::vector<http::ServerAddress> DownPeers() const
      DCWS_EXCLUDES(mutex_);

  // Current failure streak for `peer` (0 when never failed or cleared).
  int ConsecutiveFailures(const http::ServerAddress& peer) const
      DCWS_EXCLUDES(mutex_);

  // ---- failure injection (chaos/cluster-control harness) ----
  // While injected, every result recorded for `peer` — pinger probes,
  // piggyback absorptions, co-op fetch outcomes alike — counts as a
  // failure, modelling a pinger-level partition in which data traffic
  // still flows but liveness evidence is lost.  Lifting the injection
  // restores normal accounting; the next genuine success clears any
  // accumulated down state.
  void InjectProbeFailure(const http::ServerAddress& peer, bool fail)
      DCWS_EXCLUDES(mutex_);
  bool IsProbeFailureInjected(const http::ServerAddress& peer) const
      DCWS_EXCLUDES(mutex_);

  // Drops all state for `peer` (cluster membership removal).
  void Forget(const http::ServerAddress& peer) DCWS_EXCLUDES(mutex_);

  const Config& config() const { return config_; }

  // Liveness audit: when set, every down/up TRANSITION (not every
  // probe) emits a kPeerDown/kPeerUp event with the failure streak that
  // caused it.  Set once before concurrent use (the owning server wires
  // it at construction); may stay null.
  void set_journal(obs::EventJournal* journal) { journal_ = journal; }

 private:
  bool IsDownLocked(const http::ServerAddress& peer) const
      DCWS_REQUIRES(mutex_);

  const Config config_;  // immutable after construction; lock-free reads
  obs::EventJournal* journal_ DCWS_CONST_AFTER_INIT = nullptr;
  mutable Mutex mutex_;
  std::unordered_map<http::ServerAddress, int, http::ServerAddressHash>
      consecutive_failures_ DCWS_GUARDED_BY(mutex_);
  std::set<http::ServerAddress> injected_failures_
      DCWS_GUARDED_BY(mutex_);
};

}  // namespace dcws::load

#endif  // DCWS_LOAD_PINGER_H_
