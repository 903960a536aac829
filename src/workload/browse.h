#ifndef DCWS_WORKLOAD_BROWSE_H_
#define DCWS_WORKLOAD_BROWSE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/http/message.h"
#include "src/http/url.h"
#include "src/util/clock.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace dcws::workload {

// --- Pure pieces of the paper's custom benchmark (Figure 5) ----------
// Shared between the synchronous BrowsingClient below and the
// discrete-event SimClient, so both worlds walk sites identically.

// Hyperlinks a user can follow from a page served at `page_url`,
// expressed as absolute URLs (relative hrefs bind to the serving host —
// which is how rewritten links steer load to co-op servers).
std::vector<http::Url> FollowableLinks(const std::string& html,
                                       const http::Url& page_url);

// Embedded images the browser fetches automatically, as absolute URLs.
std::vector<http::Url> EmbeddedImages(const std::string& html,
                                      const http::Url& page_url);

// Both of the above in one parse (hot path for simulated clients).
struct PageLinks {
  std::vector<http::Url> hyperlinks;
  std::vector<http::Url> images;
};
PageLinks ClassifyLinks(const std::string& html,
                        const http::Url& page_url);

// Uniform random choice; nullopt if empty.
std::optional<http::Url> PickRandom(const std::vector<http::Url>& urls,
                                    Rng& rng);

// --- Synchronous Algorithm 2 client ----------------------------------

// Transport used by the client; net::TcpFetcher and test doubles
// provide implementations.
class Fetcher {
 public:
  virtual ~Fetcher() = default;
  virtual Result<http::Response> Fetch(const http::Url& url) = 0;
};

struct BrowseStats {
  uint64_t walks = 0;
  uint64_t steps = 0;
  uint64_t requests = 0;       // connections issued (docs + images)
  uint64_t bytes = 0;          // body bytes received
  uint64_t cache_hits = 0;
  uint64_t redirects = 0;      // 301s followed
  uint64_t drops = 0;          // 503s received
  uint64_t failures = 0;       // transport errors / non-200 finals
  uint64_t backoff_sleeps = 0;
};

// The custom client benchmark (paper Figure 5): walk from a random
// well-known entry point for random(1..25) steps, with a client-side
// cache reset per walk, automatic image fetching, 301 following and
// exponential back-off on 503.
//
// Synchronous: each Fetch completes before the next (the paper's four
// image helper threads are modelled only in the simulator).
struct BrowseConfig {
  int min_steps = 1;
  int max_steps = 25;
  int max_redirect_hops = 4;
  int max_drop_retries = 6;
  // Invoked to sleep during 503 back-off; default does nothing except
  // count (tests and examples decide whether to really sleep).
  std::function<void(MicroTime)> sleeper;
};

class BrowsingClient {
 public:
  BrowsingClient(std::vector<http::Url> entry_points, uint64_t seed,
                 BrowseConfig config = BrowseConfig());

  // Executes one access sequence (cache reset -> walk).  Returns false
  // if the walk could not even fetch its entry point.
  bool RunWalk(Fetcher& fetcher);

  const BrowseStats& stats() const { return stats_; }

 private:
  // Fetches through cache/redirect/backoff; returns final body or error.
  Result<std::string> FetchDocument(Fetcher& fetcher,
                                    const http::Url& url,
                                    http::Url* final_url);

  std::vector<http::Url> entry_points_;
  Rng rng_;
  BrowseConfig config_;
  BrowseStats stats_;
  std::unordered_map<std::string, std::string> cache_;  // url -> body
};

}  // namespace dcws::workload

#endif  // DCWS_WORKLOAD_BROWSE_H_
