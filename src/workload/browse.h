#ifndef DCWS_WORKLOAD_BROWSE_H_
#define DCWS_WORKLOAD_BROWSE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/http/message.h"
#include "src/http/url.h"
#include "src/util/clock.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace dcws::workload {

// --- The paper's custom benchmark (Figure 5, Algorithm 2) -------------

// A page's links as absolute URLs, in one parse: the hyperlinks a user
// can follow and the distinct images the browser fetches with it.
// Relative hrefs bind to the serving host, which is how rewritten links
// steer load to co-op servers.
struct PageLinks {
  std::vector<http::Url> hyperlinks;
  std::vector<http::Url> images;
};
PageLinks ClassifyLinks(const std::string& html,
                        const http::Url& page_url);

// Uniform random choice; nullopt if empty.
std::optional<http::Url> PickRandom(const std::vector<http::Url>& urls,
                                    Rng& rng);

// Where each walk begins, drawn from the walk's Rng.
using EntryPicker = std::function<http::Url(Rng&)>;

// A uniform choice among `urls` (which must not be empty).
EntryPicker PickUniformly(std::vector<http::Url> urls);

struct BrowseConfig {
  int min_steps = 1;
  int max_steps = 25;
  int max_redirect_hops = 4;
  int max_drop_retries = 8;
  // Invoked by BrowsingClient to sleep during 503 back-off; default does
  // nothing except count (tests and examples decide whether to really
  // sleep).  The simulator backs off in virtual time instead.
  std::function<void(MicroTime)> sleeper;
};

struct BrowseStats {
  uint64_t walks = 0;
  uint64_t steps = 0;
  uint64_t requests = 0;       // connections issued (docs + images)
  uint64_t bytes = 0;          // body bytes received
  uint64_t cache_hits = 0;
  uint64_t redirects = 0;      // 301s received
  uint64_t drops = 0;          // 503s received
  uint64_t failures = 0;       // transport errors / non-200 finals
  uint64_t backoff_sleeps = 0;
};

// One user's endless sequence of walks, with no clock, transport or
// threads: a driver (sim::SimClient on the event queue, BrowsingClient
// over a Fetcher) moves the bytes and the time.  Each walk starts at
// the entry picker's URL and follows random(min..max steps) hyperlinks.
// Every fetched page is parsed once and kept in a per-walk cache under
// both the URL asked for and the URL that served it (so rotating 301s
// do not defeat it).  A page is HTML by its document path; with an HTML
// page come its distinct images, up to `max_in_flight` at a time, and
// once all are in a random link is the next step.  A 301 is followed up
// to max_redirect_hops times; a 503 is retried max_drop_retries times
// after waits of 1 s, 2 s, 4 s, ...
//
// Driving it: Begin() a walk, then take each NextFetch().  A fetch
// comes FromCache() or from GETs of url(), each answered with
// OnResponse() or OnFailure(); once it is done, Complete() it and ask
// for the next fetches.  NextFetch() is empty while fetches are in
// flight and once the walk is over (walking() false).
class Walk {
 public:
  // A document being fetched: a step's page or one of its images.
  using FetchId = size_t;

  // What a response means for its fetch.
  enum class Verdict {
    kDone,      // 200: parsed and cached; Complete() the fetch
    kRedirect,  // 301 followed: request url() now
    kRetry,     // 503: wait backoff(), then request url() again
    kFailed,    // given up; Complete() the fetch
  };

  Walk(EntryPicker entry, uint64_t seed, BrowseConfig config,
       size_t max_in_flight);

  Rng& rng() { return rng_; }
  const BrowseConfig& config() const { return config_; }
  const BrowseStats& stats() const { return stats_; }
  bool walking() const { return walking_; }

  // Starts a walk ("reset cache"): picks the entry point and the step
  // count.  Requires !walking().
  void Begin();
  // The next fetch to start, if the walk has one now.
  std::optional<FetchId> NextFetch();

  // True when the fetch's URL is in the walk's cache: the fetch is done
  // without a connection.
  bool FromCache(FetchId id);
  const http::Url& url(FetchId id) const { return fetches_[id].url; }
  MicroTime backoff(FetchId id) const { return fetches_[id].backoff; }
  Verdict OnResponse(FetchId id, const http::Response& response);
  // The request got no response (transport error): the fetch failed.
  void OnFailure(FetchId id);
  // True once the fetch's 200 was parsed as HTML (its parse is done).
  bool parsed(FetchId id) const;
  void Complete(FetchId id);

 private:
  // A fetched document as the walk remembers it: the parsed link
  // structure only.  The body is discarded after one parse; the walk
  // never needs the bytes again.
  struct Page {
    bool is_html = false;
    PageLinks links;
  };
  struct Fetch {
    bool busy = false;
    http::Url url;           // what to request next
    std::string origin_key;  // the URL first asked for
    int redirects_left = 0;
    int retries_left = 0;
    MicroTime backoff = 0;        // the wait before the latest retry
    const Page* page = nullptr;   // the result; nullptr = failed
  };

  FetchId StartFetch(const http::Url& url);
  Verdict Fail();
  void EndWalk();

  EntryPicker entry_;
  Rng rng_;
  BrowseConfig config_;
  BrowseStats stats_;
  std::unordered_map<std::string, Page> cache_;  // url -> parsed doc
  std::vector<Fetch> fetches_;                    // max_in_flight slots
  size_t in_flight_ = 0;

  bool walking_ = false;
  int steps_left_ = 0;
  http::Url next_;              // the next step's page
  const Page* page_ = nullptr;  // the current step's page, once fetched
  size_t next_image_ = 0;       // its next image to fetch
};

// --- Synchronous driver ------------------------------------------------

// Transport used by the client; net::TcpFetcher and test doubles
// provide implementations.
class Fetcher {
 public:
  virtual ~Fetcher() = default;
  virtual Result<http::Response> Fetch(const http::Url& url) = 0;
};

// Runs a Walk over a Fetcher, one fetch at a time: a page's images one
// after another, and 503 back-off through config.sleeper (the paper's
// four image helper threads are modelled only in the simulator).
class BrowsingClient {
 public:
  BrowsingClient(std::vector<http::Url> entry_points, uint64_t seed,
                 BrowseConfig config = BrowseConfig());
  BrowsingClient(EntryPicker entry, uint64_t seed,
                 BrowseConfig config = BrowseConfig());

  // Executes one access sequence (cache reset -> walk).  Returns false
  // if the walk could not even fetch its entry point.
  bool RunWalk(Fetcher& fetcher);

  const BrowseStats& stats() const { return walk_.stats(); }

 private:
  Walk walk_;
};

}  // namespace dcws::workload

#endif  // DCWS_WORKLOAD_BROWSE_H_
