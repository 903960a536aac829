#ifndef DCWS_E2EBENCH_WALKER_H_
#define DCWS_E2EBENCH_WALKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "e2ebench/src/content_check.h"
#include "e2ebench/src/spans.h"
#include "src/http/address.h"
#include "src/net/tcp.h"
#include "src/util/clock.h"
#include "src/util/rng.h"
#include "src/workload/browse.h"

namespace dcws::e2e {

// One spare body buffer, handed from the walker (which is done with a
// non-HTML body once it is checked) back to the fetcher that reads the
// next one, so large bodies do not pay fresh allocations and page
// faults on every connection.
class BodyPool {
 public:
  std::string Take() { return std::move(spare_); }
  void Give(std::string body) {
    if (body.capacity() > spare_.capacity()) spare_ = std::move(body);
  }

 private:
  std::string spare_;
};

// workload::Fetcher over real loopback sockets, owned by the benchmark:
// one HTTP/1.0 exchange per connection like net::TcpCall, but the body
// is read straight into one buffer and the socket is closed abortively
// (SO_LINGER 0) once the whole response is in, so a run leaves no
// TIME_WAIT sockets behind for the next one.  Server names resolve
// through the group's TcpNetwork, as the servers' own calls do.
class SocketFetcher : public workload::Fetcher {
 public:
  SocketFetcher(const net::TcpNetwork* network, BodyPool* pool,
                TraceContext* trace);
  Result<http::Response> Fetch(const http::Url& url) override;

 private:
  uint16_t Resolve(const http::ServerAddress& address);

  const net::TcpNetwork* network_;
  BodyPool* pool_;
  TraceContext* trace_;
  std::unordered_map<http::ServerAddress, uint16_t,
                     http::ServerAddressHash>
      ports_;
  std::string head_;  // reused header buffer
};

// A completed connection or walk step, by completion time.  Durations
// keep sub-microsecond digits (steady_clock nanoseconds).
struct Sample {
  MicroTime end = 0;
  float micros = 0;
  uint32_t bytes = 0;  // body bytes (connections only)
  bool failed = false;
  bool reached = true;  // false: transport error, no server saw it
};

struct UserStats {
  uint64_t walks = 0;
  uint64_t cache_hits = 0;
  uint64_t memo_lookups = 0;  // HTML 200s looked up in the link memo
  uint64_t memo_hits = 0;
  // Failed connections by cause.
  uint64_t transport_errors = 0;
  uint64_t bad_status = 0;     // neither 200 nor 301
  uint64_t redirect_loops = 0;
  uint64_t content_errors = 0;
  // Samples are kept only while `recording` is set (the run sets it for
  // the measured window), so the generator's memory does not grow with
  // the warm-up.
  std::atomic<bool> recording{true};
  std::vector<Sample> connections;
  std::vector<Sample> pages;
  // Distinct failures (first few) and how often each happened.
  std::map<std::string, uint64_t> failure_notes;
};

// The paper's Figure 5 user, following the Algorithm 2 rules of
// workload::BrowsingClient step for step (random entry point,
// random(1..25) steps, cache reset per walk, embedded images with each
// page, 301 following, exponential back-off on 503), under the same
// workload::BrowseConfig, so that a seed requests the same URL sequence.  Three things differ in how it works:
//  - link extraction is memoized per distinct (URL, body), so a page
//    seen before costs one comparison instead of a parse;
//  - each body is checked (ContentCheck) and dropped unless it is HTML;
//  - every connection is timed and counted, and a failed one (transport
//    error, status other than 200/301, 301 loop, failed content check)
//    is recorded instead of aborting the run.
class Walker {
 public:
  Walker(std::vector<http::Url> entry_points, uint64_t seed,
         const ContentCheck* check, UserStats* stats,
         TraceContext* trace = nullptr, BodyPool* pool = nullptr,
         workload::BrowseConfig config = workload::BrowseConfig());

  // One access sequence.  Returns false if the entry point could not be
  // fetched.
  bool RunWalk(workload::Fetcher& fetcher);

 private:
  // A page as the user saw it: body, the links it offers (bound to the
  // URL it was served at) and the content verdict.
  struct Page {
    std::string body;
    std::vector<http::Url> hyperlinks;
    std::vector<http::Url> images;
    bool content_ok = true;
    std::string why;  // first content failure, if any
  };
  using PagePtr = std::shared_ptr<const Page>;  // nullptr = non-HTML

  Result<PagePtr> FetchDocument(workload::Fetcher& fetcher,
                                const http::Url& url,
                                http::Url* final_url);
  // Checks a 200 body; returns the memoized page for HTML.  `why` gets
  // the reason a check failed.
  PagePtr Accept(const http::Url& served_at, std::string body,
                 bool* content_ok, std::string* why);
  void RecordConnection(int64_t start_ns, uint64_t bytes, bool failed,
                        bool reached = true);
  void Note(std::string note);

  std::vector<http::Url> entry_points_;
  Rng rng_;
  const ContentCheck* check_;
  UserStats* stats_;
  TraceContext* trace_;
  BodyPool* pool_;
  workload::BrowseConfig config_;
  std::unordered_map<std::string, PagePtr> cache_;  // per walk
  std::unordered_map<std::string, PagePtr> memo_;   // url -> last page
};

}  // namespace dcws::e2e

#endif  // DCWS_E2EBENCH_WALKER_H_
