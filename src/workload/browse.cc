#include "src/workload/browse.h"

#include <algorithm>
#include <unordered_set>

#include "src/html/links.h"
#include "src/migrate/naming.h"
#include "src/storage/document.h"

namespace dcws::workload {

namespace {

// Binds a link occurrence to an absolute URL relative to the page that
// contained it.
std::optional<http::Url> BindUrl(const html::LinkOccurrence& link,
                                 const http::Url& page_url) {
  if (link.external) {
    auto url = http::Url::Parse(link.resolved);
    if (!url.ok()) return std::nullopt;
    return std::move(url).value();
  }
  http::Url url = page_url;
  url.path = link.resolved;
  return url;
}

// Client-side guess of whether a URL names an HTML document: the
// document path's extension, whoever serves it (browsers of the era did
// the same before Content-Type arrived).
bool LooksLikeHtml(const http::Url& url) {
  std::string path = url.path;
  if (migrate::IsMigratedTarget(path)) {
    auto decoded = migrate::DecodeMigratedTarget(path);
    if (decoded.ok()) path = decoded->doc_path;
  }
  return storage::GuessContentType(path) == "text/html";
}

}  // namespace

PageLinks ClassifyLinks(std::string_view html,
                        const http::Url& page_url) {
  PageLinks out;
  // Browsers coalesce repeated references: a bar-chart page rendering
  // one JPEG 128 times still fetches it once.
  std::unordered_set<std::string> seen_images;
  for (const html::LinkOccurrence& link :
       html::ExtractLinks(html, page_url.path)) {
    auto url = BindUrl(link, page_url);
    if (!url.has_value()) continue;
    if (link.kind == html::LinkKind::kHyperlink) {
      out.hyperlinks.push_back(std::move(*url));
    } else if (seen_images.insert(url->ToString()).second) {
      out.images.push_back(std::move(*url));
    }
  }
  return out;
}

std::optional<http::Url> PickRandom(const std::vector<http::Url>& urls,
                                    Rng& rng) {
  if (urls.empty()) return std::nullopt;
  return urls[rng.NextBelow(urls.size())];
}

EntryPicker PickUniformly(std::vector<http::Url> urls) {
  return [urls = std::move(urls)](Rng& rng) {
    return urls[rng.NextBelow(urls.size())];
  };
}

// ------------------------------------------------------------------ Walk

Walk::Walk(EntryPicker entry, uint64_t seed, BrowseConfig config,
           size_t max_in_flight)
    : entry_(std::move(entry)),
      rng_(seed),
      config_(std::move(config)),
      fetches_(std::max<size_t>(max_in_flight, 1)) {}

void Walk::Begin() {
  cache_.clear();  // "reset cache"
  next_ = entry_(rng_);
  steps_left_ = static_cast<int>(
      rng_.NextInRange(config_.min_steps, config_.max_steps));
  walking_ = true;
}

void Walk::EndWalk() {
  walking_ = false;
  page_ = nullptr;
  stats_.walks += 1;
}

std::optional<Walk::FetchId> Walk::NextFetch() {
  if (!walking_) return std::nullopt;
  if (page_ != nullptr) {
    // "request all embedded images in parallel (using helper threads)".
    const std::vector<http::Url>& images = page_->links.images;
    if (next_image_ < images.size() && in_flight_ < fetches_.size()) {
      return StartFetch(images[next_image_++]);
    }
    if (in_flight_ > 0 || next_image_ < images.size()) return std::nullopt;
    // "wait until all the requested documents arrive", then "parse the
    // document and select a new link".
    std::optional<http::Url> link =
        PickRandom(page_->links.hyperlinks, rng_);
    page_ = nullptr;
    if (!link.has_value()) {
      EndWalk();  // dead end (e.g. an image archive leaf)
      return std::nullopt;
    }
    next_ = std::move(*link);
  } else if (in_flight_ > 0) {
    return std::nullopt;  // the step's page is on its way
  }
  if (steps_left_ <= 0) {
    EndWalk();
    return std::nullopt;
  }
  steps_left_ -= 1;
  return StartFetch(next_);
}

Walk::FetchId Walk::StartFetch(const http::Url& url) {
  FetchId id = 0;
  while (fetches_[id].busy) ++id;
  fetches_[id] = Fetch{true,
                       url,
                       url.ToString(),
                       config_.max_redirect_hops,
                       config_.max_drop_retries,
                       0,
                       nullptr};
  in_flight_ += 1;
  return id;
}

bool Walk::FromCache(FetchId id) {
  Fetch& fetch = fetches_[id];
  auto cached = cache_.find(fetch.url.ToString());
  if (cached == cache_.end()) return false;
  stats_.cache_hits += 1;
  fetch.page = &cached->second;
  return true;
}

Walk::Verdict Walk::Fail() {
  stats_.failures += 1;
  return Verdict::kFailed;
}

Walk::Verdict Walk::OnResponse(FetchId id, const http::Response& response) {
  Fetch& fetch = fetches_[id];
  stats_.requests += 1;
  if (response.status_code == 503) {
    // Exponential back-off and retry (paper §5.2 request drops).
    stats_.drops += 1;
    if (fetch.retries_left <= 0) return Fail();
    fetch.retries_left -= 1;
    fetch.backoff =
        fetch.backoff == 0 ? kMicrosPerSecond : 2 * fetch.backoff;
    stats_.backoff_sleeps += 1;
    return Verdict::kRetry;
  }
  if (response.IsRedirect()) {
    stats_.redirects += 1;
    auto location = response.headers.Get(http::kHeaderLocation);
    if (!location.has_value() || fetch.redirects_left <= 0) return Fail();
    auto next = http::Url::Parse(std::string(*location));
    if (!next.ok()) return Fail();
    fetch.url = std::move(next).value();
    fetch.redirects_left -= 1;
    return Verdict::kRedirect;
  }
  if (response.status_code != 200) return Fail();

  stats_.bytes += response.entity().size();
  Page page;
  page.is_html = LooksLikeHtml(fetch.url);
  if (page.is_html) page.links = ClassifyLinks(response.entity(), fetch.url);
  std::string final_key = fetch.url.ToString();
  if (fetch.origin_key != final_key) {
    cache_.insert_or_assign(fetch.origin_key, page);
  }
  auto [it, inserted] =
      cache_.insert_or_assign(std::move(final_key), std::move(page));
  fetch.page = &it->second;
  return Verdict::kDone;
}

void Walk::OnFailure(FetchId id) {
  fetches_[id].page = nullptr;
  stats_.requests += 1;
  stats_.failures += 1;
}

bool Walk::parsed(FetchId id) const {
  return fetches_[id].page != nullptr && fetches_[id].page->is_html;
}

void Walk::Complete(FetchId id) {
  Fetch& fetch = fetches_[id];
  fetch.busy = false;
  in_flight_ -= 1;
  if (page_ != nullptr) return;  // one of the step page's images
  if (fetch.page != nullptr) stats_.steps += 1;
  if (fetch.page == nullptr || !fetch.page->is_html) {
    // Walk abandoned, or dead-ended (only HTML offers images and links).
    EndWalk();
    return;
  }
  page_ = fetch.page;
  next_image_ = 0;
}

// -------------------------------------------------------- BrowsingClient

BrowsingClient::BrowsingClient(std::vector<http::Url> entry_points,
                               uint64_t seed, BrowseConfig config)
    : BrowsingClient(PickUniformly(std::move(entry_points)), seed,
                     std::move(config)) {}

BrowsingClient::BrowsingClient(EntryPicker entry, uint64_t seed,
                               BrowseConfig config)
    : walk_(std::move(entry), seed, std::move(config),
            /*max_in_flight=*/1) {}

bool BrowsingClient::RunWalk(Fetcher& fetcher) {
  uint64_t steps = walk_.stats().steps;
  walk_.Begin();
  while (std::optional<Walk::FetchId> id = walk_.NextFetch()) {
    while (!walk_.FromCache(*id)) {
      Result<http::Response> response = fetcher.Fetch(walk_.url(*id));
      if (!response.ok()) {
        walk_.OnFailure(*id);
        break;
      }
      Walk::Verdict verdict = walk_.OnResponse(*id, *response);
      if (verdict == Walk::Verdict::kRetry && walk_.config().sleeper) {
        walk_.config().sleeper(walk_.backoff(*id));
      }
      if (verdict != Walk::Verdict::kRetry &&
          verdict != Walk::Verdict::kRedirect) {
        break;
      }
    }
    walk_.Complete(*id);
  }
  return walk_.stats().steps > steps;
}

}  // namespace dcws::workload
