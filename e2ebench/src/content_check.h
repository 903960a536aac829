#ifndef DCWS_E2EBENCH_CONTENT_CHECK_H_
#define DCWS_E2EBENCH_CONTENT_CHECK_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/html/links.h"
#include "src/http/address.h"
#include "src/http/url.h"
#include "src/workload/site.h"

namespace dcws::e2e {

// One link of a page, reduced to what must survive DCWS rewriting: its
// kind and the site path (or external URL) it names.
struct LinkTarget {
  html::LinkKind kind = html::LinkKind::kHyperlink;
  std::string target;
  friend bool operator==(const LinkTarget&, const LinkTarget&) = default;
};

// What every response of a run must look like, derived from the
// generated site: non-HTML bodies are byte-equal to the generated
// document; every link of an HTML body resolves to a plain path at the
// home or to a ~migrate URL naming the home, and the page's links map
// back to the same targets, in the same order, as the source page.
// Author edits change only text, so the source links stay the truth.
//
// Read-only after construction; shared by every user thread.  `site`
// must outlive the checker.
class ContentCheck {
 public:
  ContentCheck(const workload::SiteSpec& site, http::ServerAddress home,
               std::vector<http::ServerAddress> group);

  // The document a request URL names: a plain path at the home, or a
  // ~migrate target whose home is ours.  nullopt for anything else.
  std::optional<std::string> DocPathFor(const http::Url& url) const;

  // Non-HTML verdict: `body` equals the generated document.
  bool CheckBytes(const std::string& doc_path, std::string_view body) const;

  // HTML verdict for a page whose links (extracted from the served body)
  // are `links`, served at `served_at`.  On failure `why` (if given)
  // names the first link that does not map back.
  bool CheckLinks(const std::string& doc_path,
                  const std::vector<html::LinkOccurrence>& links,
                  const http::Url& served_at,
                  std::string* why = nullptr) const;

 private:
  // The target a link names once bound to the URL the page came from;
  // nullopt when it resolves into a non-home server's own namespace
  // (such a link 404s there) or names a foreign home.
  std::optional<std::string> TargetOf(const html::LinkOccurrence& link,
                                      const http::Url& served_at) const;

  struct Expected {
    const storage::Document* doc = nullptr;
    bool html = false;
    std::vector<LinkTarget> links;  // source links (HTML only)
  };
  std::unordered_map<std::string, Expected> docs_;
  http::ServerAddress home_;
  std::vector<http::ServerAddress> group_;
};

}  // namespace dcws::e2e

#endif  // DCWS_E2EBENCH_CONTENT_CHECK_H_
