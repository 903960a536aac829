#include "e2ebench/src/content_check.h"

#include <algorithm>

#include "src/migrate/naming.h"
#include "src/storage/document.h"

namespace dcws::e2e {

ContentCheck::ContentCheck(const workload::SiteSpec& site,
                           http::ServerAddress home,
                           std::vector<http::ServerAddress> group)
    : home_(std::move(home)), group_(std::move(group)) {
  for (const storage::Document& doc : site.documents) {
    Expected& expected = docs_[doc.path];
    expected.doc = &doc;
    expected.html = storage::GuessContentType(doc.path) == "text/html";
    if (!expected.html) continue;
    for (const html::LinkOccurrence& link :
         html::ExtractLinks(doc.content, doc.path)) {
      expected.links.push_back({link.kind, link.resolved});
    }
  }
}

std::optional<std::string> ContentCheck::DocPathFor(
    const http::Url& url) const {
  if (migrate::IsMigratedTarget(url.path)) {
    auto decoded = migrate::DecodeMigratedTarget(url.path);
    if (!decoded.ok() || !(decoded->home == home_)) return std::nullopt;
    return decoded->doc_path;
  }
  if (!(http::ServerAddress{url.host, url.port} == home_)) {
    return std::nullopt;
  }
  return url.path;
}

bool ContentCheck::CheckBytes(const std::string& doc_path,
                              std::string_view body) const {
  auto it = docs_.find(doc_path);
  return it != docs_.end() && !it->second.html &&
         it->second.doc->content == body;
}

std::optional<std::string> ContentCheck::TargetOf(
    const html::LinkOccurrence& link, const http::Url& served_at) const {
  http::Url bound = served_at;
  if (link.external) {
    auto parsed = http::Url::Parse(link.resolved);
    if (!parsed.ok()) return link.resolved;  // not http: truly foreign
    bound = std::move(parsed).value();
  } else {
    bound.path = link.resolved;
  }
  if (auto path = DocPathFor(bound)) return path;
  if (migrate::IsMigratedTarget(bound.path)) return std::nullopt;
  http::ServerAddress at{bound.host, bound.port};
  if (std::find(group_.begin(), group_.end(), at) != group_.end()) {
    return std::nullopt;  // plain path at a co-op
  }
  return link.resolved;
}

bool ContentCheck::CheckLinks(const std::string& doc_path,
                              const std::vector<html::LinkOccurrence>& links,
                              const http::Url& served_at,
                              std::string* why) const {
  auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  auto it = docs_.find(doc_path);
  if (it == docs_.end() || !it->second.html) return fail("not a site page");
  const std::vector<LinkTarget>& expected = it->second.links;
  if (links.size() != expected.size()) {
    return fail(std::to_string(links.size()) + " links, source has " +
                std::to_string(expected.size()));
  }
  for (size_t i = 0; i < links.size(); ++i) {
    std::optional<std::string> target = TargetOf(links[i], served_at);
    if (!target.has_value() || links[i].kind != expected[i].kind ||
        *target != expected[i].target) {
      return fail("link \"" + links[i].raw + "\" should name " +
                  expected[i].target +
                  (target.has_value() ? ", names " + *target
                                      : ", resolves outside the home"));
    }
  }
  return true;
}

}  // namespace dcws::e2e
