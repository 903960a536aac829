#ifndef DCWS_HTTP_MESSAGE_H_
#define DCWS_HTTP_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/result.h"

namespace dcws::http {

// Ordered, case-insensitive header collection.  Order is preserved on the
// wire; lookups compare names ASCII-case-insensitively per RFC 2616.
// Extension headers (the paper's piggyback channel, §3.3) are ordinary
// entries here — "ignored by any server which does not understand them".
class HeaderMap {
 public:
  void Add(std::string name, std::string value);
  // Replaces all existing values of `name` with one entry.
  void Set(std::string name, std::string value);
  void Remove(std::string_view name);

  // First value of `name`, if present.
  std::optional<std::string_view> Get(std::string_view name) const;
  bool Has(std::string_view name) const;

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }
  size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// Well-known header names.
inline constexpr std::string_view kHeaderHost = "Host";
inline constexpr std::string_view kHeaderContentLength = "Content-Length";
inline constexpr std::string_view kHeaderContentType = "Content-Type";
inline constexpr std::string_view kHeaderLocation = "Location";
inline constexpr std::string_view kHeaderRetryAfter = "Retry-After";
// DCWS extension headers (piggybacked global load information).
inline constexpr std::string_view kHeaderDcwsLoad = "X-DCWS-Load";
inline constexpr std::string_view kHeaderDcwsServer = "X-DCWS-Server";
// Marks server-to-server transfers (migration fetches, validation,
// pinger probes) so they are not counted as client demand.
inline constexpr std::string_view kHeaderDcwsInternal = "X-DCWS-Internal";
// Trace-id propagation: when one server calls a cooperating server on
// behalf of a client request, the request's 16-hex trace id rides along
// here so both servers' span trees share one id (same extension-header
// channel the paper uses for piggybacked load info).
inline constexpr std::string_view kHeaderDcwsTrace = "X-DCWS-Trace";

struct Request {
  std::string method = "GET";
  std::string target = "/";  // path as it appears on the request line
  std::string version = "HTTP/1.0";
  HeaderMap headers;
  std::string body;

  // Serializes to wire format (adds Content-Length when body non-empty).
  std::string Serialize() const;
};

// Entity bytes shared with their owner (a stored document version)
// rather than copied into the response.
struct SharedEntity {
  // Keeps `bytes` and `fd` valid for as long as the response holds it.
  std::shared_ptr<const void> owner;
  std::string_view bytes;
  // A sealed memfd holding exactly `bytes`, which the TCP host sends
  // with sendfile(2); -1 when the bytes are on the heap.
  int fd = -1;
};

struct Response {
  int status_code = 200;
  std::string version = "HTTP/1.0";
  HeaderMap headers;
  std::string body;
  // When it has an owner, this is the entity and `body` is empty.
  SharedEntity shared;

  // The entity: the shared bytes when set, otherwise `body`.
  std::string_view entity() const {
    return shared.owner != nullptr ? shared.bytes : std::string_view(body);
  }

  // Status line and headers up to the blank line; Content-Length comes
  // from entity() unless a header sets it.
  std::string SerializeHead() const;
  // SerializeHead() followed by the entity.
  std::string Serialize() const;
  bool IsSuccess() const { return status_code >= 200 && status_code < 300; }
  bool IsRedirect() const { return status_code == 301 || status_code == 302; }
};

// Canonical reason phrase for a status code ("Moved Permanently", ...).
std::string_view ReasonPhrase(int status_code);

// Convenience constructors for the responses DCWS emits.
Response MakeOkResponse(std::string body, std::string content_type);
Response MakeRedirectResponse(const std::string& location);
Response MakeNotFoundResponse(const std::string& target);
Response MakeOverloadedResponse();

}  // namespace dcws::http

#endif  // DCWS_HTTP_MESSAGE_H_
