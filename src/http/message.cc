#include "src/http/message.h"

#include "src/util/string_util.h"

namespace dcws::http {

void HeaderMap::Add(std::string name, std::string value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

void HeaderMap::Set(std::string name, std::string value) {
  Remove(name);
  Add(std::move(name), std::move(value));
}

void HeaderMap::Remove(std::string_view name) {
  std::erase_if(entries_, [name](const auto& e) {
    return EqualsIgnoreCase(e.first, name);
  });
}

std::optional<std::string_view> HeaderMap::Get(
    std::string_view name) const {
  for (const auto& [key, value] : entries_) {
    if (EqualsIgnoreCase(key, name)) return std::string_view(value);
  }
  return std::nullopt;
}

bool HeaderMap::Has(std::string_view name) const {
  return Get(name).has_value();
}

namespace {

void SerializeHeaders(const HeaderMap& headers, size_t body_size,
                      std::string& out) {
  bool has_length = headers.Has(kHeaderContentLength);
  for (const auto& [key, value] : headers.entries()) {
    out.append(key);
    out.append(": ");
    out.append(value);
    out.append("\r\n");
  }
  if (!has_length && body_size > 0) {
    out.append("Content-Length: ");
    out.append(std::to_string(body_size));
    out.append("\r\n");
  }
  out.append("\r\n");
}

}  // namespace

std::string Request::Serialize() const {
  std::string out;
  out.reserve(128 + body.size());
  out.append(method);
  out.push_back(' ');
  out.append(target);
  out.push_back(' ');
  out.append(version);
  out.append("\r\n");
  SerializeHeaders(headers, body.size(), out);
  out.append(body);
  return out;
}

void Response::OwnEntity() {
  if (shared_body == nullptr) return;
  body = *shared_body;
  shared_body.reset();
}

std::string Response::SerializeHead() const {
  std::string out;
  out.reserve(128);
  out.append(version);
  out.push_back(' ');
  out.append(std::to_string(status_code));
  out.push_back(' ');
  out.append(ReasonPhrase(status_code));
  out.append("\r\n");
  SerializeHeaders(headers, entity().size(), out);
  return out;
}

std::string Response::Serialize() const {
  std::string out = SerializeHead();
  out.append(entity());
  return out;
}

std::string_view ReasonPhrase(int status_code) {
  switch (status_code) {
    case 200:
      return "OK";
    case 301:
      return "Moved Permanently";
    case 302:
      return "Found";
    case 304:
      return "Not Modified";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

Response MakeOkResponse(std::string body, std::string content_type) {
  Response r;
  r.status_code = 200;
  r.headers.Set(std::string(kHeaderContentType), std::move(content_type));
  r.body = std::move(body);
  return r;
}

Response MakeRedirectResponse(const std::string& location) {
  Response r;
  r.status_code = 301;
  r.headers.Set(std::string(kHeaderLocation), location);
  return r;
}

Response MakeNotFoundResponse(const std::string& target) {
  Response r;
  r.status_code = 404;
  r.headers.Set(std::string(kHeaderContentType), "text/plain");
  r.body = "not found: " + target + "\n";
  return r;
}

Response MakeOverloadedResponse() {
  Response r;
  r.status_code = 503;
  r.headers.Set(std::string(kHeaderRetryAfter), "1");
  return r;
}

}  // namespace dcws::http
