#include "src/http/wire.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/util/string_util.h"

namespace dcws::http {

namespace {

// Splits a raw header block (already missing the blank line) into lines,
// tolerating CRLF or LF.
std::vector<std::string_view> HeaderLines(std::string_view block) {
  std::vector<std::string_view> lines;
  for (std::string_view line : Split(block, '\n')) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Locates the end of the header block.  Returns npos when incomplete.
// On success, `header_end` is the offset just past the blank line.
size_t FindHeaderEnd(std::string_view wire) {
  size_t crlf = wire.find("\r\n\r\n");
  size_t lf = wire.find("\n\n");
  if (crlf == std::string_view::npos && lf == std::string_view::npos) {
    return std::string_view::npos;
  }
  if (crlf == std::string_view::npos) return lf + 2;
  if (lf == std::string_view::npos) return crlf + 4;
  return crlf < lf ? crlf + 4 : lf + 2;
}

Status ParseHeaderFields(const std::vector<std::string_view>& lines,
                         HeaderMap& headers) {
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::Corruption("malformed header line: " +
                                std::string(line));
    }
    std::string_view name = Trim(line.substr(0, colon));
    std::string_view value = Trim(line.substr(colon + 1));
    if (name.empty()) {
      return Status::Corruption("empty header name");
    }
    headers.Add(std::string(name), std::string(value));
  }
  return Status::Ok();
}

Result<uint64_t> DeclaredBodyLength(const HeaderMap& headers) {
  auto raw = headers.Get(kHeaderContentLength);
  if (!raw.has_value()) return uint64_t{0};
  auto parsed = ParseUint64(Trim(*raw));
  if (!parsed.has_value()) {
    return Status::Corruption("bad Content-Length: " + std::string(*raw));
  }
  return *parsed;
}

}  // namespace

Result<Request> ParseRequest(std::string_view wire) {
  size_t header_end = FindHeaderEnd(wire);
  if (header_end == std::string_view::npos) {
    return Status::Corruption("incomplete request: no header terminator");
  }
  auto lines = HeaderLines(wire.substr(0, header_end));
  if (lines.empty()) return Status::Corruption("empty request");

  auto parts = SplitSkipEmpty(lines[0], ' ');
  if (parts.size() != 3) {
    return Status::Corruption("malformed request line: " +
                              std::string(lines[0]));
  }
  Request req;
  req.method = std::string(parts[0]);
  req.target = std::string(parts[1]);
  req.version = std::string(parts[2]);
  if (!StartsWith(req.version, "HTTP/")) {
    return Status::Corruption("bad http version: " + req.version);
  }
  DCWS_RETURN_IF_ERROR(ParseHeaderFields(lines, req.headers));

  DCWS_ASSIGN_OR_RETURN(uint64_t body_len,
                        DeclaredBodyLength(req.headers));
  std::string_view body = wire.substr(header_end);
  if (body.size() != body_len) {
    return Status::Corruption("body length mismatch");
  }
  req.body = std::string(body);
  return req;
}

Result<Response> ParseResponse(std::string_view wire) {
  size_t header_end = FindHeaderEnd(wire);
  if (header_end == std::string_view::npos) {
    return Status::Corruption("incomplete response: no header terminator");
  }
  auto lines = HeaderLines(wire.substr(0, header_end));
  if (lines.empty()) return Status::Corruption("empty response");

  // Status line: HTTP/1.0 200 OK  (reason phrase may contain spaces).
  std::string_view status_line = lines[0];
  size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos) {
    return Status::Corruption("malformed status line");
  }
  size_t sp2 = status_line.find(' ', sp1 + 1);
  std::string_view code_text =
      sp2 == std::string_view::npos
          ? status_line.substr(sp1 + 1)
          : status_line.substr(sp1 + 1, sp2 - sp1 - 1);
  auto code = ParseUint64(code_text);
  if (!code.has_value() || *code < 100 || *code > 599) {
    return Status::Corruption("bad status code: " + std::string(code_text));
  }

  Response resp;
  resp.version = std::string(status_line.substr(0, sp1));
  if (!StartsWith(resp.version, "HTTP/")) {
    return Status::Corruption("bad http version: " + resp.version);
  }
  resp.status_code = static_cast<int>(*code);
  DCWS_RETURN_IF_ERROR(ParseHeaderFields(lines, resp.headers));

  DCWS_ASSIGN_OR_RETURN(uint64_t body_len,
                        DeclaredBodyLength(resp.headers));
  std::string_view body = wire.substr(header_end);
  if (body.size() != body_len) {
    return Status::Corruption("body length mismatch");
  }
  resp.body = std::string(body);
  return resp;
}

void MessageFramer::Feed(std::string_view bytes) {
  buffer_.append(bytes);
  if (message_size_ == 0) ParseHead();
}

std::optional<std::string> MessageFramer::NextMessage() {
  if (message_size_ == 0 || buffer_.size() < message_size_) {
    return std::nullopt;
  }
  std::string message;
  if (buffer_.size() == message_size_) {
    message = std::move(buffer_);
    buffer_.clear();
  } else {
    message = buffer_.substr(0, message_size_);
    buffer_.erase(0, message_size_);
  }
  message_size_ = 0;
  ParseHead();  // a pipelined successor may already be buffered
  return message;
}

void MessageFramer::ParseHead() {
  if (!error_.ok()) return;
  size_t header_end = FindHeaderEnd(buffer_);
  if (header_end == std::string_view::npos) return;

  HeaderMap headers;
  auto lines = HeaderLines(std::string_view(buffer_).substr(0, header_end));
  if (lines.empty()) {
    error_ = Status::Corruption("empty message");
    return;
  }
  Status s = ParseHeaderFields(lines, headers);
  if (!s.ok()) {
    error_ = s;
    return;
  }
  auto body_len = DeclaredBodyLength(headers);
  if (!body_len.ok()) {
    error_ = body_len.status();
    return;
  }
  if (*body_len > std::numeric_limits<size_t>::max() - header_end) {
    error_ = Status::Corruption("Content-Length too large");
    return;
  }
  message_size_ = header_end + *body_len;
  // Reserve up to a bound: past it the buffer grows as bytes arrive, so
  // a bogus Content-Length from a peer cannot make it allocate more.
  constexpr size_t kMaxReserve = 64 << 20;
  buffer_.reserve(std::min(message_size_, kMaxReserve));
}

}  // namespace dcws::http
