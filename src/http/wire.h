#ifndef DCWS_HTTP_WIRE_H_
#define DCWS_HTTP_WIRE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "src/http/message.h"
#include "src/util/result.h"

namespace dcws::http {

// Parses one complete request/response from `wire`.  The entire message
// (headers + Content-Length body) must be present; trailing bytes are an
// error.  Tolerates both CRLF and bare-LF line endings, per the robustness
// principle.
Result<Request> ParseRequest(std::string_view wire);
Result<Response> ParseResponse(std::string_view wire);

// Incremental framing for stream transports.  Feed() appends raw bytes;
// NextMessage() extracts the earliest complete message (header block plus
// Content-Length body) and returns its wire bytes, or nullopt if more
// input is needed.  Framing errors surface via the error() accessor as
// soon as the bytes that cause them are fed.
//
// Each message's head is parsed once, when it is complete; the buffer is
// then reserved to the whole message, and a buffer holding exactly one
// message is moved out, so a large body is copied once, on Feed.
class MessageFramer {
 public:
  void Feed(std::string_view bytes);

  // Returns the wire bytes of the next complete message, if any.
  std::optional<std::string> NextMessage();

  bool has_error() const { return !error_.ok(); }
  const Status& error() const { return error_; }
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  // Parses the head at the front of buffer_ once it is complete and
  // sets message_size_; a framing error sets error_ instead.
  void ParseHead();

  std::string buffer_;
  // Head plus Content-Length body of the message at the front of
  // buffer_; 0 until its head is complete.
  size_t message_size_ = 0;
  Status error_;
};

}  // namespace dcws::http

#endif  // DCWS_HTTP_WIRE_H_
