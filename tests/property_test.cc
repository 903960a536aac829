// Property-based suites: invariants checked across seeded random inputs
// using parameterized gtest (one instantiation per seed).

#include <gtest/gtest.h>

#include <set>

#include "src/graph/ldg.h"
#include "src/html/rewriter.h"
#include "src/html/token.h"
#include "src/http/url.h"
#include "src/http/wire.h"
#include "src/load/piggyback.h"
#include "src/migrate/naming.h"
#include "src/workload/site.h"

namespace dcws {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

// ---------------------------------------------------- tokenizer round-trip

class TokenizerProperty : public SeededTest {};

// Generates messy-but-plausible HTML: random tags, attributes with all
// quote styles, comments, stray '<', truncated constructs.
std::string RandomHtml(Rng& rng) {
  static constexpr std::string_view kTags[] = {"a",   "p",    "img",
                                               "div", "body", "frame"};
  static constexpr std::string_view kAttrs[] = {"href", "src", "id",
                                                "class", "background"};
  std::string out;
  int pieces = 5 + static_cast<int>(rng.NextBelow(40));
  for (int i = 0; i < pieces; ++i) {
    switch (rng.NextBelow(6)) {
      case 0:
        out += workload::FillerText(rng, 1 + rng.NextBelow(40));
        break;
      case 1:
        out += "<!-- c" + std::to_string(rng.NextBelow(100)) + " -->";
        break;
      case 2:
        out += "a < b and <3 text ";
        break;
      default: {
        std::string_view tag = kTags[rng.NextBelow(std::size(kTags))];
        out += "<";
        out += tag;
        int attrs = static_cast<int>(rng.NextBelow(3));
        for (int a = 0; a < attrs; ++a) {
          std::string_view attr =
              kAttrs[rng.NextBelow(std::size(kAttrs))];
          std::string value =
              "v" + std::to_string(rng.NextBelow(1000)) + ".html";
          out += " ";
          out += attr;
          switch (rng.NextBelow(3)) {
            case 0:
              out += "=\"" + value + "\"";
              break;
            case 1:
              out += "='" + value + "'";
              break;
            default:
              out += "=" + value;
          }
        }
        out += ">";
        if (rng.NextBool(0.5)) {
          out += workload::FillerText(rng, rng.NextBelow(20) + 1);
          out += "</" + std::string(tag) + ">";
        }
        break;
      }
    }
  }
  return out;
}

TEST_P(TokenizerProperty, SerializeIsByteExactInverse) {
  for (int doc = 0; doc < 20; ++doc) {
    std::string html = RandomHtml(rng_);
    EXPECT_EQ(html::SerializeTokens(html::Tokenize(html)), html);
  }
}

TEST_P(TokenizerProperty, NullRewriteIsIdentity) {
  for (int doc = 0; doc < 10; ++doc) {
    std::string html = RandomHtml(rng_);
    auto result = html::RewriteLinks(
        html, "/base/page.html",
        [](const html::LinkOccurrence&) { return std::nullopt; });
    EXPECT_EQ(result.html, html);
  }
}

TEST_P(TokenizerProperty, RewriteThenExtractSeesNewTargets) {
  // Rewriting every internal link to a migrated URL, then re-extracting,
  // must find only external links (all now absolute).
  for (int doc = 0; doc < 10; ++doc) {
    std::string html = RandomHtml(rng_);
    auto result = html::RewriteLinks(
        html, "/p.html",
        [](const html::LinkOccurrence& link)
            -> std::optional<std::string> {
          if (link.external) return std::nullopt;
          return "http://coop:9000/~migrate/home/8001" + link.resolved;
        });
    for (const auto& link : html::ExtractLinks(result.html, "/p.html")) {
      EXPECT_TRUE(link.external) << link.raw;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// -------------------------------------------------------- naming inverse

class NamingProperty : public SeededTest {};

TEST_P(NamingProperty, EncodeDecodeInverse) {
  for (int i = 0; i < 50; ++i) {
    http::ServerAddress home;
    home.host = "host" + std::to_string(rng_.NextBelow(1000));
    home.port = static_cast<uint16_t>(1 + rng_.NextBelow(65535));
    std::string path;
    int segments = 1 + static_cast<int>(rng_.NextBelow(5));
    for (int s = 0; s < segments; ++s) {
      path += "/d" + std::to_string(rng_.NextBelow(100));
    }
    path += "/f" + std::to_string(rng_.NextBelow(1000)) + ".html";

    auto decoded = migrate::DecodeMigratedTarget(
        migrate::EncodeMigratedTarget(home, path));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->home, home);
    EXPECT_EQ(decoded->doc_path, path);
  }
}

TEST_P(NamingProperty, UrlRoundTripThroughParser) {
  for (int i = 0; i < 50; ++i) {
    http::ServerAddress coop{"c" + std::to_string(rng_.NextBelow(50)),
                             static_cast<uint16_t>(80 + rng_.NextBelow(9000))};
    http::ServerAddress home{"h" + std::to_string(rng_.NextBelow(50)),
                             static_cast<uint16_t>(80 + rng_.NextBelow(9000))};
    std::string path = "/a" + std::to_string(rng_.NextBelow(100)) +
                       "/b" + std::to_string(rng_.NextBelow(100)) + ".gif";
    std::string url_text = migrate::EncodeMigratedUrl(coop, home, path);
    auto url = http::Url::Parse(url_text);
    ASSERT_TRUE(url.ok());
    EXPECT_EQ(url->host, coop.host);
    EXPECT_EQ(url->port, coop.port);
    auto decoded = migrate::DecodeMigratedTarget(url->path);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->home, home);
    EXPECT_EQ(decoded->doc_path, path);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NamingProperty,
                         ::testing::Values(11, 12, 13, 14));

// ----------------------------------------------------- URL normalization

class UrlProperty : public SeededTest {};

TEST_P(UrlProperty, NormalizeIsIdempotent) {
  for (int i = 0; i < 100; ++i) {
    std::string path = "/";
    int segments = static_cast<int>(rng_.NextBelow(6));
    for (int s = 0; s < segments; ++s) {
      switch (rng_.NextBelow(4)) {
        case 0:
          path += "../";
          break;
        case 1:
          path += "./";
          break;
        case 2:
          path += "";
          break;
        default:
          path += "seg" + std::to_string(rng_.NextBelow(10)) + "/";
      }
    }
    path += "f.html";
    std::string once = http::NormalizePath(path);
    EXPECT_EQ(http::NormalizePath(once), once) << "input " << path;
    EXPECT_TRUE(once.starts_with("/"));
    EXPECT_EQ(once.find(".."), std::string::npos);
  }
}

TEST_P(UrlProperty, ResolveAgainstResolvedIsStable) {
  for (int i = 0; i < 100; ++i) {
    std::string base = "/d" + std::to_string(rng_.NextBelow(10)) +
                       "/p" + std::to_string(rng_.NextBelow(10)) + ".html";
    std::string href = "x" + std::to_string(rng_.NextBelow(10)) + ".html";
    std::string resolved = http::ResolveReference(base, href);
    // Resolving an absolute path is independent of the base document.
    EXPECT_EQ(http::ResolveReference(base, resolved), resolved);
    EXPECT_EQ(http::ResolveReference("/other/q.html", resolved),
              resolved);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UrlProperty,
                         ::testing::Values(21, 22, 23, 24));

// ----------------------------------------------------- piggyback codec

class PiggybackProperty : public SeededTest {};

TEST_P(PiggybackProperty, EncodeDecodePreservesEntries) {
  for (int round = 0; round < 20; ++round) {
    std::vector<load::LoadEntry> entries;
    int count = 1 + static_cast<int>(rng_.NextBelow(20));
    MicroTime now = Seconds(1000);
    for (int i = 0; i < count; ++i) {
      load::LoadEntry entry;
      entry.server = {"srv" + std::to_string(i),
                      static_cast<uint16_t>(8000 + i)};
      entry.load_metric =
          static_cast<double>(rng_.NextBelow(1'000'000)) / 1000.0;
      entry.updated_at = Seconds(static_cast<double>(rng_.NextBelow(1000)));
      entries.push_back(entry);
    }
    auto decoded =
        load::DecodeLoadHeader(load::EncodeLoadHeader(entries, now));
    ASSERT_EQ(decoded.size(), entries.size());
    for (size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded[i].server, entries[i].server);
      EXPECT_NEAR(decoded[i].load_metric, entries[i].load_metric, 1e-3);
      EXPECT_EQ(decoded[i].age, now - entries[i].updated_at);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PiggybackProperty,
                         ::testing::Values(31, 32, 33, 34));

// -------------------------------------------------------- wire fuzzing

class WireProperty : public SeededTest {};

// The wire parsers must never crash on arbitrary bytes: they either
// produce a message or a clean Corruption status.
TEST_P(WireProperty, ParsersSurviveRandomBytes) {
  for (int round = 0; round < 200; ++round) {
    size_t len = rng_.NextBelow(300);
    std::string bytes;
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng_.NextBelow(256)));
    }
    (void)http::ParseRequest(bytes);
    (void)http::ParseResponse(bytes);
    http::MessageFramer framer;
    framer.Feed(bytes);
    while (framer.NextMessage().has_value()) {
    }
  }
}

// Mutating one byte of a valid message must never crash the parser.
TEST_P(WireProperty, SingleByteMutationsAreHandled) {
  http::Request req;
  req.method = "GET";
  req.target = "/a/b.html";
  req.headers.Add("Host", "h:80");
  req.headers.Add("X-DCWS-Load", "s1:8001=12.5;100");
  req.body = "body-bytes";
  std::string wire = req.Serialize();
  for (int round = 0; round < 200; ++round) {
    std::string mutated = wire;
    mutated[rng_.NextBelow(mutated.size())] =
        static_cast<char>(rng_.NextBelow(256));
    (void)http::ParseRequest(mutated);
  }
}

// Serialize-parse round trip with random header values that avoid the
// characters CRLF framing reserves.
TEST_P(WireProperty, RandomMessagesRoundTrip) {
  for (int round = 0; round < 50; ++round) {
    http::Response resp;
    resp.status_code = 200 + static_cast<int>(rng_.NextBelow(300));
    int headers = static_cast<int>(rng_.NextBelow(6));
    for (int h = 0; h < headers; ++h) {
      resp.headers.Add("X-H" + std::to_string(h),
                       "v" + std::to_string(rng_.NextUint64()));
    }
    resp.body = workload::FillerText(rng_, rng_.NextBelow(500));
    auto parsed = http::ParseResponse(resp.Serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->status_code, resp.status_code);
    EXPECT_EQ(parsed->body, resp.body);
    EXPECT_EQ(parsed->headers.size(),
              resp.headers.size() + (resp.body.empty() ? 0 : 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireProperty,
                         ::testing::Values(51, 52, 53, 54));

// What a framer yields for a byte stream: its messages, then its error.
struct Framed {
  std::vector<std::string> messages;
  std::string error;  // empty when framing succeeded
  bool operator==(const Framed&) const = default;
};

Framed FrameInFeeds(std::string_view wire, size_t split) {
  http::MessageFramer framer;
  Framed out;
  for (std::string_view part : {wire.substr(0, split), wire.substr(split)}) {
    framer.Feed(part);
    while (auto message = framer.NextMessage()) {
      out.messages.push_back(std::move(*message));
    }
  }
  if (framer.has_error()) out.error = framer.error().ToString();
  return out;
}

// A stream split into two reads at any byte frames exactly as it does
// arriving in one.
TEST(FramerSplitProperty, EverySplitFramesLikeOneFeed) {
  http::Request request;
  request.method = "GET";
  request.target = "/a/b.html";
  request.headers.Add("Host", "h:80");
  request.body = "body-bytes";

  http::Response large;
  large.body = std::string(100 * 1024, 'x');
  large.body.replace(50 * 1024, 4, "\r\n\r\n");  // frames nothing

  http::Response first;
  first.body = "<p>one</p>";
  http::Response second;
  second.status_code = 404;
  second.body = "missing";

  const std::vector<std::string> streams = {
      request.Serialize(),
      large.Serialize(),
      first.Serialize() + second.Serialize(),
      "HTTP/1.0 200 OK\r\nContent-Length: 12x\r\n\r\nbody",
  };
  const std::vector<size_t> expected_messages = {1, 1, 2, 0};
  for (size_t i = 0; i < streams.size(); ++i) {
    const std::string& wire = streams[i];
    Framed whole = FrameInFeeds(wire, wire.size());
    ASSERT_EQ(whole.messages.size(), expected_messages[i]) << i;
    EXPECT_EQ(whole.error.empty(), expected_messages[i] > 0) << i;
    for (size_t split = 0; split < wire.size(); ++split) {
      ASSERT_TRUE(FrameInFeeds(wire, split) == whole)
          << "stream " << i << " split at byte " << split;
    }
  }
}

// -------------------------------------------------- LDG graph invariants

class LdgProperty : public SeededTest {};

// link_from must always be the exact inverse of link_to, and dirty bits
// must only be set on documents whose outgoing targets moved.
TEST_P(LdgProperty, LinkFromIsInverseOfLinkToUnderMutation) {
  workload::SyntheticConfig config;
  config.pages = 30;
  config.images = 10;
  config.links_per_page = 5;
  config.seed_salt = GetParam();
  workload::SiteSpec site = workload::BuildSynthetic(config, rng_);

  storage::DocumentStore store;
  for (auto& doc : site.documents) store.Put(doc);
  graph::LocalDocumentGraph ldg;
  http::ServerAddress home{"home", 8001};
  http::ServerAddress coop{"coop", 8002};
  ASSERT_TRUE(ldg.Build(store, home, site.entry_points).ok());

  auto check_inverse = [&]() {
    auto snapshot = ldg.Snapshot();
    std::map<std::string, std::set<std::string>> to, from;
    for (const auto& record : snapshot) {
      for (const auto& t : record.link_to) to[record.name].insert(t);
      for (const auto& f : record.link_from) from[record.name].insert(f);
    }
    for (const auto& [name, targets] : to) {
      for (const auto& target : targets) {
        EXPECT_TRUE(from[target].contains(name))
            << target << " missing link_from " << name;
      }
    }
    for (const auto& [name, sources] : from) {
      for (const auto& source : sources) {
        EXPECT_TRUE(to[source].contains(name))
            << source << " missing link_to " << name;
      }
    }
  };
  check_inverse();

  // Random mutations: migrations, revocations, content updates.
  auto paths = store.ListPaths();
  for (int step = 0; step < 40; ++step) {
    const std::string& name = paths[rng_.NextBelow(paths.size())];
    switch (rng_.NextBelow(3)) {
      case 0:
        ASSERT_TRUE(ldg.SetLocation(name, coop).ok());
        break;
      case 1:
        ASSERT_TRUE(ldg.SetLocation(name, home).ok());
        break;
      default: {
        // Author rewrites the page with new links.
        storage::Document doc;
        doc.path = name;
        doc.content_type = "text/html";
        doc.content =
            "<a href=\"" +
            paths[rng_.NextBelow(paths.size())].substr(1) + "\">x</a>";
        // Content paths are relative to /site/..., so just link another
        // absolute path directly.
        doc.content = "<a href=\"" +
                      paths[rng_.NextBelow(paths.size())] + "\">x</a>";
        if (!doc.is_html()) break;
        ASSERT_TRUE(ldg.UpdateContent(name, *store.Put(doc)).ok());
        break;
      }
    }
  }
  check_inverse();
}

TEST_P(LdgProperty, HitCountsMatchRecordedHits) {
  workload::SyntheticConfig config;
  config.pages = 10;
  config.images = 0;
  config.seed_salt = GetParam();
  workload::SiteSpec site = workload::BuildSynthetic(config, rng_);
  storage::DocumentStore store;
  for (auto& doc : site.documents) store.Put(doc);
  graph::LocalDocumentGraph ldg;
  ASSERT_TRUE(ldg.Build(store, {"h", 80}, {}).ok());

  std::map<std::string, uint64_t> expected;
  auto paths = store.ListPaths();
  for (int i = 0; i < 500; ++i) {
    const std::string& name = paths[rng_.NextBelow(paths.size())];
    ldg.RecordHit(name);
    expected[name] += 1;
  }
  for (const auto& record : ldg.Snapshot()) {
    EXPECT_EQ(record.total_hits, expected[record.name]);
    EXPECT_EQ(record.window_hits, expected[record.name]);
  }
  ldg.ResetWindowHits();
  for (const auto& record : ldg.Snapshot()) {
    EXPECT_EQ(record.window_hits, 0u);
    EXPECT_EQ(record.total_hits, expected[record.name]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LdgProperty,
                         ::testing::Values(41, 42, 43, 44));

}  // namespace
}  // namespace dcws
