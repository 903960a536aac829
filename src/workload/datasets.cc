#include <string>

#include "src/workload/site.h"

// Generators reproducing the published statistics of the paper's four
// datasets (§5.2).  Exact document counts are matched; link counts and
// aggregate sizes land within a few percent (asserted by workload_test).

namespace dcws::workload {

namespace {

storage::Document HtmlDoc(std::string path, std::string body) {
  storage::Document doc;
  doc.path = std::move(path);
  doc.content = std::move(body);
  doc.content_type = "text/html";
  return doc;
}

storage::Document ImageDoc(std::string path, Rng& rng, uint64_t bytes) {
  storage::Document doc;
  doc.path = std::move(path);
  doc.content = BinaryBlob(rng, bytes);
  doc.content_type = storage::GuessContentType(doc.path);
  return doc;
}

// Pads `body` with prose so the document reaches ~`target` bytes.
void PadTo(std::string& body, Rng& rng, uint64_t target) {
  if (body.size() + 32 >= target) return;
  body += "<p>";
  body += FillerText(rng, target - body.size() - 12);
  body += "</p>\n";
}

}  // namespace

// ---------------------------------------------------------------- MAPUG

SiteSpec BuildMapug(Rng& rng) {
  // 1,534 documents = 1,500 messages + 28 monthly indexes + 6 nav-button
  // GIFs; 28,998 links; 5,918 KB.
  constexpr int kMessages = 1500;
  constexpr int kIndexes = 28;
  constexpr uint64_t kButtonBytes = 1000;
  constexpr uint64_t kMessageBytes = 3830;
  constexpr uint64_t kIndexBytes = 6200;

  const char* kButtons[] = {"next", "prev",  "next_thread",
                            "prev_thread", "index", "home"};

  SiteSpec site;
  site.name = "MAPUG";

  for (const char* button : kButtons) {
    site.documents.push_back(ImageDoc(
        "/archive/img/" + std::string(button) + ".gif", rng,
        kButtonBytes));
  }

  auto msg_path = [](int i) {
    return "/archive/msg" + std::to_string(i) + ".html";
  };
  auto index_page = [](int k) {
    return "/archive/index" + std::to_string(k) + ".html";
  };
  const int per_index = kMessages / kIndexes;  // messages per month

  for (int i = 0; i < kMessages; ++i) {
    int month = std::min(i / per_index, kIndexes - 1);
    std::string body =
        "<html><head><title>MAPUG message " + std::to_string(i) +
        "</title></head><body>\n";
    // The 6 nav buttons ("4-6 bit-mapped images ... among the first
    // pages migrated by the server").
    for (const char* button : kButtons) {
      body += "<img src=\"img/" + std::string(button) + ".gif\">\n";
    }
    // Navigation anchors: next/prev by date and by thread, indexes.
    auto wrap = [&](int m) { return (m % kMessages + kMessages) % kMessages; };
    body += "<a href=\"msg" + std::to_string(wrap(i + 1)) +
            ".html\">next</a>\n";
    body += "<a href=\"msg" + std::to_string(wrap(i - 1)) +
            ".html\">prev</a>\n";
    body += "<a href=\"msg" + std::to_string(wrap(i + 7)) +
            ".html\">next in thread</a>\n";
    body += "<a href=\"msg" + std::to_string(wrap(i - 7)) +
            ".html\">prev in thread</a>\n";
    body += "<a href=\"index" + std::to_string(month) +
            ".html\">month index</a>\n";
    body += "<a href=\"index0.html\">archive home</a>\n";
    // Cross-references quoted in the message body.
    for (int r = 0; r < 6; ++r) {
      body += "<a href=\"msg" +
              std::to_string(rng.NextBelow(kMessages)) +
              ".html\">ref</a>\n";
    }
    PadTo(body, rng, kMessageBytes);
    body += "</body></html>\n";
    site.documents.push_back(HtmlDoc(msg_path(i), std::move(body)));
  }

  for (int k = 0; k < kIndexes; ++k) {
    std::string body = "<html><head><title>MAPUG month " +
                       std::to_string(k) + "</title></head><body>\n";
    for (const char* button : kButtons) {
      body += "<img src=\"img/" + std::string(button) + ".gif\">\n";
    }
    body += "<a href=\"index" + std::to_string((k + 1) % kIndexes) +
            ".html\">next month</a>\n";
    body += "<a href=\"index" +
            std::to_string((k + kIndexes - 1) % kIndexes) +
            ".html\">prev month</a>\n";
    for (int i = k * per_index;
         i < std::min((k + 1) * per_index, kMessages); ++i) {
      body += "<a href=\"msg" + std::to_string(i) + ".html\">msg " +
              std::to_string(i) + "</a>\n";
    }
    PadTo(body, rng, kIndexBytes);
    body += "</body></html>\n";
    site.documents.push_back(HtmlDoc(index_page(k), std::move(body)));
  }

  // The archive is entered through its index pages.
  site.entry_points = {index_page(0)};
  return site;
}

// ---------------------------------------------------------------- SBLog

SiteSpec BuildSblog(Rng& rng) {
  // 402 documents = 1 bar-graph JPEG + 1 front page (the published
  // entry) + 11 overview indexes + 389 per-file detail reports;
  // 57,531 links; 8,468 KB.  "This JPEG image file is extremely
  // popular" — every report renders its bar charts with it.
  constexpr int kIndexes = 11;
  constexpr int kDetails = 389;
  constexpr uint64_t kJpegBytes = 16'000;
  constexpr uint64_t kDetailBytes = 20'200;
  constexpr uint64_t kIndexBytes = 36'000;
  constexpr uint64_t kFrontBytes = 5'000;
  constexpr int kBarsPerDetail = 128;

  SiteSpec site;
  site.name = "SBLog";
  site.documents.push_back(ImageDoc("/stats/bar.jpg", rng, kJpegBytes));

  auto detail_path = [](int i) {
    return "/stats/file" + std::to_string(i) + ".html";
  };
  auto index_page = [](int k) {
    return "/stats/index" + std::to_string(k) + ".html";
  };

  for (int i = 0; i < kDetails; ++i) {
    std::string body = "<html><head><title>activity for file " +
                       std::to_string(i) + "</title></head><body>\n";
    body += "<a href=\"index0.html\">by date</a> ";
    body += "<a href=\"index1.html\">by address</a> ";
    body += "<a href=\"index2.html\">by directory</a>\n";
    body += "<a href=\"file" + std::to_string((i + 1) % kDetails) +
            ".html\">next file</a> ";
    body += "<a href=\"file" +
            std::to_string((i + kDetails - 1) % kDetails) +
            ".html\">previous file</a>\n";
    for (int bar = 0; bar < kBarsPerDetail; ++bar) {
      body += "<img src=\"bar.jpg\" width=" +
              std::to_string(1 + rng.NextBelow(300)) + " height=12>\n";
    }
    PadTo(body, rng, kDetailBytes);
    body += "</body></html>\n";
    site.documents.push_back(HtmlDoc(detail_path(i), std::move(body)));
  }

  for (int k = 0; k < kIndexes; ++k) {
    std::string body = "<html><head><title>overview " +
                       std::to_string(k) + "</title></head><body>\n";
    body += "<a href=\"index.html\">summary</a>\n";
    for (int bar = 0; bar < 40; ++bar) {
      body += "<img src=\"bar.jpg\" width=" +
              std::to_string(1 + rng.NextBelow(300)) + " height=12>\n";
    }
    for (int i = 0; i < kDetails; ++i) {
      body += "<a href=\"file" + std::to_string(i) + ".html\">file " +
              std::to_string(i) + "</a>\n";
    }
    PadTo(body, rng, kIndexBytes);
    body += "</body></html>\n";
    site.documents.push_back(HtmlDoc(index_page(k), std::move(body)));
  }

  // The published entry point: a small summary front page.
  {
    std::string body =
        "<html><head><title>web statistics</title></head><body>\n";
    for (int bar = 0; bar < 4; ++bar) {
      body += "<img src=\"bar.jpg\" width=200 height=12>\n";
    }
    for (int k = 0; k < kIndexes; ++k) {
      body += "<a href=\"index" + std::to_string(k) +
              ".html\">overview " + std::to_string(k) + "</a>\n";
    }
    for (int i = 0; i < 20; ++i) {
      body += "<a href=\"file" +
              std::to_string(rng.NextBelow(kDetails)) +
              ".html\">busiest file " + std::to_string(i) + "</a>\n";
    }
    PadTo(body, rng, kFrontBytes);
    body += "</body></html>\n";
    site.documents.push_back(HtmlDoc("/stats/index.html",
                                     std::move(body)));
  }

  site.entry_points = {"/stats/index.html"};
  return site;
}

// ------------------------------------------------------------------ LOD

SiteSpec BuildLod(Rng& rng) {
  // 349 documents = 240 thumbnail images + 109 HTML (1 index, 6 gallery
  // tables of 40 thumbnails, 102 item pages); 1,433 links; 750 KB.
  // Image sizes bimodal: ~half 1.5 KB, rest 3.5 KB.
  constexpr int kGalleries = 6;
  constexpr int kThumbsPerGallery = 40;
  constexpr int kItems = 102;
  constexpr int kImages = kGalleries * kThumbsPerGallery;  // 240

  SiteSpec site;
  site.name = "LOD";

  auto image_path = [](int i) {
    return "/lod/img/t" + std::to_string(i) + ".gif";
  };
  auto gallery_path = [](int g) {
    return "/lod/gallery" + std::to_string(g) + ".html";
  };
  auto item_path = [](int i) {
    return "/lod/item" + std::to_string(i) + ".html";
  };

  for (int i = 0; i < kImages; ++i) {
    uint64_t bytes = (i % 2 == 0) ? 1500 : 3500;
    site.documents.push_back(ImageDoc(image_path(i), rng, bytes));
  }

  // Index: links to galleries and items.
  {
    std::string body =
        "<html><head><title>LOD adventure guide</title></head><body>\n";
    for (int g = 0; g < kGalleries; ++g) {
      body += "<a href=\"gallery" + std::to_string(g) +
              ".html\">gallery " + std::to_string(g) + "</a>\n";
    }
    for (int i = 0; i < kItems; ++i) {
      body += "<a href=\"item" + std::to_string(i) + ".html\">item " +
              std::to_string(i) + "</a>\n";
    }
    PadTo(body, rng, 3000);
    body += "</body></html>\n";
    site.documents.push_back(HtmlDoc("/lod/index.html", std::move(body)));
  }

  // Galleries: "large tables of characters or data items with about 50
  // thumbnail images in each".
  for (int g = 0; g < kGalleries; ++g) {
    std::string body = "<html><head><title>gallery " +
                       std::to_string(g) + "</title></head><body>\n"
                       "<a href=\"index.html\">home</a>\n<table>\n";
    for (int t = 0; t < kThumbsPerGallery; ++t) {
      int img = g * kThumbsPerGallery + t;
      body += "<tr><td><img src=\"img/t" + std::to_string(img) +
              ".gif\"></td></tr>\n";
    }
    body += "</table>\n";
    // Items catalogued in this gallery.
    for (int i = g; i < kItems; i += kGalleries) {
      body += "<a href=\"item" + std::to_string(i) + ".html\">item " +
              std::to_string(i) + "</a>\n";
    }
    body += "<a href=\"gallery" + std::to_string((g + 1) % kGalleries) +
            ".html\">next gallery</a>\n";
    PadTo(body, rng, 2600);
    body += "</body></html>\n";
    site.documents.push_back(HtmlDoc(gallery_path(g), std::move(body)));
  }

  // Item pages: a couple of pictures plus navigation.
  for (int i = 0; i < kItems; ++i) {
    std::string body = "<html><head><title>item " + std::to_string(i) +
                       "</title></head><body>\n";
    for (int p = 0; p < 4; ++p) {
      body += "<img src=\"img/t" +
              std::to_string(rng.NextBelow(kImages)) + ".gif\">\n";
    }
    body += "<a href=\"index.html\">home</a>\n";
    body += "<a href=\"item" + std::to_string((i + 1) % kItems) +
            ".html\">next item</a>\n";
    body += "<a href=\"item" + std::to_string((i + kItems - 1) % kItems) +
            ".html\">prev item</a>\n";
    body += "<a href=\"gallery" +
            std::to_string(rng.NextBelow(kGalleries)) +
            ".html\">gallery</a>\n";
    body += "<a href=\"gallery" + std::to_string(i % kGalleries) +
            ".html\">catalogue</a>\n";
    PadTo(body, rng, 1200);
    body += "</body></html>\n";
    site.documents.push_back(HtmlDoc(item_path(i), std::move(body)));
  }

  site.entry_points = {"/lod/index.html"};
  return site;
}

// -------------------------------------------------------------- Sequoia

SiteSpec BuildSequoia(Rng& rng) {
  // 130 AVHRR rasters of 1-2.8 MB plus a hyperlinked front page.
  constexpr int kRasters = 130;
  constexpr uint64_t kMinBytes = 1'000'000;
  constexpr uint64_t kMaxBytes = 2'800'000;

  SiteSpec site;
  site.name = "Sequoia";

  std::string body =
      "<html><head><title>Sequoia 2000 raster data</title></head>"
      "<body>\n<h1>AVHRR satellite rasters</h1>\n";
  for (int i = 0; i < kRasters; ++i) {
    std::string path = "/sequoia/raster" + std::to_string(i) + ".jpg";
    uint64_t bytes =
        kMinBytes + rng.NextBelow(kMaxBytes - kMinBytes + 1);
    site.documents.push_back(ImageDoc(path, rng, bytes));
    body += "<a href=\"raster" + std::to_string(i) + ".jpg\">scene " +
            std::to_string(i) + "</a>\n";
  }
  body += "</body></html>\n";
  site.documents.push_back(HtmlDoc("/sequoia/index.html",
                                   std::move(body)));
  site.entry_points = {"/sequoia/index.html"};
  return site;
}

}  // namespace dcws::workload
