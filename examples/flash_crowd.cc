// Flash crowd on a newspaper site, on the discrete-event simulator: one
// front page (the well-known entry point that never migrates), sections
// and stories behind it.  A burst of readers arrives; watch the cluster
// absorb it as DCWS migrates stories onto idle co-op servers — a
// miniature of the paper's Figure 8 dynamic, driven through the public
// simulation API.
//
//   ./build/examples/flash_crowd

#include <cstdio>

#include "src/sim/experiment.h"
#include "src/workload/site.h"

using namespace dcws;

namespace {

workload::SiteSpec MakeNewspaper(Rng& rng) {
  workload::SiteSpec site;
  site.name = "newspaper";
  constexpr int kSections = 6;
  constexpr int kStoriesPerSection = 20;

  std::string front = "<h1>The Daily Packet</h1>\n";
  for (int s = 0; s < kSections; ++s) {
    front += "<a href=\"section" + std::to_string(s) +
             ".html\">section " + std::to_string(s) + "</a>\n";
  }
  for (int s = 0; s < kSections; ++s) {
    std::string section = "<h2>section " + std::to_string(s) + "</h2>\n"
                          "<a href=\"/front.html\">front page</a>\n";
    for (int t = 0; t < kStoriesPerSection; ++t) {
      int id = s * kStoriesPerSection + t;
      section += "<a href=\"story" + std::to_string(id) +
                 ".html\">story " + std::to_string(id) + "</a>\n";
      storage::Document story;
      story.path = "/story" + std::to_string(id) + ".html";
      story.content =
          "<h3>story " + std::to_string(id) + "</h3><img src=\"/logo.gif\">" +
          "<p>" + workload::FillerText(rng, 3500) + "</p>" +
          "<a href=\"/front.html\">front</a>" +
          "<a href=\"/section" + std::to_string(s) + ".html\">section</a>";
      story.content_type = "text/html";
      site.documents.push_back(std::move(story));
    }
    storage::Document doc;
    doc.path = "/section" + std::to_string(s) + ".html";
    doc.content = std::move(section);
    doc.content_type = "text/html";
    site.documents.push_back(std::move(doc));
  }
  storage::Document logo;
  logo.path = "/logo.gif";
  logo.content = workload::BinaryBlob(rng, 1200);
  logo.content_type = "image/gif";
  site.documents.push_back(std::move(logo));

  storage::Document front_doc;
  front_doc.path = "/front.html";
  front_doc.content = std::move(front);
  front_doc.content_type = "text/html";
  site.documents.push_back(std::move(front_doc));

  site.entry_points = {"/front.html"};
  return site;
}

}  // namespace

int main() {
  Rng rng(23);
  workload::SiteSpec site = MakeNewspaper(rng);
  std::printf("newspaper: %zu documents, entry %s\n",
              site.documents.size(), site.entry_points[0].c_str());

  sim::SimConfig config;
  config.servers = 6;
  config.seed = 23;
  config.params.hit_threshold = 2;

  // The flash crowd: 180 concurrent readers from t = 0, cold cluster,
  // honest Table-1 migration pacing.
  sim::GrowthResult growth = sim::RunGrowthExperiment(
      site, config, /*clients=*/180, /*duration=*/Seconds(600),
      /*sample_interval=*/Seconds(20));

  std::printf("\n%-8s %10s %12s %12s\n", "t (s)", "CPS", "MB/s",
              "migrations");
  for (size_t i = 0; i < growth.cps_series.size(); ++i) {
    std::printf("%-8lld %10.0f %12.2f %12.0f\n",
                static_cast<long long>(growth.cps_series.time_at(i) /
                                       kMicrosPerSecond),
                growth.cps_series.value_at(i),
                growth.bps_series.value_at(i) / 1e6,
                growth.migrations_series.value_at(i));
  }

  std::printf("\nfinal rate %.0f CPS (first sample %.0f) — the crowd was "
              "absorbed by %0.f migrations\n",
              growth.cps_series.TailMean(0.1),
              growth.cps_series.value_at(0),
              growth.migrations_series.values().back());
  std::printf("flash_crowd done.\n");
  return 0;
}
