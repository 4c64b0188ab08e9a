#ifndef PERFBENCH_CATALOG_H_
#define PERFBENCH_CATALOG_H_

// The benchmark's inputs: the movie and YouTube workloads of the paper's
// evaluation, generated from the run's seed, and the dialect statements
// issued against them.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "svq/core/query.h"
#include "svq/eval/workloads.h"
#include "svq/video/synthetic_video.h"

namespace perfbench {

struct CatalogVideo {
  std::shared_ptr<const svq::video::SyntheticVideo> video;
  /// The query of the scenario the video belongs to.
  svq::core::Query query;
  bool movie = false;
};

/// Movies (paper Table 2) at `movie_scale` plus the YouTube scenarios
/// (paper Table 1) at `youtube_scale`, sorted by video name — the order
/// every engine registers them in, so video ids follow names.
inline std::vector<CatalogVideo> MakeCatalog(uint64_t seed, double movie_scale,
                                             double youtube_scale) {
  std::vector<CatalogVideo> catalog;
  auto add = [&](const std::vector<svq::eval::QueryScenario>& scenarios,
                 bool movie) {
    for (const auto& scenario : scenarios) {
      for (const auto& video : scenario.videos) {
        catalog.push_back({video, scenario.query, movie});
      }
    }
  };
  if (movie_scale > 0.0) {
    add(ValueOrDie(svq::eval::MoviesWorkload(seed, movie_scale),
                   "MoviesWorkload"),
        true);
  }
  if (youtube_scale > 0.0) {
    add(ValueOrDie(svq::eval::YouTubeWorkload(seed, youtube_scale),
                   "YouTubeWorkload"),
        false);
  }
  std::sort(catalog.begin(), catalog.end(),
            [](const CatalogVideo& a, const CatalogVideo& b) {
              return a.video->name() < b.video->name();
            });
  return catalog;
}

inline std::string QuotedList(const std::vector<std::string>& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += "'" + labels[i] + "'";
  }
  return out;
}

/// A ranked top-K statement over one video, or over every video when
/// `video` is "*".
inline std::string RankedStatement(const svq::core::Query& query,
                                   const std::string& video, int k) {
  return "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS " + video +
         " PRODUCE clipID, obj USING ObjectDetector, act USING "
         "ActionRecognizer) WHERE act='" +
         query.action + "' AND obj.include(" + QuotedList(query.objects) +
         ") ORDER BY RANK(act, obj) LIMIT " + std::to_string(k);
}

}  // namespace perfbench

#endif  // PERFBENCH_CATALOG_H_
