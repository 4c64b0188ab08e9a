#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// The benchmark's correctness checks. Each returns an empty string when
// the answer holds and a description of the first violation otherwise.
// The oracles they compare against are computed apart from the measured
// stack (checks_test.cc feeds each one corrupted answers).

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "svq/core/ingest.h"
#include "svq/server/wire.h"
#include "svq/stream/stream_event.h"
#include "svq/video/interval_set.h"

namespace perfbench {

/// One expected ranked answer row, attributed to the catalog video
/// (`video`, an index into the oracle's candidate sets) it came from.
struct OracleRow {
  int64_t begin = 0;
  int64_t end = 0;
  double lower = 0.0;
  double upper = 0.0;
  size_t video = 0;
};

constexpr double kScoreTolerance = 1e-9;

/// `rows` are inside the candidate sequences P_q of their videos: each
/// answer sequence lies within one interval of the posting-list
/// intersection the query's predicates define.
inline std::string CheckInsideCandidates(
    const std::vector<OracleRow>& rows,
    const std::vector<const svq::video::IntervalSet*>& candidates) {
  for (size_t i = 0; i < rows.size(); ++i) {
    const OracleRow& row = rows[i];
    if (row.video >= candidates.size() || candidates[row.video] == nullptr) {
      return "row " + std::to_string(i) + " has no candidate set";
    }
    bool inside = false;
    for (const svq::video::Interval& c : candidates[row.video]->intervals()) {
      if (c.begin <= row.begin && row.end <= c.end && row.begin < row.end) {
        inside = true;
        break;
      }
    }
    if (!inside) {
      return "row " + std::to_string(i) + " [" + std::to_string(row.begin) +
             "," + std::to_string(row.end) + ") lies outside P_q";
    }
  }
  return "";
}

/// A ranked answer against the oracle's merge: at most K rows, scores
/// non-increasing, clips exactly the oracle's in the oracle's order (ties
/// by catalog video order, then clip begin), bounds within 1e-9, and every
/// row inside P_q.
inline std::string CheckRanked(
    const std::vector<svq::server::WireSequence>& got,
    const std::vector<OracleRow>& want, int k,
    const std::vector<const svq::video::IntervalSet*>& candidates) {
  if (static_cast<int64_t>(got.size()) > k) {
    return "answer has " + std::to_string(got.size()) + " rows for K=" +
           std::to_string(k);
  }
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i].lower_bound > got[i - 1].lower_bound) {
      return "scores rise at row " + std::to_string(i);
    }
  }
  if (got.size() != want.size()) {
    return "answer has " + std::to_string(got.size()) +
           " rows, oracle has " + std::to_string(want.size());
  }
  std::vector<OracleRow> attributed = want;
  for (size_t i = 0; i < got.size(); ++i) {
    const OracleRow& w = want[i];
    if (got[i].begin != w.begin || got[i].end != w.end) {
      return "row " + std::to_string(i) + " is [" +
             std::to_string(got[i].begin) + "," + std::to_string(got[i].end) +
             "), oracle has [" + std::to_string(w.begin) + "," +
             std::to_string(w.end) + ")";
    }
    if (std::fabs(got[i].lower_bound - w.lower) > kScoreTolerance ||
        std::fabs(got[i].upper_bound - w.upper) > kScoreTolerance) {
      return "row " + std::to_string(i) + " score differs from the oracle";
    }
    attributed[i].begin = got[i].begin;
    attributed[i].end = got[i].end;
  }
  return CheckInsideCandidates(attributed, candidates);
}

/// The events one standing query delivered over a whole feed pass against
/// the batch execution of the same statement: every sequence exactly once
/// and in order, no gap, one end-of-stream last, nothing dropped.
inline std::string CheckStream(
    const std::vector<svq::stream::StreamEvent>& events,
    const std::vector<svq::video::Interval>& oracle, int64_t dropped_total) {
  using Kind = svq::stream::StreamEvent::Kind;
  if (dropped_total != 0) {
    return std::to_string(dropped_total) + " event(s) dropped";
  }
  size_t next = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    switch (event.kind) {
      case Kind::kSequence:
        if (next >= oracle.size()) {
          return "extra sequence [" + std::to_string(event.sequence.begin) +
                 "," + std::to_string(event.sequence.end) + ")";
        }
        if (!(event.sequence == oracle[next])) {
          return "sequence " + std::to_string(next) + " is [" +
                 std::to_string(event.sequence.begin) + "," +
                 std::to_string(event.sequence.end) + "), batch has [" +
                 std::to_string(oracle[next].begin) + "," +
                 std::to_string(oracle[next].end) + ")";
        }
        ++next;
        break;
      case Kind::kGap:
        return "gap event: " + event.status.ToString();
      case Kind::kError:
        return "error event: " + event.status.ToString();
      case Kind::kEndOfStream:
        if (i + 1 != events.size()) return "events after end-of-stream";
        break;
    }
  }
  if (next != oracle.size()) {
    return "delivered " + std::to_string(next) + " of " +
           std::to_string(oracle.size()) + " sequences";
  }
  if (events.empty() || events.back().kind != Kind::kEndOfStream) {
    return "no end-of-stream event";
  }
  return "";
}

/// Dispatcher-wide event accounting of one feed pass.
inline std::string CheckEventAccounting(int64_t delivered, int64_t dropped,
                                        int64_t produced) {
  if (dropped != 0) return std::to_string(dropped) + " event(s) dropped";
  if (delivered + dropped != produced) {
    return "delivered " + std::to_string(delivered) + " + dropped " +
           std::to_string(dropped) + " != produced " +
           std::to_string(produced);
  }
  return "";
}

/// A 64-bit FNV-1a digest of ingested artifacts: name, frame and clip
/// counts, every score table row in rank order, every sequence set. The
/// benchmark keeps the oracle's digests rather than its tables, so that the
/// oracle's memory is freed before the program is measured.
inline uint64_t ArtifactDigest(const svq::core::IngestedVideo& v) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto bytes = [&h](const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
  };
  auto word = [&bytes](int64_t x) { bytes(&x, sizeof(x)); };
  auto text = [&](const std::string& s) {
    word(static_cast<int64_t>(s.size()));
    bytes(s.data(), s.size());
  };
  text(v.name);
  word(v.num_frames);
  word(v.num_clips);
  for (const auto* tables : {&v.object_tables, &v.action_tables}) {
    word(static_cast<int64_t>(tables->size()));
    for (const auto& [label, table] : *tables) {
      text(label);
      word(table->NumRows());
      for (int64_t r = 0; r < table->NumRows(); ++r) {
        auto row = table->RowAt(r);
        if (!row.ok()) {
          word(-1);
          continue;
        }
        word(row->clip);
        bytes(&row->score, sizeof(row->score));
      }
    }
  }
  for (const auto* sets : {&v.object_sequences, &v.action_sequences}) {
    word(static_cast<int64_t>(sets->size()));
    for (const auto& [label, set] : *sets) {
      text(label);
      word(static_cast<int64_t>(set.intervals().size()));
      for (const svq::video::Interval& i : set.intervals()) {
        word(i.begin);
        word(i.end);
      }
    }
  }
  return h;
}

/// Ingested or reopened artifacts against the digest of an in-memory
/// ingest of the same video.
inline std::string CheckArtifactDigest(const svq::core::IngestedVideo& got,
                                       uint64_t want) {
  if (ArtifactDigest(got) == want) return "";
  return "artifacts of '" + got.name + "' differ from the one-thread ingest";
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
