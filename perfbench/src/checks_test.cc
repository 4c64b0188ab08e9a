// Self-tests of the benchmark's correctness checks: each checker accepts
// the right answer and rejects corrupted ones (a dropped or reordered
// sequence, a clip outside the posting-list intersection, a missing or
// duplicated stream event, a flipped byte in a reopened table).
//
//   svq_perfbench_checks_test [scratch-dir]

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "checks.h"
#include "svq/core/engine.h"
#include "svq/video/synthetic_video.h"

namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}
void ExpectPass(const std::string& error, const std::string& what) {
  Expect(error.empty(), what + " should pass, got: " + error);
}
void ExpectFail(const std::string& error, const std::string& what) {
  Expect(!error.empty(), what + " should fail");
}

using perfbench::OracleRow;
using svq::server::WireSequence;
using svq::video::Interval;
using svq::video::IntervalSet;

std::vector<WireSequence> ToWire(const std::vector<OracleRow>& rows) {
  std::vector<WireSequence> out;
  for (const auto& r : rows) out.push_back({r.begin, r.end, r.lower, r.upper});
  return out;
}

void RankedChecks() {
  // Two videos; P_q of video 0 is [0,10) + [20,30), of video 1 [5,15).
  const IntervalSet p0({{0, 10}, {20, 30}});
  const IntervalSet p1({{5, 15}});
  const std::vector<const IntervalSet*> candidates = {&p0, &p1};
  const std::vector<OracleRow> oracle = {
      {20, 30, 9.0, 9.0, 0}, {5, 15, 7.5, 7.5, 1}, {0, 10, 7.5, 7.5, 0}};
  const int k = 3;

  ExpectPass(perfbench::CheckRanked(ToWire(oracle), oracle, k, candidates),
             "exact ranked answer");
  std::vector<WireSequence> close = ToWire(oracle);
  close[1].lower_bound += 1e-12;
  close[1].upper_bound += 1e-12;
  ExpectPass(perfbench::CheckRanked(close, oracle, k, candidates),
             "scores within 1e-9");

  std::vector<WireSequence> dropped = ToWire(oracle);
  dropped.erase(dropped.begin() + 1);
  ExpectFail(perfbench::CheckRanked(dropped, oracle, k, candidates),
             "dropped sequence");

  std::vector<WireSequence> reordered = ToWire(oracle);
  std::swap(reordered[1], reordered[2]);  // same score: tie order broken
  ExpectFail(perfbench::CheckRanked(reordered, oracle, k, candidates),
             "reordered tie");
  std::vector<WireSequence> rising = ToWire(oracle);
  std::swap(rising[0], rising[1]);
  ExpectFail(perfbench::CheckRanked(rising, oracle, k, candidates),
             "scores rising");

  std::vector<WireSequence> off = ToWire(oracle);
  off[0].lower_bound += 1e-6;
  ExpectFail(perfbench::CheckRanked(off, oracle, k, candidates),
             "score off by 1e-6");
  ExpectFail(perfbench::CheckRanked(ToWire(oracle), oracle, 2, candidates),
             "more rows than K");

  // A clip outside the posting-list intersection, both as a wrong answer
  // and as a wrong oracle: [10,20) lies in no interval of P_q of video 0.
  std::vector<OracleRow> outside = oracle;
  outside[0].begin = 10;
  outside[0].end = 20;
  ExpectFail(perfbench::CheckInsideCandidates(outside, candidates),
             "row outside P_q");
  ExpectFail(perfbench::CheckRanked(ToWire(outside), outside, k, candidates),
             "answer agreeing with an oracle outside P_q");
  std::vector<OracleRow> straddles = oracle;
  straddles[1].end = 16;  // runs past [5,15) of video 1
  ExpectFail(perfbench::CheckInsideCandidates(straddles, candidates),
             "row straddling P_q");
  ExpectPass(perfbench::CheckInsideCandidates(oracle, candidates),
             "oracle inside P_q");
}

void StreamChecks() {
  using Event = svq::stream::StreamEvent;
  using Kind = Event::Kind;
  const std::vector<Interval> oracle = {{3, 7}, {12, 20}, {31, 33}};
  auto sequence = [](Interval i) {
    Event e;
    e.kind = Kind::kSequence;
    e.sequence = i;
    return e;
  };
  Event end;
  end.kind = Kind::kEndOfStream;
  std::vector<Event> events;
  for (const auto& i : oracle) events.push_back(sequence(i));
  events.push_back(end);
  ExpectPass(perfbench::CheckStream(events, oracle, 0), "exact stream");

  std::vector<Event> missing = events;
  missing.erase(missing.begin() + 1);
  ExpectFail(perfbench::CheckStream(missing, oracle, 0), "missing event");
  std::vector<Event> duplicated = events;
  duplicated.insert(duplicated.begin() + 1, sequence(oracle[0]));
  ExpectFail(perfbench::CheckStream(duplicated, oracle, 0),
             "duplicated event");
  std::vector<Event> reordered = events;
  std::swap(reordered[0], reordered[1]);
  ExpectFail(perfbench::CheckStream(reordered, oracle, 0), "reordered events");
  std::vector<Event> extra = events;
  extra.insert(extra.end() - 1, sequence({40, 44}));
  ExpectFail(perfbench::CheckStream(extra, oracle, 0), "extra event");
  std::vector<Event> no_end(events.begin(), events.end() - 1);
  ExpectFail(perfbench::CheckStream(no_end, oracle, 0), "no end-of-stream");
  std::vector<Event> gap = events;
  Event g;
  g.kind = Kind::kGap;
  g.dropped = 1;
  gap.insert(gap.begin() + 2, g);
  ExpectFail(perfbench::CheckStream(gap, oracle, 0), "gap event");
  ExpectFail(perfbench::CheckStream(events, oracle, 1), "dropped events");

  ExpectPass(perfbench::CheckEventAccounting(40, 0, 40), "accounting");
  ExpectFail(perfbench::CheckEventAccounting(39, 0, 40), "lost delivery");
  ExpectFail(perfbench::CheckEventAccounting(39, 1, 40), "dropped delivery");
}

std::shared_ptr<const svq::video::SyntheticVideo> SmallVideo() {
  svq::video::SyntheticVideoSpec spec;
  spec.name = "selftest";
  spec.num_frames = 8000;
  spec.seed = 7;
  spec.actions.push_back({"smoking", 350.0, 2000.0});
  svq::video::SyntheticObjectSpec cup;
  cup.label = "cup";
  cup.correlate_with_action = "smoking";
  cup.correlation = 0.9;
  cup.coverage = 0.9;
  cup.mean_on_frames = 250.0;
  cup.mean_off_frames = 1500.0;
  spec.objects.push_back(cup);
  auto video = svq::video::SyntheticVideo::Generate(spec);
  Expect(video.ok(), "video generation");
  return *video;
}

/// A copy of `v` over in-memory tables, with one byte of one score of
/// table `label` flipped when `flip` is set.
svq::core::IngestedVideo CopyWithFlip(const svq::core::IngestedVideo& v,
                                      const std::string& label, bool flip) {
  svq::core::IngestedVideo out;
  out.name = v.name;
  out.num_frames = v.num_frames;
  out.num_clips = v.num_clips;
  out.object_sequences = v.object_sequences;
  out.action_sequences = v.action_sequences;
  auto copy = [&](const auto& from, auto* to) {
    for (const auto& [name, table] : from) {
      std::vector<svq::storage::ClipScoreRow> rows;
      for (int64_t r = 0; r < table->NumRows(); ++r) rows.push_back(*table->RowAt(r));
      if (flip && name == label && !rows.empty()) {
        unsigned char bytes[sizeof(double)];
        std::memcpy(bytes, &rows.back().score, sizeof(double));
        bytes[0] ^= 0x01;
        std::memcpy(&rows.back().score, bytes, sizeof(double));
      }
      (*to)[name] = *svq::storage::MemoryScoreTable::Create(std::move(rows));
    }
  };
  copy(v.object_tables, &out.object_tables);
  copy(v.action_tables, &out.action_tables);
  return out;
}

void ArtifactChecks(const std::string& scratch) {
  const auto video = SmallVideo();
  svq::core::VideoQueryEngine memory;
  Expect(memory.AddVideo(video).ok(), "AddVideo");
  Expect(memory.Ingest(video->name()).ok(), "memory ingest");
  const auto want = memory.Ingested(video->name());

  svq::core::IngestOptions disk;
  disk.backend = svq::core::IngestOptions::TableBackend::kDisk;
  disk.directory = scratch;
  svq::core::VideoQueryEngine writer(svq::models::ModelSuite(),
                                     svq::core::OnlineConfig(), disk);
  Expect(writer.AddVideo(video).ok(), "AddVideo");
  Expect(writer.Ingest(video->name()).ok(), "disk ingest");
  const std::string dir = scratch + "/" + video->name();
  auto reopened = svq::core::OpenIngestedVideo(dir);
  Expect(reopened.ok(), "reopen");
  if (!reopened.ok()) return;
  const uint64_t digest = perfbench::ArtifactDigest(*want);
  ExpectPass(perfbench::CheckArtifactDigest(*reopened, digest),
             "reopened artifacts");
  ExpectPass(perfbench::CheckArtifactDigest(
                 CopyWithFlip(*want, "cup", false), digest),
             "unflipped copy");
  ExpectFail(perfbench::CheckArtifactDigest(CopyWithFlip(*want, "cup", true),
                                            digest),
             "flipped score byte");
  ExpectFail(perfbench::CheckArtifactDigest(
                 CopyWithFlip(*want, "smoking", true), digest),
             "flipped action score byte");
  svq::core::IngestedVideo fewer = CopyWithFlip(*want, "", false);
  fewer.object_sequences.clear();
  ExpectFail(perfbench::CheckArtifactDigest(fewer, digest), "lost sequences");

  // A byte flipped on disk: the reopen itself must refuse the table.
  const std::string table = dir + "/obj_cup.svqt";
  std::fstream file(table, std::ios::in | std::ios::out | std::ios::binary);
  Expect(static_cast<bool>(file), "open " + table);
  file.seekg(40);
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x10;
  file.seekp(40);
  file.write(&byte, 1);
  file.close();
  auto damaged = svq::core::OpenIngestedVideo(dir);
  Expect(!damaged.ok() ||
             !perfbench::CheckArtifactDigest(*damaged, digest).empty(),
         "flipped byte on disk must not reopen as the same artifacts");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scratch =
      argc > 1 ? argv[1] : ".bench_build/perfbench-selftest";
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  std::filesystem::create_directories(scratch, ec);
  RankedChecks();
  StreamChecks();
  ArtifactChecks(scratch);
  std::filesystem::remove_all(scratch, ec);
  if (failures > 0) {
    std::cerr << failures << " self-test(s) failed\n";
    return 1;
  }
  std::cout << "perfbench checks: all self-tests passed\n";
  return 0;
}
