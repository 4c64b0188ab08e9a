// ingest: the write path and the restart path. Each cycle ingests the
// catalog with VideoQueryEngine::IngestAll (videos side by side, the
// runtime pool inside each) into memory tables, then reopens the disk
// artifact directory of every video, written once in set-up, with
// OpenIngestedVideo. Both are compared, every video and every cycle, with
// a one-thread in-memory ingest made apart from the measured path (by
// digest, so the oracle's tables are not resident while timing).
//
// The tables stay in memory in the timed cycles because fsync latency on
// a shared disk varied by 2x between and within runs; the traced run
// still measures one durable ingest through a counting Env (io.*).

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog.h"
#include "checks.h"
#include "common.h"
#include "svq/common/rng.h"
#include "svq/core/engine.h"

namespace perfbench {
namespace {

// Inputs (README.md, "Inputs").
constexpr double kMovieScale = 0.05;
constexpr double kYouTubeScale = 0.2;
/// Videos are ingested one at a time. The timed cycles take the one-thread
/// path: with pool threads a cycle waits for its slowest worker, and on a
/// shared host that moved the cycle time by 30% between identical runs.
/// The set-up and durable ingests run the pool with two threads and are
/// checked against the one-thread oracle.
constexpr int kVideoParallelism = 1;
constexpr int kPoolThreads = 2;
constexpr int kWarmupCycles = 1;
constexpr size_t kPositiveClipSamples = 8;

class IngestRun {
 public:
  IngestRun(const Args& args, Mode mode, Report* report)
      : args_(args), mode_(mode), report_(report) {}

  int Run();

 private:
  struct Timing {
    Samples cycle_ms, reopen_ms;
    /// Frames per second of IngestAll time, one sample per cycle.
    Samples cycle_rate;
  };
  void Setup();
  /// Ingests the catalog with IngestAll into `options`' backend and checks
  /// every video against the oracle; returns the IngestAll time (ms), or a
  /// negative value when it failed.
  double IngestCatalog(const svq::core::IngestOptions& options,
                       int32_t parent, int64_t request, bool collect_runtime);
  void Cycle(int64_t request, Timing* timing);
  void TracedExtras();

  const Args& args_;
  const Mode mode_;
  Report* report_;
  Tracer tracer_;

  std::vector<CatalogVideo> catalog_;
  int64_t frames_ = 0;
  /// ArtifactDigest of the one-thread in-memory ingest, per video name.
  std::map<std::string, uint64_t> oracle_;
  std::string artifacts_;
  double oracle_ms_ = 0.0;

  // Traced-run accumulators.
  Samples inference_ms_, scoring_ms_, sequences_ms_, tables_ms_,
      ingest_video_ms_, positive_clips_us_;
  int64_t tasks_ = 0, steals_ = 0;
  BenchEnv counting_{/*durable=*/true};
};

void IngestRun::Setup() {
  catalog_ = MakeCatalog(args_.seed, kMovieScale, kYouTubeScale);
  for (const auto& c : catalog_) frames_ += c.video->num_frames();
  const Clock::time_point oracle_begin = Clock::now();
  {
    svq::core::VideoQueryEngine oracle;
    for (const auto& c : catalog_) {
      CheckOk(oracle.AddVideo(c.video).status(), "oracle AddVideo");
    }
    // One thread per video (IngestOptions::runtime defaults to the
    // sequential reference path); videos side by side.
    CheckOk(oracle.IngestAll(4), "oracle IngestAll");
    for (const auto& c : catalog_) {
      oracle_[c.video->name()] =
          ArtifactDigest(*oracle.Ingested(c.video->name()));
    }
  }
  oracle_ms_ = MsSince(oracle_begin);

  // The artifact directories every cycle reopens, written once.
  artifacts_ = args_.work_dir + "/ingest/artifacts";
  BenchEnv env(/*durable=*/false);
  svq::core::IngestOptions disk;
  disk.backend = svq::core::IngestOptions::TableBackend::kDisk;
  disk.directory = artifacts_;
  disk.env = &env;
  disk.runtime.num_threads = kPoolThreads;
  if (IngestCatalog(disk, Tracer::kNoParent, -1, false) < 0) {
    Die("artifact ingest", svq::Status::Internal(report_->errors.back()));
  }

  const int64_t attempted = report_->attempted;
  const int64_t failed = report_->failed;
  Timing warmup;
  for (int i = 0; i < kWarmupCycles; ++i) Cycle(-1, &warmup);
  report_->attempted = attempted;
  report_->failed = failed;
}

double IngestRun::IngestCatalog(const svq::core::IngestOptions& options,
                                int32_t parent, int64_t request,
                                bool collect_runtime) {
  svq::core::VideoQueryEngine engine(svq::models::ModelSuite(),
                                     svq::core::OnlineConfig(), options);
  for (const auto& c : catalog_) {
    CheckOk(engine.AddVideo(c.video).status(), "AddVideo");
  }
  ScopedSpan span(&tracer_, "core.ingest_all", parent, request);
  const Clock::time_point begin = Clock::now();
  const svq::Status status = engine.IngestAll(kVideoParallelism);
  const double ms = MsSince(begin);
  span.End();
  report_->SampleHeap();  // every video's tables are live here
  report_->attempted += static_cast<int64_t>(catalog_.size());
  if (!status.ok()) {
    report_->failed += static_cast<int64_t>(catalog_.size());
    report_->Fail("IngestAll: " + status.ToString());
    return -1.0;
  }
  // Parallel ingest against the one-thread oracle, every video.
  for (const auto& c : catalog_) {
    const auto ingested = engine.Ingested(c.video->name());
    const std::string error =
        CheckArtifactDigest(*ingested, oracle_.at(c.video->name()));
    if (!error.empty()) report_->Fail("ingested: " + error);
    const svq::core::IngestRunStats& s = ingested->ingest_stats;
    if (collect_runtime) {
      tasks_ += s.runtime.tasks_executed;
      steals_ += s.runtime.steals;
    } else if (tracer_.enabled()) {
      inference_ms_.Add(s.inference_ms);
      scoring_ms_.Add(s.scoring_ms);
      sequences_ms_.Add(s.sequences_ms);
      tables_ms_.Add(s.tables_ms);
    }
  }
  return ms;
}

void IngestRun::Cycle(int64_t request, Timing* timing) {
  ScopedSpan root(&tracer_, "cycle", Tracer::kNoParent, request);
  const svq::core::IngestOptions options;
  const double ms = IngestCatalog(options, root.id(), request, false);
  if (ms >= 0) {
    timing->cycle_ms.Add(ms);
    if (ms > 0) timing->cycle_rate.Add(1000.0 * frames_ / ms);
  }
  // Restart path: reopen every artifact directory and compare it.
  for (const auto& c : catalog_) {
    const std::string& name = c.video->name();
    ScopedSpan span(&tracer_, "core.open_ingested", root.id(), request);
    const Clock::time_point begin = Clock::now();
    auto reopened = svq::core::OpenIngestedVideo(artifacts_ + "/" + name);
    const double reopen_ms = MsSince(begin);
    span.End();
    ++report_->attempted;
    if (!reopened.ok()) {
      ++report_->failed;
      report_->Fail("OpenIngestedVideo: " + reopened.status().ToString());
      continue;
    }
    timing->reopen_ms.Add(reopen_ms);
    const std::string error = CheckArtifactDigest(*reopened, oracle_.at(name));
    if (!error.empty()) report_->Fail("reopened: " + error);
  }
}

/// The durable write path once (fsync on, through the counting Env, with
/// the runtime pool), the per-video ingest through the engine facade, and
/// the positive-clip determination on its own.
void IngestRun::TracedExtras() {
  ScopedSpan root(&tracer_, "extras", Tracer::kNoParent, -1);
  svq::core::IngestOptions disk;
  disk.backend = svq::core::IngestOptions::TableBackend::kDisk;
  disk.directory = args_.work_dir + "/ingest/durable";
  disk.env = &counting_;
  disk.runtime.num_threads = kPoolThreads;
  IngestCatalog(disk, root.id(), -1, /*collect_runtime=*/true);

  svq::core::VideoQueryEngine engine;
  svq::Rng rng(args_.seed + 99);
  const svq::core::IngestOptions defaults;
  const size_t step =
      std::max<size_t>(1, catalog_.size() / kPositiveClipSamples);
  for (size_t i = 0; i < catalog_.size(); i += step) {
    const auto& video = catalog_[i].video;
    CheckOk(engine.AddVideo(video).status(), "AddVideo");
    {
      ScopedSpan span(&tracer_, "core.ingest_video", root.id(),
                      static_cast<int64_t>(i));
      CheckOk(engine.Ingest(video->name()), "Ingest");
      ingest_video_ms_.Add(span.End() / 1000.0);
    }
    const std::string error = CheckArtifactDigest(
        *engine.Ingested(video->name()), oracle_.at(video->name()));
    if (!error.empty()) report_->Fail("single ingest: " + error);

    // Object-unit prediction indicators drawn around the ground truth of
    // the scenario's first object.
    const svq::video::IntervalSet truth =
        video->ground_truth().ObjectPresence(catalog_[i].query.objects.at(0));
    std::vector<uint8_t> events(static_cast<size_t>(video->num_frames()));
    for (size_t f = 0; f < events.size(); ++f) {
      const bool present = truth.Contains(static_cast<int64_t>(f));
      events[f] = rng.NextDouble() < (present ? 0.9 : 0.02) ? 1 : 0;
    }
    ScopedSpan span(&tracer_, "core.positive_clips", root.id(),
                    static_cast<int64_t>(i));
    auto clips = svq::core::ComputePositiveClips(
        events, video->layout().FramesPerClip(), defaults.alpha,
        defaults.reference_windows, defaults.object_bandwidth,
        defaults.initial_object_p, defaults.merge_gap_clips);
    positive_clips_us_.Add(span.End());
    if (!clips.ok()) report_->Fail("ComputePositiveClips");
  }
}

int IngestRun::Run() {
  Setup();
  const double setup_s =
      MsSince(ProcessStart()) / 1000.0 - oracle_ms_ / 1000.0;
  report_->Ref("oracle_s", oracle_ms_ / 1000.0, "s");
  report_->Ref("videos", static_cast<double>(catalog_.size()), "count");
  report_->Ref("frames", static_cast<double>(frames_), "count");

  auto emit = [this](const Timing& t, const std::string& prefix) {
    report_->Ref(prefix + "ingest_frames_per_s", t.cycle_rate.Median(),
                 "1/s");
    const double reopen = t.reopen_ms.Median();
    report_->Ref(prefix + "reopen_videos_per_s",
                 reopen > 0 ? 1000.0 / reopen : 0.0, "1/s");
    report_->Ref(prefix + "ingest_cycle_p50_ms", t.cycle_ms.Median(), "ms");
    report_->Ref(prefix + "reopen_p50_ms", reopen, "ms");
    report_->Ref(prefix + "reopen_p99_ms", t.reopen_ms.Percentile(0.99),
                 "ms");
    report_->Ref(prefix + "cycles", static_cast<double>(t.cycle_ms.size()),
                 "count");
  };

  Timing timed;
  report_->peak_heap_mb = 0.0;  // the peak of the timed cycles only
  {
    Budget budget{mode_ == Mode::kTraced ? args_.seconds / 2 : args_.seconds};
    const Clock::time_point began = Clock::now();
    for (int cycles = 0; budget.Continue(cycles, began); ++cycles) {
      Cycle(-1, &timed);
    }
    emit(timed, "");
  }
  if (mode_ == Mode::kTimed) {
    report_->end_to_end["rate_per_s"] = {timed.cycle_rate.Median(), "1/s"};
    report_->end_to_end["main_p50_ms"] = {timed.cycle_ms.Median(), "ms"};
    report_->end_to_end["side_p50_ms"] = {timed.reopen_ms.Median(), "ms"};
    report_->end_to_end["setup_s"] = {setup_s, "s"};
    return 0;
  }

  Timing traced;
  Budget budget{args_.seconds / 2};
  const Clock::time_point began = Clock::now();
  int cycles = 0;
  tracer_.Enable();
  for (; budget.Continue(cycles, began); ++cycles) Cycle(cycles, &traced);
  emit(traced, "traced.");
  TracedExtras();

  report_->Layer("core.ingest_video_ms", ingest_video_ms_.Median(), "ms");
  report_->Layer("core.ingest_inference_ms", inference_ms_.Mean(), "ms");
  report_->Layer("core.ingest_scoring_ms", scoring_ms_.Mean(), "ms");
  report_->Layer("core.ingest_sequences_ms", sequences_ms_.Mean(), "ms");
  report_->Layer("core.ingest_tables_ms", tables_ms_.Mean(), "ms");
  report_->Layer("core.positive_clips_us", positive_clips_us_.Median(), "us");
  // One durable IngestAll of the catalog, two pool threads per video.
  report_->Layer("runtime.tasks_executed", tasks_, "count");
  report_->Layer("runtime.steals", steals_, "count");
  report_->Layer("io.bytes_written", counting_.bytes.load(), "bytes");
  report_->Layer("io.files_written", counting_.files.load(), "count");
  report_->Layer("io.syncs", counting_.syncs.load(), "count");
  report_->Layer("io.sync_us", counting_.sync_ns.load() / 1000.0, "us");
  report_->Layer("io.append_us", counting_.append_ns.load() / 1000.0, "us");
  report_->Layer("io.bytes_per_frame",
                 frames_ > 0 ? static_cast<double>(counting_.bytes.load()) /
                                   static_cast<double>(frames_)
                             : 0.0,
                 "bytes");
  report_->Layer("io.reopen_ms", traced.reopen_ms.Median(), "ms");
  if (timed.cycle_ms.Median() > 0) {
    report_->Ref("trace_overhead.ingest_cycle_p50",
                 traced.cycle_ms.Median() / timed.cycle_ms.Median() - 1.0,
                 "ratio");
  }
  PublishTrace(tracer_, args_, report_);
  return 0;
}

}  // namespace

int RunIngest(const Args& args, Mode mode, Report* report) {
  IngestRun run(args, mode, report);
  const int rc = run.Run();
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir + "/ingest", ec);
  return rc;
}

}  // namespace perfbench
