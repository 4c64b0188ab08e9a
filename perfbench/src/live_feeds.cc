// live_feeds: standing SVAQ/SVAQD statements over live feeds, served by an
// in-process StreamDispatcher (no wire, no router, no storage). Every feed
// is bound to a raw movie and carries several statements that share
// labels; clips are pushed in fixed batches, feeds interleaved, and every
// closed feed is reopened until the run ends. Each subscription's events
// over a whole pass are compared with the batch ExecuteOnlineOn of the
// same statement on a separate engine.

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "catalog.h"
#include "checks.h"
#include "common.h"
#include "svq/core/engine.h"
#include "svq/models/synthetic_models.h"
#include "svq/query/binder.h"
#include "svq/query/executor.h"
#include "svq/stream/dispatcher.h"
#include "svq/video/video_stream.h"

namespace perfbench {
namespace {

// Inputs (README.md, "Inputs").
constexpr double kMovieScale = 1.0;
constexpr int kBatchClips = 16;
constexpr size_t kQueueCapacity = 4096;
constexpr int kWarmupPasses = 3;

struct Standing {
  std::string text;
  svq::core::OnlineEngine::Mode mode;
  std::vector<svq::video::Interval> oracle;
};

struct Feed {
  std::string name;
  const CatalogVideo* movie = nullptr;
  std::vector<Standing> statements;
};

std::string StreamingStatement(const std::string& video,
                               const std::string& where) {
  return "SELECT MERGE(clipID) FROM (PROCESS " + video +
         " PRODUCE clipID, obj USING ObjectDetector, act USING "
         "ActionRecognizer) WHERE " +
         where;
}

/// Five statements per feed sharing the movie's labels: the scenario query
/// under SVAQD and SVAQ, an extra action (the next movie's), a
/// disjunction, and a relationship.
std::vector<Standing> FeedStatements(const CatalogVideo& movie,
                                     const std::string& extra_action) {
  const auto& q = movie.query;
  const std::string& video = movie.video->name();
  const std::string act = "act='" + q.action + "'";
  const std::string o1 = q.objects.at(0);
  const std::string o2 = q.objects.size() > 1 ? q.objects[1] : q.objects[0];
  using Mode = svq::core::OnlineEngine::Mode;
  const std::string base =
      StreamingStatement(video, act + " AND obj.include(" +
                                    QuotedList(q.objects) + ")");
  return {
      {base, Mode::kSvaqd, {}},
      {base, Mode::kSvaq, {}},
      {StreamingStatement(video, act + " AND act='" + extra_action +
                                     "' AND obj.include('" + o1 + "')"),
       Mode::kSvaqd, {}},
      {StreamingStatement(video, act + " AND obj.include_any('" + o1 +
                                     "','" + o2 + "')"),
       Mode::kSvaqd, {}},
      {StreamingStatement(video, act + " AND obj.include('" + o1 +
                                     "') AND rel.left_of('" + o1 + "','" +
                                     o2 + "')"),
       Mode::kSvaqd, {}},
  };
}

class LiveRun {
 public:
  LiveRun(const Args& args, Mode mode, Report* report)
      : args_(args), mode_(mode), report_(report) {}

  int Run();

 private:
  struct PassTiming {
    Samples batch_ms, open_ms, poll_us;
    /// Clips per second of FeedClips time, one sample per pass.
    Samples pass_rate;
    double feed_ms = 0.0;
    int64_t clips = 0;
  };
  void Setup();
  /// One pass: open every feed, feed all of them to closure in
  /// round-robin batches, check every subscription.
  void Pass(int64_t request, PassTiming* timing);
  void Replay();

  const Args& args_;
  const Mode mode_;
  Report* report_;
  Tracer tracer_;

  std::vector<CatalogVideo> movies_;
  std::vector<Feed> feeds_;
  std::unique_ptr<svq::core::VideoQueryEngine> engine_;
  std::unique_ptr<svq::stream::StreamDispatcher> dispatcher_;
  double oracle_ms_ = 0.0;
  Samples online_clip_us_, infer_us_;
};

void LiveRun::Setup() {
  movies_ = MakeCatalog(args_.seed, kMovieScale, 0.0);
  for (size_t i = 0; i < movies_.size(); ++i) {
    const CatalogVideo& next = movies_[(i + 1) % movies_.size()];
    feeds_.push_back({"feed_" + std::to_string(i), &movies_[i],
                      FeedStatements(movies_[i], next.query.action)});
  }
  // Served like svqd: the cache is on, so feeds on one snapshot share a
  // k_crit table.
  engine_ = std::make_unique<svq::core::VideoQueryEngine>(
      svq::models::ModelSuite(), svq::core::OnlineConfig(),
      svq::core::IngestOptions(), svq::cache::CacheOptions::Enabled());
  for (const auto& m : movies_) {
    CheckOk(engine_->AddVideo(m.video).status(), "AddVideo");
  }
  svq::stream::StreamOptions options;
  options.event_queue_capacity = kQueueCapacity;
  dispatcher_ = std::make_unique<svq::stream::StreamDispatcher>(engine_.get(),
                                                                options);

  // Oracle: batch execution of every statement on a separate engine.
  const Clock::time_point oracle_begin = Clock::now();
  {
    svq::core::VideoQueryEngine oracle;
    for (const auto& m : movies_) {
      CheckOk(oracle.AddVideo(m.video).status(), "oracle AddVideo");
    }
    const svq::core::SnapshotPtr snapshot = oracle.Pin();
    for (Feed& feed : feeds_) {
      for (Standing& s : feed.statements) {
        const auto bound =
            ValueOrDie(svq::query::ParseAndBind(s.text), "ParseAndBind");
        const svq::models::ModelSuite suite =
            svq::query::ResolveSuiteFor(snapshot->suite, bound);
        const auto result = ValueOrDie(
            svq::core::ExecuteOnlineOn(snapshot, bound.query, bound.video,
                                       s.mode, {}, &suite),
            "oracle ExecuteOnlineOn");
        s.oracle = result.sequences.intervals();
      }
    }
  }
  oracle_ms_ = MsSince(oracle_begin);

  // Warm-up passes are checked like every other pass but not counted.
  const int64_t attempted = report_->attempted;
  const int64_t failed = report_->failed;
  PassTiming warmup;
  for (int i = 0; i < kWarmupPasses; ++i) {
    Pass(-1, &warmup);
  }
  report_->attempted = attempted;
  report_->failed = failed;
}

void LiveRun::Pass(int64_t request, PassTiming* timing) {
  ScopedSpan root(&tracer_, "pass", Tracer::kNoParent, request);
  const double feed_ms = timing->feed_ms;
  const int64_t clips = timing->clips;
  const svq::stream::DispatcherStats before = dispatcher_->Stats();
  std::vector<std::vector<svq::stream::SubscriptionPtr>> subs(feeds_.size());
  std::vector<std::vector<std::vector<svq::stream::StreamEvent>>> events(
      feeds_.size());
  for (size_t f = 0; f < feeds_.size(); ++f) {
    ScopedSpan span(&tracer_, "stream.subscribe", root.id(), request);
    const Clock::time_point begin = Clock::now();
    for (const Standing& s : feeds_[f].statements) {
      svq::stream::SubscribeOptions options;
      options.mode = s.mode;
      auto sub = dispatcher_->Subscribe(feeds_[f].name, s.text, options);
      ++report_->attempted;
      if (!sub.ok()) {
        ++report_->failed;
        report_->Fail("Subscribe: " + sub.status().ToString());
        continue;
      }
      subs[f].push_back(*sub);
    }
    timing->open_ms.Add(MsSince(begin));
    events[f].resize(subs[f].size());
  }
  int64_t delivered = 0;
  auto poll = [&](size_t f) {
    for (size_t j = 0; j < subs[f].size(); ++j) {
      ScopedSpan span(&tracer_, "stream.poll", root.id(), request);
      const Clock::time_point begin = Clock::now();
      std::deque<svq::stream::StreamEvent> got = subs[f][j]->Poll();
      timing->poll_us.Add(UsSince(begin));
      delivered += static_cast<int64_t>(got.size());
      for (auto& e : got) events[f][j].push_back(std::move(e));
    }
  };
  std::vector<bool> open(feeds_.size(), true);
  size_t open_count = feeds_.size();
  while (open_count > 0) {
    for (size_t f = 0; f < feeds_.size(); ++f) {
      if (!open[f]) continue;
      svq::Result<svq::stream::FeedProgress> progress =
          svq::Status::Internal("unset");
      {
        ScopedSpan span(&tracer_, "stream.feed_clips", root.id(), request);
        const Clock::time_point begin = Clock::now();
        progress = dispatcher_->FeedClips(feeds_[f].name, kBatchClips);
        const double ms = MsSince(begin);
        timing->batch_ms.Add(ms);
        timing->feed_ms += ms;
      }
      ++report_->attempted;
      if (!progress.ok()) {
        ++report_->failed;
        report_->Fail("FeedClips: " + progress.status().ToString());
        open[f] = false;
        --open_count;
        continue;
      }
      timing->clips += progress->clips_dispatched;
      poll(f);
      if (progress->closed) {
        open[f] = false;
        --open_count;
      }
    }
  }
  if (timing->feed_ms > feed_ms) {
    timing->pass_rate.Add(1000.0 * (timing->clips - clips) /
                          (timing->feed_ms - feed_ms));
  }
  const svq::stream::DispatcherStats after = dispatcher_->Stats();
  report_->SampleHeap();  // every feed drained, every subscription open
  for (size_t f = 0; f < feeds_.size(); ++f) {
    for (size_t j = 0; j < subs[f].size(); ++j) {
      const std::string error =
          CheckStream(events[f][j], feeds_[f].statements[j].oracle,
                      subs[f][j]->dropped_total());
      if (!error.empty()) {
        report_->Fail(feeds_[f].name + " statement " + std::to_string(j) +
                      ": " + error);
      }
      CheckOk(dispatcher_->Unsubscribe(subs[f][j]->id()), "Unsubscribe");
    }
  }
  const std::string accounting = CheckEventAccounting(
      delivered, after.events_dropped - before.events_dropped,
      after.events_pushed - before.events_pushed);
  if (!accounting.empty()) report_->Fail("event accounting: " + accounting);
}

/// One subscription replayed outside the dispatcher: its own models and
/// OnlineEngine over the raw clips, plus the models' inference per clip.
void LiveRun::Replay() {
  const Feed& feed = feeds_.front();
  const Standing& standing = feed.statements.front();
  const svq::core::SnapshotPtr snapshot = engine_->Pin();
  const auto bound =
      ValueOrDie(svq::query::ParseAndBind(standing.text), "ParseAndBind");
  const svq::models::ModelSuite suite =
      svq::query::ResolveSuiteFor(snapshot->suite, bound);
  const auto& video = feed.movie->video;
  const auto* entry = snapshot->Find(video->name());
  const std::vector<std::string> objects = bound.query.AllObjectLabels();
  const std::vector<std::string> actions = bound.query.AllActions();

  svq::models::ModelSet models =
      svq::models::MakeModelSet(video, suite, objects, actions);
  auto engine = ValueOrDie(
      svq::core::OnlineEngine::Create(standing.mode, bound.query,
                                      snapshot->online_config,
                                      video->layout(), models.detector.get(),
                                      models.recognizer.get()),
      "OnlineEngine::Create");
  svq::video::SyntheticVideoStream stream(video, entry->id);
  ScopedSpan root(&tracer_, "replay", Tracer::kNoParent, -1);
  int64_t clip_index = 0;
  while (auto clip = stream.NextClip()) {
    ScopedSpan span(&tracer_, "core.online_clip", root.id(), clip_index++);
    const svq::Status status = engine->ProcessClip(*clip);
    online_clip_us_.Add(span.End());
    if (!status.ok()) {
      report_->Fail("ProcessClip: " + status.ToString());
      return;
    }
  }
  engine->Finish();
  if (engine->sequences().intervals() != standing.oracle) {
    report_->Fail("replayed subscription differs from the batch run");
  }

  // Raw model inference per clip on fresh models.
  svq::models::ModelSet fresh =
      svq::models::MakeModelSet(video, suite, objects, actions);
  stream.Reset();
  clip_index = 0;
  while (auto clip = stream.NextClip()) {
    ScopedSpan span(&tracer_, "models.infer", root.id(), clip_index++);
    for (int64_t frame = clip->frames.begin; frame < clip->frames.end;
         ++frame) {
      if (!fresh.detector->Detect(frame).ok()) report_->Fail("Detect");
    }
    for (const auto& shot : clip->shots) {
      if (!fresh.recognizer->Recognize(shot).ok()) report_->Fail("Recognize");
    }
    infer_us_.Add(span.End());
  }
}

int LiveRun::Run() {
  Setup();
  const double setup_s =
      MsSince(ProcessStart()) / 1000.0 - oracle_ms_ / 1000.0;
  report_->Ref("oracle_s", oracle_ms_ / 1000.0, "s");

  auto emit = [this](const PassTiming& t, const std::string& prefix) {
    report_->Ref(prefix + "clips_per_s", t.pass_rate.Median(), "1/s");
    report_->Ref(prefix + "feed_batch_p50_ms", t.batch_ms.Median(), "ms");
    report_->Ref(prefix + "feed_batch_p99_ms", t.batch_ms.Percentile(0.99),
                 "ms");
    report_->Ref(prefix + "feed_open_p50_ms", t.open_ms.Median(), "ms");
    report_->Ref(prefix + "batches", static_cast<double>(t.batch_ms.size()),
                 "count");
  };

  PassTiming timed;
  report_->peak_heap_mb = 0.0;  // the peak of the timed passes only
  {
    Budget budget{mode_ == Mode::kTraced ? args_.seconds / 2 : args_.seconds};
    const Clock::time_point began = Clock::now();
    for (int passes = 0; budget.Continue(passes, began); ++passes) {
      Pass(-1, &timed);
    }
    emit(timed, "");
  }
  if (mode_ == Mode::kTimed) {
    report_->end_to_end["rate_per_s"] = {timed.pass_rate.Median(), "1/s"};
    report_->end_to_end["main_p50_ms"] = {timed.batch_ms.Median(), "ms"};
    report_->end_to_end["side_p50_ms"] = {timed.open_ms.Median(), "ms"};
    report_->end_to_end["setup_s"] = {setup_s, "s"};
    return 0;
  }

  PassTiming traced;
  const auto kcrit_before = engine_->cache_stats()->Read();
  const svq::stream::DispatcherStats before = dispatcher_->Stats();
  Budget budget{args_.seconds / 2};
  const Clock::time_point began = Clock::now();
  int passes = 0;
  tracer_.Enable();
  for (; budget.Continue(passes, began); ++passes) Pass(passes, &traced);
  const svq::stream::DispatcherStats after = dispatcher_->Stats();
  const auto kcrit_after = engine_->cache_stats()->Read();
  emit(traced, "traced.");
  Replay();

  const double n = static_cast<double>(passes);
  report_->Layer("core.online_clip_us", online_clip_us_.Median(), "us");
  report_->Layer("models.infer_us", infer_us_.Median(), "us");
  report_->Layer("models.units_run",
                 (after.model_units_run - before.model_units_run) / n,
                 "count");
  report_->Layer("models.units_charged",
                 (after.model_units_charged - before.model_units_charged) / n,
                 "count");
  report_->Layer("models.simulated_model_ms",
                 (after.model_ms_run - before.model_ms_run) / n, "ms");
  report_->Layer("stats.kcrit_computes",
                 (kcrit_after.kcrit_computes - kcrit_before.kcrit_computes) /
                     n,
                 "count");
  report_->Layer("stats.kcrit_hits",
                 (kcrit_after.kcrit_hits - kcrit_before.kcrit_hits) / n,
                 "count");
  report_->Layer("stream.poll_us", traced.poll_us.Median(), "us");
  report_->Layer("stream.events_pushed",
                 (after.events_pushed - before.events_pushed) / n, "count");
  if (timed.batch_ms.Median() > 0) {
    report_->Ref("trace_overhead.feed_batch_p50",
                 traced.batch_ms.Median() / timed.batch_ms.Median() - 1.0,
                 "ratio");
  }
  PublishTrace(tracer_, args_, report_);
  return 0;
}

}  // namespace

int RunLiveFeeds(const Args& args, Mode mode, Report* report) {
  LiveRun run(args, mode, report);
  return run.Run();
}

}  // namespace perfbench
