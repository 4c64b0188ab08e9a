// ranked_cold / ranked_hot: ranked top-K statements through an in-process
// svq_router in front of two svqd servers, each serving a contiguous
// slice of a catalog that was ingested to disk artifacts and reopened.
//
// ranked_cold runs with the query cache off, so every statement executes
// (plan, RVAQ/TBClip or Pq-Traverse, score-table reads, repository
// fan-out). ranked_hot enables svqd's default cache on both backends and
// draws Zipf-style from a few dozen statements that were all served once
// before timing, so nearly every answer is a result-tier hit and the time
// is wire, routing, admission, parse and encode.
//
// Every answer is compared with the benchmark's own merge of per-video
// Pq-Traverse answers over in-memory tables ingested from the same videos.

#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog.h"
#include "checks.h"
#include "common.h"
#include "svq/cluster/router.h"
#include "svq/cluster/shard_map.h"
#include "svq/common/rng.h"
#include "svq/core/engine.h"
#include "svq/core/topk_merge.h"
#include "svq/plan/planner.h"
#include "svq/query/binder.h"
#include "svq/query/parser.h"
#include "svq/server/client.h"
#include "svq/server/server.h"

namespace perfbench {
namespace {

using svq::core::OfflineAlgorithm;

// Inputs (README.md, "Inputs").
constexpr double kMovieScale = 1.0;
constexpr double kYouTubeScale = 1.0;
constexpr int kShards = 2;
constexpr int kLimits[] = {1, 10, 50};
constexpr int kIngestParallelism = 4;
/// ranked_cold rounds run every movie and every kYouTubeStride-th YouTube
/// video at each K, and every broadcast (scenario query x K).
constexpr size_t kYouTubeStride = 5;
/// ranked_hot: the pool of statements drawn from, the ranks the
/// broadcasts take in it (low: a broadcast is never a result-tier hit,
/// because whole-repository answers are not memoized), the Zipf exponent
/// and draws per round.
constexpr int kHotPoolSingles = 33;
constexpr int kHotBroadcastRanks[] = {11, 23, 35};
/// The scenario queries (in name order) the pool's broadcasts run, so the
/// pool's broadcasts are the same statements for every seed.
constexpr size_t kHotBroadcastQueries[] = {0, 5, 10};
constexpr double kZipfExponent = 1.1;
constexpr int kHotDrawsPerRound = 256;
constexpr int kCacheMb = 64;  // svqd's --cache-mb default

struct Statement {
  std::string text;
  svq::core::Query query;
  int video = -1;  // catalog index; -1 for a PROCESS * broadcast
  std::string video_name;  // empty for a broadcast
  int shard = -1;  // owning shard of a single-video statement
  int k = 0;
  std::vector<OracleRow> oracle;
  std::map<size_t, svq::video::IntervalSet> candidate_sets;
  std::vector<const svq::video::IntervalSet*> candidates;
};

svq::core::OfflineOptions CacheOff() {
  svq::core::OfflineOptions options;
  options.cache.use_candidate_cache = false;
  options.cache.use_result_cache = false;
  options.cache.use_plan_cache = false;
  return options;
}

const char* AlgorithmName(OfflineAlgorithm a) {
  switch (a) {
    case OfflineAlgorithm::kRvaq: return "rvaq";
    case OfflineAlgorithm::kRvaqNoSkip: return "rvaq_noskip";
    case OfflineAlgorithm::kFagin: return "fagin";
    case OfflineAlgorithm::kPqTraverse: return "pq_traverse";
  }
  return "?";
}

std::vector<svq::server::WireSequence> ToWire(
    const std::vector<svq::core::RankedSequence>& sequences) {
  std::vector<svq::server::WireSequence> out;
  for (const auto& s : sequences) {
    out.push_back({s.clips.begin, s.clips.end, s.lower_bound, s.upper_bound});
  }
  return out;
}

/// The oracle: per-video Pq-Traverse answers over in-memory tables,
/// merged by score with ties broken by catalog order then clip begin (the
/// order the contiguous shard map and the repository merge preserve). Only
/// the P_q of videos that contribute a row is kept.
void ComputeOracle(const svq::core::SnapshotPtr& snapshot,
                   const std::vector<CatalogVideo>& catalog,
                   Statement* stmt) {
  std::vector<OracleRow> rows;
  const svq::core::OfflineOptions options = CacheOff();
  auto add_video = [&](size_t v) {
    const std::string& name = catalog[v].video->name();
    auto answer = ValueOrDie(
        svq::core::ExecuteTopKOn(snapshot, stmt->query, name, stmt->k,
                                 OfflineAlgorithm::kPqTraverse, options),
        "oracle ExecuteTopKOn " + name);
    if (answer.sequences.empty()) return;
    for (const auto& s : answer.sequences) {
      rows.push_back(
          {s.clips.begin, s.clips.end, s.lower_bound, s.upper_bound, v});
    }
    const auto* ingested = snapshot->Find(name)->ingested.get();
    stmt->candidate_sets[v] = ValueOrDie(
        svq::core::CandidateSequences(*ingested, stmt->query), "P_q " + name);
  };
  if (stmt->video >= 0) {
    add_video(static_cast<size_t>(stmt->video));
  } else {
    for (size_t v = 0; v < catalog.size(); ++v) add_video(v);
  }
  svq::core::SortedTopKMerge(
      &rows, stmt->k, [](const OracleRow& r) { return r.lower; },
      [](const OracleRow& a, const OracleRow& b) {
        if (a.video != b.video) return a.video < b.video;
        return a.begin < b.begin;
      });
  stmt->oracle = std::move(rows);
  std::erase_if(stmt->candidate_sets, [stmt](const auto& entry) {
    return std::none_of(
        stmt->oracle.begin(), stmt->oracle.end(),
        [&entry](const OracleRow& r) { return r.video == entry.first; });
  });
  stmt->candidates.assign(catalog.size(), nullptr);
  for (const auto& [v, set] : stmt->candidate_sets) {
    stmt->candidates[v] = &set;
  }
  const std::string error =
      CheckInsideCandidates(stmt->oracle, stmt->candidates);
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: oracle outside P_q: %s\n",
                 error.c_str());
    std::exit(2);
  }
}

Statement MakeStatement(const std::vector<CatalogVideo>& catalog,
                        const svq::cluster::ShardMap& map, int video,
                        const svq::core::Query& query, int k) {
  Statement stmt;
  stmt.video = video;
  stmt.k = k;
  const std::string target =
      video < 0 ? "*" : catalog[static_cast<size_t>(video)].video->name();
  stmt.text = RankedStatement(query, target, k);
  if (video >= 0) stmt.video_name = target;
  stmt.query = ValueOrDie(svq::query::ParseAndBind(stmt.text), "bind").query;
  if (video >= 0) stmt.shard = map.ShardOf(target);
  return stmt;
}

struct Stack {
  std::vector<std::unique_ptr<svq::core::VideoQueryEngine>> engines;
  std::vector<std::unique_ptr<svq::server::Server>> servers;
  std::unique_ptr<svq::cluster::Router> router;
  svq::server::Client client;
  std::vector<svq::server::Client> direct;

  ~Stack() {
    client.Close();
    for (auto& c : direct) c.Close();
    if (router) router->Shutdown();
    for (auto& s : servers) s->Shutdown();
  }
  svq::cache::CacheStats::Snapshot CacheTotals() const {
    svq::cache::CacheStats::Snapshot total;
    for (const auto& e : engines) {
      const auto s = e->cache_stats()->Read();
      total.candidate_hits += s.candidate_hits;
      total.candidate_misses += s.candidate_misses;
      total.result_hits += s.result_hits;
      total.result_misses += s.result_misses;
      total.kcrit_hits += s.kcrit_hits;
      total.kcrit_computes += s.kcrit_computes;
      total.bytes += s.bytes;
    }
    return total;
  }
};

struct Timing {
  Samples single_ms, broadcast_ms;
  /// Statements per second of client time, one sample per round.
  Samples round_rate;
  double exec_ms = 0.0;
  double total_ms = 0.0;
  int64_t count = 0;
};

/// Closes a round that began at `count` statements and `total_ms`.
void EndRound(int64_t count, double total_ms, Timing* timing) {
  if (timing->total_ms > total_ms) {
    timing->round_rate.Add(1000.0 * (timing->count - count) /
                           (timing->total_ms - total_ms));
  }
}

double Ratio(int64_t hits, int64_t misses) {
  const int64_t total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

/// Per-layer samples of a traced loop.
struct LayerSamples {
  Samples encode_us, decode_us, response_bytes, direct_us, route_us,
      scatter_us, merge_us, queue_ms, exec_ms, server_overhead_us, parse_us,
      bind_us, plan_cold_us, plan_cached_us, clip_error_pct, chosen_ratio,
      cache_hit_us, topk_us, repository_us, algorithm_ms, candidate_clips,
      iterator_calls, sorted, random, sequential, virtual_ms, row_read_us;
};

class RankedRun {
 public:
  RankedRun(const Args& args, bool hot, Mode mode, Report* report)
      : args_(args), hot_(hot), mode_(mode), report_(report) {}

  int Run();

 private:
  void Setup();
  void CheckAnswer(const Statement& stmt,
                   const std::vector<svq::server::WireSequence>& got,
                   const char* path);
  /// One client round trip; false when the transport or query failed.
  bool Execute(svq::server::Client& client, const Statement& stmt,
               svq::server::QueryResponse* response);
  void TimedRound(const std::vector<int>& order, Timing* timing);
  void TracedStatement(const Statement& stmt, int64_t request,
                       Timing* timing);
  void Emit(const Timing& timing, const std::string& prefix);

  const Args& args_;
  const bool hot_;
  const Mode mode_;
  Report* report_;
  Tracer tracer_;
  LayerSamples layers_;

  /// The raw videos; released once set-up has ingested them and computed
  /// the oracle, since the servers only hold the reopened artifacts.
  std::vector<CatalogVideo> catalog_;
  size_t videos_ = 0;
  std::vector<Statement> statements_;
  std::vector<int> round_;  // indices into statements_, in issue order
  Stack stack_;
  double oracle_ms_ = 0.0;
};

void RankedRun::Setup() {
  catalog_ = MakeCatalog(args_.seed, kMovieScale, kYouTubeScale);
  videos_ = catalog_.size();
  std::vector<std::string> names;
  for (const auto& c : catalog_) names.push_back(c.video->name());

  // Ingest to disk artifacts, then reopen them into the shard engines.
  const std::string dir = args_.work_dir + "/catalog";
  {
    svq::core::IngestOptions ingest;
    ingest.backend = svq::core::IngestOptions::TableBackend::kDisk;
    ingest.directory = dir;
    BenchEnv env(/*durable=*/false);
    ingest.env = &env;
    svq::core::VideoQueryEngine writer(svq::models::ModelSuite(),
                                       svq::core::OnlineConfig(), ingest);
    for (const auto& c : catalog_) {
      CheckOk(writer.AddVideo(c.video).status(), "AddVideo");
    }
    CheckOk(writer.IngestAll(kIngestParallelism), "disk IngestAll");
  }
  std::vector<svq::cluster::ShardEndpoint> endpoints(kShards,
                                                     {"127.0.0.1", 1});
  auto map = ValueOrDie(svq::cluster::AssignContiguous(names, endpoints),
                        "AssignContiguous");
  const svq::cache::CacheOptions cache =
      hot_ ? svq::cache::CacheOptions::Enabled(kCacheMb)
           : svq::cache::CacheOptions();
  for (int s = 0; s < kShards; ++s) {
    stack_.engines.push_back(std::make_unique<svq::core::VideoQueryEngine>(
        svq::models::ModelSuite(), svq::core::OnlineConfig(),
        svq::core::IngestOptions(), cache));
  }
  for (const std::string& name : names) {
    auto reopened = ValueOrDie(svq::core::OpenIngestedVideo(dir + "/" + name),
                               "OpenIngestedVideo " + name);
    CheckOk(stack_.engines[static_cast<size_t>(map.ShardOf(name))]
                ->AddIngested(std::make_shared<svq::core::IngestedVideo>(
                    std::move(reopened)))
                .status(),
            "AddIngested");
  }
  svq::server::ServerOptions server_options;
  server_options.max_in_flight = 1;
  for (int s = 0; s < kShards; ++s) {
    stack_.servers.push_back(std::make_unique<svq::server::Server>(
        stack_.engines[static_cast<size_t>(s)].get(), server_options));
    CheckOk(stack_.servers.back()->Start(), "svqd Start");
    map.shards[static_cast<size_t>(s)].port = stack_.servers.back()->port();
  }
  svq::cluster::RouterOptions router_options;
  router_options.hedge_after = std::chrono::milliseconds(0);
  router_options.health_interval = std::chrono::milliseconds(0);
  stack_.router =
      std::make_unique<svq::cluster::Router>(map, router_options);
  CheckOk(stack_.router->Start(), "router Start");
  CheckOk(stack_.client.Connect("127.0.0.1", stack_.router->port()),
          "router Connect");
  if (mode_ != Mode::kTimed) {
    for (int s = 0; s < kShards; ++s) {
      stack_.direct.emplace_back();
      CheckOk(stack_.direct.back().Connect(
                  "127.0.0.1", stack_.servers[static_cast<size_t>(s)]->port()),
              "direct Connect");
    }
  }

  // Statements: singles are video x K, broadcasts scenario query x K.
  // Every movie and every kYouTubeStride-th YouTube video (from a seeded
  // offset) are kept, so the make-up of a round is the same for every seed.
  svq::Rng rng(args_.seed * 0x9e3779b97f4a7c15ULL + 17);
  auto shuffle = [&rng](auto* v) {
    for (size_t i = v->size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(rng.NextDouble() * i) % i;
      std::swap((*v)[i - 1], (*v)[j]);
    }
  };
  const size_t stride = kYouTubeStride;
  const size_t offset = static_cast<size_t>(rng.NextDouble() * stride);
  std::vector<Statement> singles;
  std::vector<Statement> broadcasts;
  std::map<std::string, svq::core::Query> scenario_queries;
  size_t youtube = 0;
  for (size_t v = 0; v < catalog_.size(); ++v) {
    scenario_queries[catalog_[v].query.ToString()] = catalog_[v].query;
    if (!catalog_[v].movie && youtube++ % stride != offset % stride) continue;
    for (int k : kLimits) {
      singles.push_back(MakeStatement(catalog_, map, static_cast<int>(v),
                                      catalog_[v].query, k));
    }
  }
  for (const auto& [key, query] : scenario_queries) {
    for (int k : kLimits) {
      broadcasts.push_back(MakeStatement(catalog_, map, -1, query, k));
    }
  }
  shuffle(&singles);
  if (!hot_) {
    shuffle(&broadcasts);
    for (auto& s : singles) statements_.push_back(std::move(s));
    for (auto& b : broadcasts) statements_.push_back(std::move(b));
    for (size_t i = 0; i < statements_.size(); ++i) {
      round_.push_back(static_cast<int>(i));
    }
    shuffle(&round_);
  } else {
    // The pool: broadcasts at fixed ranks, singles at the others, K
    // cycling through kLimits in both; then each rank r is drawn
    // round(draws * w_r / sum w) times per round, w_r = 1/(r+1)^s, in a
    // seeded order.
    auto take = [](std::vector<Statement>* from, int k) {
      auto it = std::find_if(from->begin(), from->end(),
                             [k](const Statement& s) { return s.k == k; });
      if (it == from->end()) {
        Die("hot pool", svq::Status::InvalidArgument("too few statements"));
      }
      Statement out = std::move(*it);
      from->erase(it);
      return out;
    };
    const size_t pool_size =
        kHotPoolSingles + std::size(kHotBroadcastRanks);
    size_t singles_taken = 0, broadcasts_taken = 0;
    for (size_t rank = 0; rank < pool_size; ++rank) {
      const bool is_broadcast =
          std::find(std::begin(kHotBroadcastRanks),
                    std::end(kHotBroadcastRanks),
                    static_cast<int>(rank)) != std::end(kHotBroadcastRanks);
      if (is_broadcast) {
        // `broadcasts` is in (query, K) order here.
        const size_t b = broadcasts_taken++;
        statements_.push_back(std::move(
            broadcasts[kHotBroadcastQueries[b] * std::size(kLimits) +
                       b % std::size(kLimits)]));
      } else {
        statements_.push_back(
            take(&singles, kLimits[singles_taken++ % std::size(kLimits)]));
      }
    }
    double total = 0.0;
    for (size_t r = 0; r < pool_size; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    }
    for (size_t r = 0; r < pool_size; ++r) {
      const double share =
          1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent) / total;
      const int draws = std::max(
          1, static_cast<int>(std::lround(kHotDrawsPerRound * share)));
      for (int d = 0; d < draws; ++d) round_.push_back(static_cast<int>(r));
    }
    shuffle(&round_);
  }

  // The oracle: an in-memory ingest of the same videos, apart from the
  // measured stack. Its time is not set-up time.
  const Clock::time_point oracle_begin = Clock::now();
  {
    svq::core::VideoQueryEngine oracle;
    for (const auto& c : catalog_) {
      CheckOk(oracle.AddVideo(c.video).status(), "oracle AddVideo");
    }
    CheckOk(oracle.IngestAll(kIngestParallelism), "oracle IngestAll");
    const svq::core::SnapshotPtr snapshot = oracle.Pin();
    for (auto& stmt : statements_) ComputeOracle(snapshot, catalog_, &stmt);
  }
  catalog_.clear();
  oracle_ms_ = MsSince(oracle_begin);

  // Warm-up: every statement served (and checked) once, which also fills
  // the result tier of ranked_hot.
  for (const Statement& stmt : statements_) {
    svq::server::QueryResponse response;
    if (Execute(stack_.client, stmt, &response)) {
      CheckAnswer(stmt, response.sequences, "warm-up");
    }
  }
}

bool RankedRun::Execute(svq::server::Client& client, const Statement& stmt,
                        svq::server::QueryResponse* response) {
  auto result = client.Execute(stmt.text);
  if (!result.ok()) {
    report_->Fail("transport: " + result.status().ToString());
    return false;
  }
  if (!result->status.ok()) {
    report_->Fail("query: " + result->status.ToString() + " for " +
                  stmt.text);
    return false;
  }
  *response = std::move(result).value();
  return true;
}

void RankedRun::CheckAnswer(
    const Statement& stmt,
    const std::vector<svq::server::WireSequence>& got, const char* path) {
  const std::string error =
      CheckRanked(got, stmt.oracle, stmt.k, stmt.candidates);
  if (!error.empty()) {
    report_->Fail(std::string(path) + ": " + error + " for " + stmt.text);
  }
}

void RankedRun::TimedRound(const std::vector<int>& order, Timing* timing) {
  const int64_t count = timing->count;
  const double total_ms = timing->total_ms;
  for (int index : order) {
    const Statement& stmt = statements_[static_cast<size_t>(index)];
    svq::server::QueryResponse response;
    const Clock::time_point begin = Clock::now();
    const bool ok = Execute(stack_.client, stmt, &response);
    const double ms = MsSince(begin);
    ++report_->attempted;
    if (!ok) {
      ++report_->failed;
      continue;
    }
    CheckAnswer(stmt, response.sequences, "routed");
    (stmt.video >= 0 ? timing->single_ms : timing->broadcast_ms).Add(ms);
    timing->exec_ms += response.metrics.server_exec_ms;
    timing->total_ms += ms;
    ++timing->count;
  }
  EndRound(count, total_ms, timing);
  report_->SampleHeap();
}

void RankedRun::TracedStatement(const Statement& stmt, int64_t request,
                                Timing* timing) {
  ScopedSpan root(&tracer_, "statement", Tracer::kNoParent, request);
  {
    ScopedSpan span(&tracer_, "wire.request_encode", root.id(), request);
    svq::server::QueryRequest wire_request;
    wire_request.request_id = static_cast<uint64_t>(request);
    wire_request.statement = stmt.text;
    const std::string frame = svq::server::EncodeQueryRequest(wire_request);
    layers_.encode_us.Add(span.End());
    if (frame.empty()) report_->Fail("empty request frame");
  }
  svq::server::QueryResponse routed;
  double routed_us = 0.0;
  {
    ScopedSpan span(&tracer_, "client.routed", root.id(), request);
    const bool ok = Execute(stack_.client, stmt, &routed);
    routed_us = span.End();
    ++report_->attempted;
    if (!ok) {
      ++report_->failed;
      return;
    }
  }
  CheckAnswer(stmt, routed.sequences, "routed");
  (stmt.video >= 0 ? timing->single_ms : timing->broadcast_ms)
      .Add(routed_us / 1000.0);
  timing->exec_ms += routed.metrics.server_exec_ms;
  timing->total_ms += routed_us / 1000.0;
  ++timing->count;
  layers_.queue_ms.Add(routed.metrics.server_queue_ms);
  layers_.exec_ms.Add(routed.metrics.server_exec_ms);
  {
    const std::string frame = svq::server::EncodeQueryResponse(routed);
    layers_.response_bytes.Add(static_cast<double>(frame.size()));
    svq::server::FrameAssembler assembler;
    assembler.Feed(frame.data(), frame.size());
    std::string payload;
    bool has_frame = false;
    CheckOk(assembler.Next(&payload, &has_frame), "FrameAssembler");
    ScopedSpan span(&tracer_, "wire.response_decode", root.id(), request);
    svq::server::WireCursor cursor(payload);
    svq::server::MessageType type;
    svq::server::QueryResponse decoded;
    const svq::Status header = svq::server::DecodePayloadHeader(&cursor, &type);
    const svq::Status body =
        header.ok() ? svq::server::DecodeQueryResponse(&cursor, &decoded)
                    : header;
    layers_.decode_us.Add(span.End());
    if (!body.ok() || decoded.sequences != routed.sequences) {
      report_->Fail("response decode round trip differs");
    }
  }

  const auto snapshots = [this] {
    std::vector<svq::core::SnapshotPtr> out;
    for (const auto& e : stack_.engines) out.push_back(e->Pin());
    return out;
  }();
  const svq::core::OfflineOptions cache_off = CacheOff();
  auto fold_stats = [this](const svq::core::OfflineRunStats& stats) {
    layers_.algorithm_ms.Add(stats.algorithm_ms);
    layers_.candidate_clips.Add(static_cast<double>(stats.candidate_clips));
    layers_.iterator_calls.Add(static_cast<double>(stats.iterator_calls));
    layers_.sorted.Add(static_cast<double>(stats.storage.sorted_accesses));
    layers_.random.Add(static_cast<double>(stats.storage.random_accesses));
    layers_.sequential.Add(
        static_cast<double>(stats.storage.sequential_reads));
    layers_.virtual_ms.Add(stats.virtual_ms);
  };

  {
    ScopedSpan span(&tracer_, "query.parse", root.id(), request);
    auto parsed = svq::query::Parse(stmt.text);
    layers_.parse_us.Add(span.End());
    ScopedSpan bind_span(&tracer_, "query.bind", root.id(), request);
    auto bound = parsed.ok() ? svq::query::Bind(*parsed)
                             : svq::Result<svq::query::BoundQuery>(
                                   parsed.status());
    layers_.bind_us.Add(bind_span.End());
    if (!bound.ok()) report_->Fail("bind: " + bound.status().ToString());
  }

  if (stmt.video >= 0) {
    svq::server::QueryResponse direct;
    {
      ScopedSpan span(&tracer_, "client.direct", root.id(), request);
      const bool ok = Execute(stack_.direct[static_cast<size_t>(stmt.shard)],
                              stmt, &direct);
      const double direct_us = span.End();
      if (!ok) return;
      CheckAnswer(stmt, direct.sequences, "direct");
      layers_.direct_us.Add(direct_us);
      layers_.route_us.Add(routed_us - direct_us);
      layers_.server_overhead_us.Add(
          direct_us - 1000.0 * (direct.metrics.server_queue_ms +
                                direct.metrics.server_exec_ms));
    }
    const svq::core::SnapshotPtr& snapshot =
        snapshots[static_cast<size_t>(stmt.shard)];
    const std::string& video = stmt.video_name;
    std::shared_ptr<const svq::plan::PhysicalPlan> plan;
    {
      ScopedSpan span(&tracer_, "plan.plan_cold", root.id(), request);
      plan = ValueOrDie(svq::plan::PlanQuery(snapshot, stmt.query, video, true,
                                             stmt.k,
                                             svq::plan::AlgorithmChoice::kAuto,
                                             cache_off),
                        "PlanQuery");
      layers_.plan_cold_us.Add(span.End());
    }
    if (hot_) {
      const svq::core::OfflineOptions cached;
      CheckOk(svq::plan::PlanQuery(snapshot, stmt.query, video, true, stmt.k,
                                   svq::plan::AlgorithmChoice::kAuto, cached)
                  .status(),
              "PlanQuery");
      ScopedSpan span(&tracer_, "plan.plan_cached", root.id(), request);
      CheckOk(svq::plan::PlanQuery(snapshot, stmt.query, video, true, stmt.k,
                                   svq::plan::AlgorithmChoice::kAuto, cached)
                  .status(),
              "PlanQuery");
      layers_.plan_cached_us.Add(span.End());
    }
    // Every algorithm, cache off, on the backend's snapshot: the chosen
    // one against the fastest, and each answer against the oracle.
    double chosen_us = 0.0, best_us = 0.0;
    for (OfflineAlgorithm algorithm :
         {OfflineAlgorithm::kRvaq, OfflineAlgorithm::kRvaqNoSkip,
          OfflineAlgorithm::kFagin, OfflineAlgorithm::kPqTraverse}) {
      ScopedSpan span(&tracer_, "core.topk", root.id(), request);
      auto answer = svq::core::ExecuteTopKOn(snapshot, stmt.query, video,
                                             stmt.k, algorithm, cache_off);
      const double us = span.End();
      if (!answer.ok()) {
        report_->Fail(std::string(AlgorithmName(algorithm)) + ": " +
                      answer.status().ToString());
        continue;
      }
      const std::string error = CheckRanked(ToWire(answer->sequences),
                                            stmt.oracle, stmt.k,
                                            stmt.candidates);
      if (!error.empty()) {
        report_->Fail(std::string(AlgorithmName(algorithm)) + ": " + error +
                      " for " + stmt.text);
      }
      best_us = best_us == 0.0 ? us : std::min(best_us, us);
      if (algorithm == plan->algorithm) {
        chosen_us = us;
        layers_.topk_us.Add(us);
        fold_stats(answer->stats);
        const double actual =
            static_cast<double>(answer->stats.candidate_clips);
        if (plan->estimated_candidate_clips >= 0.0) {
          layers_.clip_error_pct.Add(
              100.0 * std::fabs(plan->estimated_candidate_clips - actual) /
              std::max(actual, 1.0));
        }
      }
    }
    if (best_us > 0.0) layers_.chosen_ratio.Add(chosen_us / best_us);
    if (hot_) {
      ScopedSpan span(&tracer_, "cache.hit", root.id(), request);
      auto answer = svq::core::ExecuteTopKOn(snapshot, stmt.query, video,
                                             stmt.k, plan->algorithm);
      layers_.cache_hit_us.Add(span.End());
      if (!answer.ok()) report_->Fail("cached: " + answer.status().ToString());
    }
    {
      // Raw score-table reads of the video's action table.
      const auto* ingested = snapshot->Find(video)->ingested.get();
      const svq::storage::ScoreTable* table =
          ingested->ActionTable(stmt.query.action);
      if (table != nullptr && table->NumRows() > 0) {
        const int64_t rows = std::min<int64_t>(table->NumRows(), 32);
        ScopedSpan span(&tracer_, "storage.row_read", root.id(), request);
        double checksum = 0.0;
        for (int64_t r = 0; r < rows; ++r) {
          auto row = table->RowAt(r);
          if (!row.ok()) {
            report_->Fail("RowAt: " + row.status().ToString());
            break;
          }
          auto score = table->ScoreOf(row->clip);
          checksum += score.ok() ? *score - row->score : 1.0;
        }
        layers_.row_read_us.Add(span.End() / static_cast<double>(2 * rows));
        if (checksum != 0.0) report_->Fail("RowAt/ScoreOf disagree");
      }
    }
  } else {
    // Broadcast: each shard directly, the benchmark's own merge of their
    // answers, and each backend's repository top-K in-process.
    struct Gathered {
      size_t shard;
      size_t rank;
      svq::server::WireSequence sequence;
    };
    std::vector<Gathered> gathered;
    double slowest_us = 0.0;
    for (size_t s = 0; s < stack_.direct.size(); ++s) {
      svq::server::QueryResponse direct;
      ScopedSpan span(&tracer_, "client.shard", root.id(), request);
      const bool ok = Execute(stack_.direct[s], stmt, &direct);
      slowest_us = std::max(slowest_us, span.End());
      if (!ok) return;
      for (size_t r = 0; r < direct.sequences.size(); ++r) {
        gathered.push_back({s, r, direct.sequences[r]});
      }
    }
    layers_.scatter_us.Add(routed_us - slowest_us);
    {
      ScopedSpan span(&tracer_, "cluster.merge", root.id(), request);
      svq::core::SortedTopKMerge(
          &gathered, stmt.k,
          [](const Gathered& g) { return g.sequence.lower_bound; },
          [](const Gathered& a, const Gathered& b) {
            if (a.shard != b.shard) return a.shard < b.shard;
            return a.rank < b.rank;
          });
      layers_.merge_us.Add(span.End());
    }
    std::vector<svq::server::WireSequence> merged;
    for (const Gathered& g : gathered) merged.push_back(g.sequence);
    CheckAnswer(stmt, merged, "merged shards");
    svq::core::OfflineRunStats stats;
    for (const auto& snapshot : snapshots) {
      ScopedSpan span(&tracer_, "core.repository_topk", root.id(), request);
      auto answer =
          svq::core::ExecuteTopKAllOn(snapshot, stmt.query, stmt.k, cache_off);
      layers_.repository_us.Add(span.End());
      if (!answer.ok()) {
        report_->Fail("repository: " + answer.status().ToString());
        continue;
      }
      stats.Merge(answer->stats);
    }
    fold_stats(stats);
  }
}

void RankedRun::Emit(const Timing& t, const std::string& prefix) {
  report_->Ref(prefix + "queries_per_s", t.round_rate.Median(), "1/s");
  report_->Ref(prefix + "single_p50_ms", t.single_ms.Median(), "ms");
  report_->Ref(prefix + "single_p99_ms", t.single_ms.Percentile(0.99), "ms");
  report_->Ref(prefix + "broadcast_p50_ms", t.broadcast_ms.Median(), "ms");
  report_->Ref(prefix + "broadcast_p99_ms", t.broadcast_ms.Percentile(0.99),
               "ms");
  report_->Ref(prefix + "exec_share",
               t.total_ms > 0 ? t.exec_ms / t.total_ms : 0.0, "ratio");
  report_->Ref(prefix + "singles", static_cast<double>(t.single_ms.size()),
               "count");
  report_->Ref(prefix + "broadcasts",
               static_cast<double>(t.broadcast_ms.size()), "count");
}

int RankedRun::Run() {
  Setup();
  const double setup_s =
      MsSince(ProcessStart()) / 1000.0 - oracle_ms_ / 1000.0;
  report_->Ref("oracle_s", oracle_ms_ / 1000.0, "s");
  report_->Ref("videos", static_cast<double>(videos_), "count");

  Timing timed;
  const auto cache_before = stack_.CacheTotals();
  {
    Budget budget{mode_ == Mode::kTraced ? args_.seconds / 2 : args_.seconds};
    const Clock::time_point began = Clock::now();
    for (int rounds = 0; budget.Continue(rounds, began); ++rounds) {
      TimedRound(round_, &timed);
    }
    Emit(timed, "");
  }
  const auto cache_after = stack_.CacheTotals();
  if (mode_ == Mode::kTimed) {
    report_->end_to_end["rate_per_s"] = {timed.round_rate.Median(), "1/s"};
    report_->end_to_end["main_p50_ms"] = {timed.single_ms.Median(), "ms"};
    report_->end_to_end["side_p50_ms"] = {timed.broadcast_ms.Median(), "ms"};
    report_->end_to_end["setup_s"] = {setup_s, "s"};
    return 0;
  }

  // Traced loop over the same round order.
  Timing traced;
  Budget budget{args_.seconds / 2};
  const Clock::time_point began = Clock::now();
  int64_t request = 0;
  tracer_.Enable();
  for (int rounds = 0; budget.Continue(rounds, began); ++rounds) {
    const int64_t count = traced.count;
    const double total_ms = traced.total_ms;
    for (int index : round_) {
      TracedStatement(statements_[static_cast<size_t>(index)], request++,
                      &traced);
    }
    EndRound(count, total_ms, &traced);
  }
  Emit(traced, "traced.");
  const auto cache_end = stack_.CacheTotals();
  const auto& from = cache_before;
  const auto& to = cache_after;

  LayerSamples& l = layers_;
  report_->Layer("wire.request_encode_us", l.encode_us.Median(), "us");
  report_->Layer("wire.response_decode_us", l.decode_us.Median(), "us");
  report_->Layer("wire.response_bytes", l.response_bytes.Mean(), "bytes");
  report_->Layer("client.direct_round_trip_us", l.direct_us.Median(), "us");
  report_->Layer("cluster.route_overhead_us", l.route_us.Median(), "us");
  report_->Layer("cluster.scatter_overhead_us", l.scatter_us.Median(), "us");
  report_->Layer("cluster.merge_us", l.merge_us.Median(), "us");
  report_->Layer("server.queue_ms", l.queue_ms.Median(), "ms");
  report_->Layer("server.exec_ms", l.exec_ms.Median(), "ms");
  report_->Layer("server.overhead_us", l.server_overhead_us.Median(), "us");
  report_->Layer("query.parse_us", l.parse_us.Median(), "us");
  report_->Layer("query.bind_us", l.bind_us.Median(), "us");
  report_->Layer("plan.plan_cold_us", l.plan_cold_us.Median(), "us");
  report_->Layer("plan.candidate_clip_error_pct", l.clip_error_pct.Mean(),
                 "%");
  report_->Layer("plan.chosen_vs_best_ratio", l.chosen_ratio.Median(),
                 "ratio");
  report_->Layer("core.topk_us", l.topk_us.Median(), "us");
  report_->Layer("core.repository_topk_us", l.repository_us.Median(), "us");
  report_->Layer("core.algorithm_ms", l.algorithm_ms.Mean(), "ms");
  report_->Layer("core.candidate_clips", l.candidate_clips.Mean(), "count");
  report_->Layer("core.iterator_calls", l.iterator_calls.Mean(), "count");
  report_->Layer("storage.sorted_accesses", l.sorted.Mean(), "count");
  report_->Layer("storage.random_accesses", l.random.Mean(), "count");
  report_->Layer("storage.sequential_reads", l.sequential.Mean(), "count");
  report_->Layer("storage.row_read_us", l.row_read_us.Median(), "us");
  report_->Layer("storage.virtual_ms", l.virtual_ms.Mean(), "ms");
  if (hot_) {
    report_->Layer("plan.plan_cached_us", l.plan_cached_us.Median(), "us");
    report_->Layer("cache.hit_us", l.cache_hit_us.Median(), "us");
    report_->Layer("cache.result_hit_ratio",
                   Ratio(to.result_hits - from.result_hits,
                         to.result_misses - from.result_misses),
                   "ratio");
    report_->Layer("cache.candidate_hit_ratio",
                   Ratio(to.candidate_hits - from.candidate_hits,
                         to.candidate_misses - from.candidate_misses),
                   "ratio");
    report_->Layer("cache.kcrit_hit_ratio",
                   Ratio(to.kcrit_hits - from.kcrit_hits,
                         to.kcrit_computes - from.kcrit_computes),
                   "ratio");
    report_->Layer("cache.bytes", static_cast<double>(cache_end.bytes),
                   "bytes");
  }
  if (timed.single_ms.Median() > 0) {
    report_->Ref("trace_overhead.single_p50",
                 traced.single_ms.Median() / timed.single_ms.Median() - 1.0,
                 "ratio");
  }
  if (timed.broadcast_ms.Median() > 0) {
    report_->Ref("trace_overhead.broadcast_p50",
                 traced.broadcast_ms.Median() / timed.broadcast_ms.Median() -
                     1.0,
                 "ratio");
  }
  PublishTrace(tracer_, args_, report_);
  return 0;
}

}  // namespace

int RunRanked(const Args& args, bool hot, Mode mode, Report* report) {
  RankedRun run(args, hot, mode, report);
  const int rc = run.Run();
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir + "/catalog", ec);
  return rc;
}

}  // namespace perfbench
