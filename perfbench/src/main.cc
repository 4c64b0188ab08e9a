// The repository benchmark's driver: runs one workload with one seed and
// prints, as the last line of standard output, one JSON object with the
// fields correct, attempted, failed and metrics. Untraced runs report the
// end-to-end metrics; traced runs (--trace 1) report the per-layer
// metrics, each from the one workload that owns it. See README.md.
//
//   svq_perfbench --workload ranked_cold --seed 1 --seconds 10 --trace 0

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

const Clock::time_point g_process_start = Clock::now();

const char* const kWorkloads[] = {"ranked_cold", "ranked_hot", "live_feeds",
                                  "ingest"};

/// Every per-layer metric a traced run reports (BENCHMARK.json
/// "per_layer"), in the order printed.
const char* const kLayerMetrics[] = {
    "wire.request_encode_us", "wire.response_decode_us",
    "wire.response_bytes", "client.direct_round_trip_us",
    "cluster.route_overhead_us", "cluster.scatter_overhead_us",
    "cluster.merge_us", "server.queue_ms", "server.exec_ms",
    "server.overhead_us", "query.parse_us", "query.bind_us",
    "plan.plan_cold_us", "plan.plan_cached_us",
    "plan.candidate_clip_error_pct", "plan.chosen_vs_best_ratio",
    "cache.result_hit_ratio", "cache.candidate_hit_ratio",
    "cache.kcrit_hit_ratio", "cache.hit_us", "cache.bytes", "core.topk_us",
    "core.repository_topk_us", "core.algorithm_ms", "core.candidate_clips",
    "core.iterator_calls", "storage.sorted_accesses",
    "storage.random_accesses", "storage.sequential_reads",
    "storage.row_read_us", "storage.virtual_ms", "core.online_clip_us",
    "models.infer_us", "models.units_run", "models.units_charged",
    "models.simulated_model_ms", "stats.kcrit_computes", "stats.kcrit_hits",
    "stream.poll_us", "stream.events_pushed", "core.ingest_video_ms",
    "core.ingest_inference_ms", "core.ingest_scoring_ms",
    "core.ingest_sequences_ms", "core.ingest_tables_ms",
    "core.positive_clips_us", "runtime.tasks_executed", "runtime.steals",
    "io.bytes_written", "io.files_written", "io.syncs", "io.sync_us",
    "io.append_us", "io.bytes_per_frame", "io.reopen_ms"};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The workload that owns a per-layer metric (README.md, "Per-layer
/// metrics"). A metric is always taken from its owner's traced run, at the
/// owner's own inputs, whichever workload was asked for: a traced run of
/// one workload also makes the traced runs of the others.
std::string OwnerOf(const std::string& metric) {
  if (StartsWith(metric, "core.online") || StartsWith(metric, "models.") ||
      StartsWith(metric, "stats.") || StartsWith(metric, "stream.")) {
    return "live_feeds";
  }
  if (StartsWith(metric, "core.ingest") ||
      StartsWith(metric, "core.positive") ||
      StartsWith(metric, "runtime.") || StartsWith(metric, "io.")) {
    return "ingest";
  }
  // Execute, plan quality and storage: the cache-off workload.
  if (StartsWith(metric, "server.queue") ||
      StartsWith(metric, "server.exec") ||
      StartsWith(metric, "plan.candidate") ||
      StartsWith(metric, "plan.chosen") || StartsWith(metric, "core.") ||
      StartsWith(metric, "storage.")) {
    return "ranked_cold";
  }
  return "ranked_hot";
}

int RunWorkload(const std::string& workload, const Args& args, Mode mode,
                Report* report) {
  if (workload == "ranked_cold") return RunRanked(args, false, mode, report);
  if (workload == "ranked_hot") return RunRanked(args, true, mode, report);
  if (workload == "live_feeds") return RunLiveFeeds(args, mode, report);
  return RunIngest(args, mode, report);
}

std::string Escaped(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics,
                        const std::vector<std::string>& order) {
  std::string out = "{";
  bool first = true;
  for (const std::string& name : order) {
    const auto it = metrics.find(name);
    if (it == metrics.end()) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", it->second.value);
    out += std::string(first ? "" : ", ") + "\"" + Escaped(name) +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           Escaped(it->second.unit) + "\"}";
    first = false;
  }
  return out + "}";
}

std::vector<std::string> Keys(const std::map<std::string, Metric>& metrics) {
  std::vector<std::string> keys;
  for (const auto& [name, metric] : metrics) keys.push_back(name);
  return keys;
}

int Usage() {
  std::fprintf(stderr,
               "usage: svq_perfbench --workload "
               "ranked_cold|ranked_hot|live_feeds|ingest --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }

std::map<std::string, double> Tracer::SelfMicros() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i] / 1000.0;
  }
  return by_name;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out.setf(std::ios::fixed);
  out.precision(3);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start_us\": "
        << s.start_ns / 1000.0 << ", \"end_us\": " << s.end_ns / 1000.0
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

void PublishTrace(const Tracer& tracer, const Args& args, Report* report) {
  for (const auto& [name, us] : tracer.SelfMicros()) {
    report->Ref("self_ms." + name, us / 1000.0, "ms");
  }
  const std::string path = args.out_dir + "/spans-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  if (tracer.Write(path)) {
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", tracer.size(),
                 path.c_str());
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
      have_seconds = true;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      !(args.seconds > 0.0) ||
      std::find(std::begin(kWorkloads), std::end(kWorkloads),
                args.workload) == std::end(kWorkloads)) {
    return Usage();
  }
  if (args.work_dir.empty()) {
    args.work_dir = ".bench_build/perfbench-work/" + args.workload + "-" +
                    std::to_string(::getpid());
  }
  if (args.out_dir.empty()) args.out_dir = ".bench_build/perfbench-out";
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 2;
  }

  Report report;
  int rc = 0;
  std::vector<std::string> order;
  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    rc = RunWorkload(args.workload, args, Mode::kTimed, &report);
    report.end_to_end["peak_heap_mb"] = {report.peak_heap_mb, "MB"};
    metrics = report.end_to_end;
    order = {"rate_per_s", "main_p50_ms", "side_p50_ms", "setup_s",
             "peak_heap_mb"};
  } else {
    // The asked-for workload first, then the owners of the other layers;
    // the others' reference figures are prefixed with their names.
    std::vector<std::string> owners = {args.workload};
    for (const char* w : kWorkloads) {
      if (w != args.workload) owners.push_back(w);
    }
    for (const std::string& owner : owners) {
      if (rc != 0) break;
      Args owner_args = args;
      owner_args.workload = owner;
      Report owned;
      rc = RunWorkload(owner, owner_args, Mode::kTraced, &owned);
      for (const auto& [name, metric] : owned.layers) {
        if (OwnerOf(name) == owner) report.layers.emplace(name, metric);
      }
      const std::string prefix = owner == args.workload ? "" : owner + ".";
      for (const auto& [name, metric] : owned.reference) {
        report.reference.emplace(prefix + name, metric);
      }
      report.attempted += owned.attempted;
      report.failed += owned.failed;
      for (const std::string& e : owned.errors) report.Fail(e);
    }
    metrics = report.layers;
    order.assign(std::begin(kLayerMetrics), std::end(kLayerMetrics));
    for (const std::string& name : order) {
      if (!metrics.count(name)) report.Fail("no measurement of " + name);
    }
  }
  std::filesystem::remove_all(args.work_dir, ec);
  if (rc != 0) return rc;

  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) report.Fail(name + " is not finite");
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  std::printf("reference %s\n",
              MetricsJson(report.reference, Keys(report.reference)).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed),
      MetricsJson(metrics, order).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
