#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the repository benchmark: run arguments, the report
// every workload fills, sample statistics, the in-memory span recorder of
// traced runs, and small helpers for failing set-up loudly.

#include <malloc.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "svq/common/result.h"
#include "svq/common/status.h"
#include "svq/io/env.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}
inline double UsSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - begin)
      .count();
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory owned by this run (artifacts), removed at exit.
  std::string work_dir;
  /// Where a traced run writes its spans.
  std::string out_dir;
};

/// A set-up step failed: the run cannot measure anything.
[[noreturn]] inline void Die(const std::string& what, const svq::Status& s) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}
inline void CheckOk(const svq::Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}
template <typename T>
T ValueOrDie(svq::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

/// The default Env with every artifact write counted and timed (for the
/// io.* layer metrics). With `durable` false, Sync and SyncDir do nothing:
/// artifacts a run writes only to read back in set-up need no durability,
/// and skipping the syncs keeps the shared disk's latency out of set-up.
class BenchEnv final : public svq::io::Env {
 public:
  explicit BenchEnv(bool durable) : durable_(durable) {}

  std::atomic<int64_t> bytes{0}, files{0}, syncs{0}, sync_ns{0},
      append_ns{0};

  svq::Result<std::unique_ptr<svq::io::WritableFile>> NewWritableFile(
      const std::string& path) override {
    SVQ_ASSIGN_OR_RETURN(auto file, base_->NewWritableFile(path));
    files.fetch_add(1, std::memory_order_relaxed);
    return std::unique_ptr<svq::io::WritableFile>(
        new File(this, std::move(file)));
  }
  svq::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  svq::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  svq::Status SyncDir(const std::string& dir) override {
    return Sync([&] { return base_->SyncDir(dir); });
  }
  svq::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }

 private:
  class File final : public svq::io::WritableFile {
   public:
    File(BenchEnv* env, std::unique_ptr<svq::io::WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    svq::Status Append(std::string_view data) override {
      const Clock::time_point begin = Clock::now();
      svq::Status status = base_->Append(data);
      Count(&env_->append_ns, begin);
      env_->bytes.fetch_add(static_cast<int64_t>(data.size()),
                            std::memory_order_relaxed);
      return status;
    }
    svq::Status Sync() override {
      return env_->Sync([this] { return base_->Sync(); });
    }
    svq::Status Close() override { return base_->Close(); }

   private:
    BenchEnv* env_;
    std::unique_ptr<svq::io::WritableFile> base_;
  };

  template <typename Fn>
  svq::Status Sync(Fn&& sync) {
    if (!durable_) return svq::Status::OK();
    const Clock::time_point begin = Clock::now();
    svq::Status status = sync();
    Count(&sync_ns, begin);
    syncs.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  static void Count(std::atomic<int64_t>* ns, Clock::time_point begin) {
    ns->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - begin)
                      .count(),
                  std::memory_order_relaxed);
  }

  const bool durable_;
  svq::io::Env* base_ = svq::io::Env::Default();
};

/// Allocates straight from anonymous mappings, outside malloc. The sample
/// buffers grow with the number of operations a run completes, so a
/// faster run would otherwise hold more heap: they stay out of the
/// live-heap figure this way.
template <typename T>
struct UnheapedAllocator {
  using value_type = T;
  UnheapedAllocator() = default;
  template <typename U>
  UnheapedAllocator(const UnheapedAllocator<U>&) {}
  T* allocate(size_t n) {
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t n) { ::munmap(p, n * sizeof(T)); }
  friend bool operator==(const UnheapedAllocator&, const UnheapedAllocator&) {
    return true;
  }
};

/// Latency / size samples; percentiles by nearest rank on a sorted copy.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const {
    double s = 0.0;
    for (double v : values_) s += v;
    return s;
  }
  double Mean() const { return empty() ? 0.0 : Sum() / size(); }
  double Percentile(double p) const {
    if (values_.empty()) return 0.0;
    Values sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const size_t rank = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5));
    return sorted[rank];
  }
  double Median() const { return Percentile(0.5); }

 private:
  using Values = std::vector<double, UnheapedAllocator<double>>;
  Values values_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `end_to_end` holds the BENCHMARK.json
/// end-to-end metrics (untraced runs), `layers` the per-layer metrics
/// (traced runs); `reference` carries figures printed for the reader only
/// (the workload's own metric names, p99s, the traced run's end-to-end
/// numbers and its overhead).
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;
  std::map<std::string, Metric> reference;

  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 16) errors.push_back(what);
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  void Ref(const std::string& name, double value, const std::string& unit) {
    reference[name] = {value, unit};
  }
  /// Folds the program's live heap into `peak_heap_mb`. The workloads
  /// sample at their points of largest live state in the timed phase, so
  /// the peak leaves out set-up's transient memory and the oracles, which
  /// are freed before timing.
  void SampleHeap() {
    peak_heap_mb = std::max(peak_heap_mb, LiveHeapMb());
  }

  double peak_heap_mb = 0.0;

 private:
  /// Bytes held in malloc'd blocks over all arenas, in MiB. The resident
  /// set size would also count the pages glibc's per-thread arenas keep
  /// after a free, which moved by up to 40% between runs of one seed.
  static double LiveHeapMb() {
    const struct mallinfo2 m = mallinfo2();
    return static_cast<double>(m.uordblks + m.hblkhd) / (1024.0 * 1024.0);
  }
};

/// In-memory span recorder of traced runs: name, start, end, parent and
/// request id per span, written out once at the end. Self time is a
/// span's duration minus the part of it its children cover.
class Tracer {
 public:
  static constexpr int32_t kNoParent = -1;

  Tracer() : origin_(Clock::now()) {}
  /// Spans are recorded from here on; until then every call is a no-op.
  void Enable() {
    enabled_ = true;
    spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name, int32_t parent, int64_t request) {
    if (!enabled_) return kNoParent;
    spans_.push_back({name, Now(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Ends span `id` and returns its duration in microseconds.
  double End(int32_t id) {
    if (!enabled_ || id < 0) return 0.0;
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = Now();
    return static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
  }

  /// Self time per span name (µs, summed over spans).
  std::map<std::string, double> SelfMicros() const;
  /// Writes one JSON object per span; returns false when the file cannot
  /// be written.
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int64_t request;
  };
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent,
             int64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }
  double End() {
    if (done_) return micros_;
    done_ = true;
    micros_ = tracer_->End(id_);
    return micros_;
  }

 private:
  Tracer* tracer_;
  int32_t id_;
  bool done_ = false;
  double micros_ = 0.0;
};

/// Work budget of one measured phase: whole rounds until `seconds` have
/// passed, and at least one.
struct Budget {
  double seconds = 0.0;

  bool Continue(int rounds_done, Clock::time_point began) const {
    return rounds_done == 0 || MsSince(began) < seconds * 1000.0;
  }
};

/// Which run a workload makes: the measured end-to-end run, or the traced
/// run of the same inputs (an untraced half, then a traced half).
enum class Mode { kTimed, kTraced };

int RunRanked(const Args& args, bool hot, Mode mode, Report* report);
int RunLiveFeeds(const Args& args, Mode mode, Report* report);
int RunIngest(const Args& args, Mode mode, Report* report);

/// Adds the traced spans' self time per name to the reference figures
/// and writes the spans under `args.out_dir`.
void PublishTrace(const Tracer& tracer, const Args& args, Report* report);

/// Time from process start to the end of set-up is reported as setup_s;
/// the oracles' share is subtracted by the workloads.
Clock::time_point ProcessStart();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
