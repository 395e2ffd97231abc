// Engine-wide telemetry: a process-global metrics registry (monotonic
// counters, gauges, scoped ns-resolution stage timers, small fixed-bucket
// histograms) plus a pluggable TraceSink streaming structured JSONL events.
//
// Design constraints (see doc/OBSERVABILITY.md):
//  * Near-zero cost when no trace sink is installed: an emission site
//    whose fields cost anything guards on `trace_enabled()` (a single
//    pointer load + branch), so the disabled path neither allocates nor
//    formats. Engine events go through one probe each (prof/probe.hpp).
//  * Metric updates are relaxed atomic integer arithmetic on storage cached
//    by the hot objects (ConstraintSystem caches references at
//    construction); registry map lookups happen once per object/stage,
//    never per event, and are serialized by a registry mutex.
//  * Concurrency (doc/PARALLELISM.md): every metric object tolerates
//    concurrent increment from any number of threads. For *attributable*
//    tallies (the per-check snapshot deltas in CheckReport) a worker thread
//    installs its own Registry via ScopedRegistry; hot paths resolve
//    metrics through Registry::current(), and the scheduler merges worker
//    registries into the global one with Registry::merge_from() at the end
//    of a batch. Trace events carry the thread's worker id (`"w"` field);
//    JsonlTraceSink serializes whole lines under a mutex so concurrent
//    emissions never interleave.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

namespace waveck::telemetry {

/// Monotonically increasing event count. Safe under concurrent increment
/// (relaxed atomics: totals are exact, cross-metric ordering is not).
class Counter {
 public:
  void inc() { v_.fetch_add(1, std::memory_order_relaxed); }
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A value that can move both ways (queue depth, search depth, ...). Also
/// tracks its high-water mark: the largest value ever observed by set()/add()
/// since construction (or reset()), maintained with a relaxed CAS-max so a
/// gauge that snapshots back to 0 between reports still carries its peak.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    raise_high_water(v);
  }
  void add(std::int64_t d) {
    raise_high_water(v_.fetch_add(d, std::memory_order_relaxed) + d);
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t high_water() const {
    return hw_.load(std::memory_order_relaxed);
  }
  /// Folds an externally observed peak in (Registry::merge_from takes the
  /// max over worker peaks). Never lowers the mark.
  void raise_high_water(std::int64_t v) {
    std::int64_t cur = hw_.load(std::memory_order_relaxed);
    while (v > cur &&
           !hw_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    hw_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> hw_{0};
};

/// Fixed-bucket power-of-two histogram for small non-negative magnitudes
/// (narrowing-delta sizes, queue depths, conflict depths). Bucket 0 holds
/// exact zeros; bucket i (1 <= i <= kBuckets-2) holds [2^(i-1), 2^i); the
/// last bucket overflows. No allocation, O(1) observe. Concurrent observes
/// keep count/sum/bucket totals exact; a racing snapshot may be torn
/// across the three (each is individually consistent).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 18;

  void observe(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, ...).
  [[nodiscard]] static constexpr std::uint64_t bucket_lower_bound(
      std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t v) {
    if (v == 0) return 0;
    const auto w = static_cast<std::size_t>(std::bit_width(v));
    return w < kBuckets - 1 ? w : kBuckets - 1;
  }
  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// pow2 bucket the rank falls in: exact for bucket 0 (zeros), otherwise
  /// accurate to within the bucket width. Returns 0 on an empty histogram.
  /// Snapshots the buckets once, so a racing observe may shift the estimate
  /// by at most its own weight.
  [[nodiscard]] double quantile(double q) const;
  void merge_from(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i].fetch_add(other.bucket(i), std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  }
  /// Folds pre-aggregated totals in (the LocalHistogram flush path).
  void add_counts(std::span<const std::uint64_t> bucket_counts,
                  std::uint64_t count, std::uint64_t sum) {
    for (std::size_t i = 0; i < kBuckets && i < bucket_counts.size(); ++i) {
      if (bucket_counts[i] != 0) {
        buckets_[i].fetch_add(bucket_counts[i], std::memory_order_relaxed);
      }
    }
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
  }
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Explicit-boundary time histogram for µs-scale request latencies. The
/// pow2 Histogram is the right shape for magnitudes spanning many orders,
/// but its buckets double — useless for telling a 60 µs queue wait from a
/// 100 µs one. This one uses a fixed SLO-style boundary ladder (50 µs ..
/// 10 s) chosen to match Prometheus scrape conventions: bucket i counts
/// observations v <= kBoundsUs[i] (cumulatively rendered as `le` buckets in
/// the exposition), the last bucket overflows. Same concurrency contract as
/// Histogram: relaxed atomics, exact totals, torn snapshots possible.
class TimeHistogram {
 public:
  static constexpr std::array<std::uint64_t, 16> kBoundsUs = {
      50,      100,     250,     500,       1'000,     2'500,
      5'000,   10'000,  25'000,  50'000,    100'000,   250'000,
      500'000, 1'000'000, 2'500'000, 10'000'000};
  static constexpr std::size_t kBuckets = kBoundsUs.size() + 1;

  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t us) {
    for (std::size_t i = 0; i < kBoundsUs.size(); ++i) {
      if (us <= kBoundsUs[i]) return i;
    }
    return kBuckets - 1;
  }

  void observe_us(std::uint64_t us) {
    buckets_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
  }
  void observe_ns(std::uint64_t ns) { observe_us(ns / 1000); }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum_us() const {
    return sum_us_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Estimated q-quantile in µs by linear interpolation inside the bucket
  /// the rank lands in (the overflow bucket reports its lower bound).
  [[nodiscard]] double quantile_us(double q) const;
  void merge_from(const TimeHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i].fetch_add(other.bucket(i), std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_us_.fetch_add(other.sum_us(), std::memory_order_relaxed);
  }
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_us_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// Single-owner accumulation buffer in front of a shared Histogram: each
/// observe() is plain (non-atomic) integer arithmetic, and flush() folds
/// the totals into the histogram with one batch of relaxed RMWs. Loops
/// that observe per event at very high rates (the per-pop queue-depth and
/// per-revision magnitude observations in ConstraintSystem) buffer through
/// this so the hot path never touches shared cache lines. Not thread-safe;
/// flushed on destruction.
class LocalHistogram {
 public:
  explicit LocalHistogram(Histogram& h) : h_(&h) {}
  LocalHistogram(const LocalHistogram&) = delete;
  LocalHistogram& operator=(const LocalHistogram&) = delete;
  /// Movable so owning objects stay movable; the source is left empty.
  LocalHistogram(LocalHistogram&& o) noexcept
      : h_(o.h_), buckets_(o.buckets_), count_(o.count_), sum_(o.sum_) {
    o.buckets_ = {};
    o.count_ = 0;
    o.sum_ = 0;
  }
  ~LocalHistogram() { flush(); }

  void observe(std::uint64_t v) {
    ++buckets_[Histogram::bucket_index(v)];
    ++count_;
    sum_ += v;
  }
  void flush() {
    if (count_ == 0) return;
    h_->add_counts(buckets_, count_, sum_);
    buckets_ = {};
    count_ = 0;
    sum_ = 0;
  }
  [[nodiscard]] std::uint64_t pending() const { return count_; }

 private:
  Histogram* h_;
  std::array<std::uint64_t, Histogram::kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Accumulating stage timer: number of runs and total wall time in ns.
class StageTimer {
 public:
  void add_ns(std::uint64_t ns) { add(1, ns); }
  void add(std::uint64_t calls, std::uint64_t ns) {
    calls_.fetch_add(calls, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(total_ns()) * 1e-9;
  }
  void reset() {
    calls_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> total_ns_{0};
};

/// Steady-clock stopwatch with ns resolution.
class StopWatch {
 public:
  StopWatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] std::uint64_t ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(ns()) * 1e-9;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// RAII: adds the scope's wall time to a StageTimer on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(StageTimer& t) : timer_(t) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { timer_.add_ns(watch_.ns()); }

 private:
  StageTimer& timer_;
  StopWatch watch_;
};

/// Metrics registry. Metric objects are created on first use and live as
/// long as the registry; returned references stay valid (node-based
/// storage). Names are dotted paths ("engine.narrowings", "stage.gitd").
///
/// The process-global registry is `global()`. A thread may interpose its
/// own instance with ScopedRegistry, after which `current()` — the lookup
/// the engine's hot objects use — resolves to that instance on that thread
/// only; the owner later folds it back with `merge_from`. Lookups are
/// guarded by a per-registry mutex; value updates are lock-free.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] static Registry& global();
  /// The calling thread's registry: its ScopedRegistry override if one is
  /// installed, the process-global registry otherwise.
  [[nodiscard]] static Registry& current();

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);
  [[nodiscard]] TimeHistogram& time_histogram(std::string_view name);
  [[nodiscard]] StageTimer& timer(std::string_view name);

  /// Adds every metric value of `other` into this registry (gauges add;
  /// histograms merge bucket-wise). `other` should be quiescent.
  void merge_from(const Registry& other);

  /// Deterministic (name-sorted) JSON snapshot of every metric.
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition (version 0.0.4) of every metric, names
  /// mangled to `<prefix>_<dotted_path_with_underscores>`: counters become
  /// `_total` counters, timers a `_seconds_total`/`_calls_total` pair,
  /// gauges a gauge plus `_max`, and both histogram flavors full Prometheus
  /// histograms with cumulative `le` buckets (µs values for TimeHistogram).
  [[nodiscard]] std::string to_prometheus(std::string_view prefix) const;

  /// Zeroes every metric value; registrations (and references) survive.
  void reset();

 private:
  friend class ScopedRegistry;
  static Registry* exchange_thread_registry(Registry* r);

  template <class M>
  using Table = std::map<std::string, M, std::less<>>;

  mutable std::mutex mu_;  // guards table structure, not metric values
  Table<Counter> counters_;
  Table<Gauge> gauges_;
  Table<Histogram> histograms_;
  Table<TimeHistogram> time_histograms_;
  Table<StageTimer> timers_;
};

/// RAII: makes `r` the calling thread's Registry::current() for the scope.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& r)
      : prev_(Registry::exchange_thread_registry(&r)) {}
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;
  ~ScopedRegistry() { Registry::exchange_thread_registry(prev_); }

 private:
  Registry* prev_;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One key/value pair of a trace event. Cheap to build by value at the call
/// site; string payloads are borrowed (must outlive the `event` call only).
struct TraceField {
  enum class Kind : std::uint8_t { kInt, kDouble, kBool, kString };

  const char* key;
  Kind kind;
  std::int64_t i = 0;
  double d = 0.0;
  bool b = false;
  std::string_view s;

  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  constexpr TraceField(const char* k, T v)
      : key(k), kind(Kind::kInt), i(static_cast<std::int64_t>(v)) {}
  constexpr TraceField(const char* k, double v)
      : key(k), kind(Kind::kDouble), d(v) {}
  constexpr TraceField(const char* k, bool v)
      : key(k), kind(Kind::kBool), b(v) {}
  constexpr TraceField(const char* k, std::string_view v)
      : key(k), kind(Kind::kString), s(v) {}
  constexpr TraceField(const char* k, const char* v)
      : key(k), kind(Kind::kString), s(v) {}
};

/// Receives structured events. Implementations must tolerate any event name
/// and field set (the schema is producer-defined; see doc/OBSERVABILITY.md)
/// and, when the scheduler runs checks in parallel, concurrent calls from
/// multiple threads (JsonlTraceSink serializes internally).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void event(std::string_view name,
                     std::span<const TraceField> fields) = 0;
};

namespace detail {
extern std::atomic<TraceSink*> g_trace_sink;
}  // namespace detail

[[nodiscard]] inline TraceSink* trace_sink() {
  return detail::g_trace_sink.load(std::memory_order_acquire);
}
[[nodiscard]] inline bool trace_enabled() { return trace_sink() != nullptr; }
/// Installs (or, with nullptr, removes) the process trace sink. Not owned.
/// Install/remove while worker threads may emit is the caller's hazard.
void set_trace_sink(TraceSink* sink);

/// The calling thread's worker id, stamped into every JSONL trace line as
/// the "w" field: 0 on the main thread, 1..N on scheduler pool workers.
[[nodiscard]] int worker_id();
void set_worker_id(int id);

/// Position marks for the sampling profiler (src/prof): the check and stage
/// probes stamp the current check's output name and pipeline stage into
/// thread-local slots, and the SIGPROF handler reads them back to annotate
/// each captured stack. Stored as lock-free atomics so the read is
/// async-signal-safe; the pointed-to strings must outlive the mark (stage
/// names are literals, the check mark is interned by prof::intern_mark).
/// nullptr = no mark.
[[nodiscard]] const char* stage_mark();
void set_stage_mark(const char* stage);
[[nodiscard]] const char* check_mark();
void set_check_mark(const char* check);

/// The calling thread's open trace span. `chk` is the id of the enclosing
/// timing check (-1 outside any check), `dec` the id of the FAN decision
/// subtree the engine is currently working under (-1 at the search root).
/// JsonlTraceSink stamps both into every line when set, which is how deep
/// events (`propagate`, `conflict`, `cache`) get attributed to a check and
/// decision without threading ids through the hot call sites.
struct SpanContext {
  std::int64_t chk = -1;
  std::int64_t dec = -1;
};
[[nodiscard]] SpanContext& span_context();

/// RAII for the check-level span: allocates a process-unique 1-based check
/// id, installs it as the thread's span context (with `dec` cleared), and
/// restores the previous context on destruction.
class ScopedCheckSpan {
 public:
  ScopedCheckSpan();
  ScopedCheckSpan(const ScopedCheckSpan&) = delete;
  ScopedCheckSpan& operator=(const ScopedCheckSpan&) = delete;
  ~ScopedCheckSpan();

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  std::int64_t id_;
  SpanContext prev_;
};

/// Emits an event iff a sink is installed. Call sites that compute field
/// values (names, deltas) should guard on `trace_enabled()` themselves so
/// the disabled path pays only the branch.
inline void emit(std::string_view name,
                 std::initializer_list<TraceField> fields) {
  if (TraceSink* sink = trace_sink()) {
    sink->event(name, {fields.begin(), fields.size()});
  }
}

/// Streams events as JSON Lines: one object per event, first keys always
/// "ev" (event name), "seq" (1-based sequence number), "t" (ns since the
/// sink was created) and "w" (emitting worker id), then — when the emitting
/// thread has an open span — "chk" (check id) and "dec" (decision id), then
/// the producer fields in order. Lines are formatted into a local buffer
/// and written under a mutex, so events from concurrent workers never
/// interleave mid-line.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Borrows `os`; the stream must outlive the sink.
  explicit JsonlTraceSink(std::ostream& os);
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit JsonlTraceSink(const std::string& path);

  void event(std::string_view name,
             std::span<const TraceField> fields) override;

  [[nodiscard]] std::uint64_t events_written() const {
    return seq_.load(std::memory_order_relaxed);
  }

 private:
  std::ofstream file_;
  std::ostream* os_;
  std::mutex mu_;
  std::atomic<std::uint64_t> seq_{0};
  std::chrono::steady_clock::time_point start_;
};

/// JSON string-body escaping (quotes, backslashes, control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace waveck::telemetry
