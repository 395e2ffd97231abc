// Live progress heartbeat and soft watchdog (perf observatory, pillar 3).
//
// Under --progress [SECS] a ProgressMonitor thread periodically emits a
// one-line status to stderr and a "heartbeat" JSONL trace event, and — when
// no progress tick has arrived for the stall window — a thread-dump-style
// snapshot of what every worker is doing ("watchdog_stall"). This is the
// seed of the serve daemon's wedged-worker detection (ROADMAP item 1).
//
// Why an ActivityBoard instead of the registry: under --jobs N the workers
// accumulate into private ScopedRegistry instances that only merge into the
// global registry at batch end, so the monitor cannot see live progress
// there. The board is a fixed array of per-worker slots (indexed by
// telemetry::worker_id()) holding only lock-free atomics: current output
// name, pipeline stage, check id, start time, decision depth, and a
// monotonically increasing progress tick that the fixpoint drain advances
// by its gate-evaluation count.
//
// Producers guard every board write with heartbeat_enabled() — a relaxed
// atomic flag that is false unless a monitor is running — so the disabled
// hot path pays one load + branch, the same discipline as trace_enabled().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <thread>
#include <condition_variable>
#include <mutex>

namespace waveck::prof {

namespace detail {
extern std::atomic<bool> g_heartbeat_enabled;
}  // namespace detail

[[nodiscard]] inline bool heartbeat_enabled() {
  return detail::g_heartbeat_enabled.load(std::memory_order_relaxed);
}
/// Normally driven by ProgressMonitor's lifetime; exposed for tests.
void set_heartbeat_enabled(bool on);

struct WorkerActivity {
  std::atomic<const char*> output{nullptr};  // interned output name, or null
  std::atomic<const char*> stage{nullptr};   // literal stage name, or null
  std::atomic<std::int64_t> chk{-1};
  std::atomic<std::uint64_t> since_ns{0};    // monotonic_ns at begin_check
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::int64_t> depth{0};
};

class ActivityBoard {
 public:
  static constexpr int kMaxWorkers = 64;  // worker ids above this share 0

  [[nodiscard]] static ActivityBoard& instance();
  [[nodiscard]] WorkerActivity& slot(int worker);

  // Static conveniences resolving the calling thread's slot. Callers guard
  // with heartbeat_enabled().
  static void begin_check(const char* output, std::int64_t chk);
  static void end_check();
  static void set_stage(const char* stage);
  static void set_depth(std::int64_t depth);
  static void tick(std::uint64_t n = 1);

  /// Sum of every slot's progress tick; the watchdog's liveness signal.
  [[nodiscard]] std::uint64_t total_progress() const;

 private:
  WorkerActivity slots_[kMaxWorkers];
};

struct HeartbeatOptions {
  double interval_s = 5.0;
  /// No-progress window before a watchdog snapshot; <= 0 picks
  /// max(30, 6 * interval).
  double stall_s = 0.0;
  /// Invoked (from the monitor thread) once per stall episode, after the
  /// stderr snapshot, the "watchdog_stall" trace event, and the automatic
  /// flight-recorder blackbox dump. The serve daemon hangs its structured
  /// stats line here.
  std::function<void()> on_stall;
};

/// Owns the monitor thread; construction enables heartbeat_enabled() and
/// emits "progress_begin", stop() (or destruction) emits "progress_end"
/// with the beat/stall totals so traces can assert balanced brackets.
class ProgressMonitor {
 public:
  ProgressMonitor(const HeartbeatOptions& opt, std::ostream& err);
  ~ProgressMonitor();
  ProgressMonitor(const ProgressMonitor&) = delete;
  ProgressMonitor& operator=(const ProgressMonitor&) = delete;

  void stop();
  [[nodiscard]] std::uint64_t beats() const {
    return beats_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stalls() const {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  HeartbeatOptions opt_;
  double stall_s_ = 0.0;
  std::ostream* err_;
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace waveck::prof
