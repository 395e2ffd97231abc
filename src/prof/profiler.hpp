// In-process sampling profiler (perf observatory, pillar 2).
//
// A SIGPROF handler driven by setitimer(ITIMER_PROF) captures a backtrace(3)
// stack into a preallocated ring of fixed-size records — the handler does no
// allocation, no locking, and no symbolization, only an atomic slot claim
// plus reads of the thread-local telemetry marks (check output name and
// pipeline stage, see telemetry::stage_mark). Because ITIMER_PROF counts
// process CPU time, samples land on whichever thread is burning cycles, so
// --jobs N workers are profiled together. The kernel may deliver fewer
// signals than requested (ticks cap the rate, often at 250Hz), so the CPU
// time is measured with CLOCK_PROCESS_CPUTIME_ID across start/stop and each
// sample weighs its share of that interval, never 1/hz.
//
// stop() symbolizes once (backtrace_symbols + __cxa_demangle), prepends two
// synthetic annotation frames — "check:<output>" and "stage:<stage>" — to
// each stack, and folds everything into
//   * collapsed-stack text ("frame;frame;frame count" per line, the format
//     flamegraph.pl and speedscope both ingest), and
//   * a speedscope-compatible JSON document ("type":"sampled").
// The annotation frames are what let a flamegraph separate fixpoint vs FAN
// vs stem-correlation time per check even where C++ inlining muddies the
// raw frames.
//
// One profiler per process (SIGPROF is process-wide); start/stop from the
// main thread. Tool binaries need -rdynamic for backtrace_symbols to see
// function names.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace waveck::prof {

struct ProfilerOptions {
  std::uint32_t hz = 997;        // off the 1000Hz beat of timer interrupts
  std::size_t max_samples = 1u << 16;
};

struct ProfileReport {
  std::size_t samples = 0;
  std::size_t dropped = 0;       // ring full; raise max_samples
  double cpu_seconds = 0.0;      // process CPU time between start and stop
  double delivered_hz = 0.0;     // (samples + dropped) / cpu_seconds
  std::string folded;            // collapsed-stack text
  std::string speedscope_json;   // weights in seconds of CPU time
};

/// Returns a NUL-terminated copy of `name` that lives as long as the
/// process: equal names share one copy. The check probe stores profiler
/// marks through this, so a sample (or stop()) never reads a string its
/// owner -- a Circuit's net name -- has since freed. Thread-safe.
[[nodiscard]] const char* intern_mark(std::string_view name);

class SamplingProfiler {
 public:
  [[nodiscard]] static SamplingProfiler& instance();

  /// Arms the timer. Returns false (with *error set) if already running or
  /// the platform lacks SIGPROF/backtrace support.
  bool start(const ProfilerOptions& opt, std::string* error = nullptr);
  [[nodiscard]] bool running() const;
  /// Disarms, symbolizes, folds. Safe to call when not running (empty
  /// report).
  ProfileReport stop();

 private:
  SamplingProfiler() = default;
};

}  // namespace waveck::prof
