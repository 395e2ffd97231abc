// Hardware performance counters (perf observatory, pillar 1).
//
// A PerfCounterGroup opens one perf_event_open(2) group per thread — cycles
// (leader), instructions, cache-references, cache-misses, branch-misses —
// and reads all five with a single read(2) thanks to PERF_FORMAT_GROUP.
// Raw values come back with the group's enabled/running times; deltas are
// multiplex-scaled (raw * d_enabled / d_running) so sections measured while
// the PMU was time-sliced across groups still report honest estimates.
//
// Graceful degradation: in containers, under perf_event_paranoid, or on
// machines without a PMU, perf_event_open fails (EACCES/EPERM/ENOENT). The
// group then stays closed, exactly one process-wide warning goes to stderr,
// and every sample still carries CLOCK_MONOTONIC so wall-time attribution
// keeps working; consumers see hw_valid=false and emit an explicit
// "counters":"unavailable" marker instead of zeros-pretending-to-be-data.
// The WAVECK_PERF_FAKE_ERRNO env var (an errno name like "EACCES" or a
// number) forces the failure path for tests.
//
// Concurrency: groups are per-thread (thread_counter_group()), so workers
// under --jobs N each count their own thread; per-stage deltas are added
// both to the CheckReport being built and to the calling thread's
// Registry::current(), and the scheduler's registry merge therefore merges
// counter groups exactly like every other metric.
//
// Everything is gated on counters_enabled(), a relaxed atomic flag that is
// false by default: the disabled hot path pays one load + branch, no
// syscalls.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/telemetry.hpp"

namespace waveck::prof {

/// CLOCK_MONOTONIC in nanoseconds.
[[nodiscard]] std::uint64_t monotonic_ns();

/// One point-in-time reading of a thread's counter group. Hardware fields
/// are raw (unscaled); monotonic_ns is always valid.
struct CounterSample {
  bool hw_valid = false;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
  std::uint64_t monotonic_ns = 0;
};

/// Difference between two samples with multiplex scaling applied.
struct CounterDelta {
  bool hw_valid = false;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t wall_ns = 0;
};

/// Scales a raw event delta by enabled/running time: the kernel multiplexes
/// groups onto the PMU, so a group scheduled for only part of the window
/// extrapolates linearly. enabled==running (the common, un-multiplexed
/// case) returns raw unchanged; running==0 means the group never got the
/// PMU, in which case raw (necessarily 0) is returned as-is.
[[nodiscard]] std::uint64_t scale_multiplexed(std::uint64_t raw,
                                              std::uint64_t enabled_ns,
                                              std::uint64_t running_ns);

[[nodiscard]] CounterDelta delta_between(const CounterSample& begin,
                                         const CounterSample& end);

/// Accumulated deltas for one attribution slot (a pipeline stage, a bench
/// row, a whole run). hw_valid is the AND over contributions with hardware
/// data — a single degraded section marks the total wall-clock-only.
struct CounterTotals {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t sections = 0;
  bool hw_valid = true;

  void add(const CounterDelta& d);
  void add(const CounterTotals& o);
  [[nodiscard]] bool any() const { return sections != 0; }
  /// Instructions per cycle; 0 when no cycles were counted.
  [[nodiscard]] double ipc() const;
  /// cache_misses / cache_references; 0 when no references were counted.
  [[nodiscard]] double cache_miss_rate() const;
};

/// One perf_event_open group bound to the calling thread. Construction
/// opens (or degrades); read() is one syscall. Not thread-safe: use from
/// the owning thread only (thread_counter_group() handles this).
class PerfCounterGroup {
 public:
  static constexpr std::size_t kEvents = 5;

  PerfCounterGroup();
  ~PerfCounterGroup();
  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  /// True when the hardware group opened; false on the degraded path.
  [[nodiscard]] bool available() const { return fds_[0] >= 0; }
  /// Why the group is unavailable ("" when available()).
  [[nodiscard]] const std::string& unavailable_reason() const {
    return reason_;
  }
  [[nodiscard]] CounterSample read() const;

 private:
  int fds_[kEvents] = {-1, -1, -1, -1, -1};
  std::uint64_t ids_[kEvents] = {0, 0, 0, 0, 0};
  std::string reason_;
};

/// Master switch (relaxed atomic; default off). Probe sites load it once
/// per section and skip all syscalls when false.
[[nodiscard]] bool counters_enabled();
void set_counters_enabled(bool on);

/// The calling thread's lazily opened group.
[[nodiscard]] PerfCounterGroup& thread_counter_group();

/// First process-wide open-failure reason ("" if none failed yet). Stable
/// once set; what report writers put next to "counters":"unavailable".
[[nodiscard]] std::string unavailable_reason();
/// How many fallback warnings went to stderr (tests assert exactly one).
[[nodiscard]] std::uint64_t warnings_emitted();

/// Adds a scaled delta to the calling thread's registry under
/// "perf.<slot>.{cycles,instructions,cache_references,cache_misses,
/// branch_misses,wall_ns,sections}". Worker registries merge these like
/// every other counter, so global totals equal the sum over checks.
void add_to_registry(telemetry::Registry& reg, std::string_view slot,
                     const CounterDelta& d);

/// The counters add_to_registry writes for one slot, looked up once so a
/// hot section (the fixpoint drain) adds its delta without name lookups.
class RegistrySlot {
 public:
  RegistrySlot(telemetry::Registry& reg, std::string_view slot);
  void add(const CounterDelta& d);

 private:
  telemetry::Counter* counters_[7];  // cycles ... sections, in that order
};

/// Destroys the calling thread's group so the next thread_counter_group()
/// re-opens (used to exercise WAVECK_PERF_FAKE_ERRNO in tests).
void reset_thread_counter_group_for_testing();

}  // namespace waveck::prof
