// Engine probes: one call per multi-channel engine event.
//
// Narrowing fixpoints (Section 3.3), dominator rounds (Section 4), stem
// splits and FAN decisions, backtracks and conflicts (Section 5) each feed
// up to five channels: registry counters, the JSONL trace, the flight
// recorder ring, the heartbeat's ActivityBoard slot and the profiler's
// check/stage marks. The event's probe writes all of them, so the channels
// agree by construction. Per event it costs the counter bumps (through the
// references a *Counters struct hoists once per search, cache or engine),
// one ring record, and one branch each for the trace and the board (the
// trace fields are built only when a sink is attached).
//
// Codes, not strings, cross this boundary: the flight::k* codes, whose
// tables in flight_recorder.cpp render both the trace and the blackbox
// dumps. doc/OBSERVABILITY.md has the event table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/telemetry.hpp"
#include "common/time.hpp"
#include "prof/perf_counters.hpp"

namespace waveck::probe {

/// The check span. Construction is check_begin: opens the span every later
/// event on this thread is stamped with, and sets the profiler's check mark
/// (interned, so it outlives the circuit) and the board slot.
class CheckSpan {
 public:
  CheckSpan(std::string_view output, Time delta);
  CheckSpan(const CheckSpan&) = delete;
  CheckSpan& operator=(const CheckSpan&) = delete;

  /// check_end with a flight::kConclusion* code; `witness` is the violating
  /// input vector or null.
  void end(std::uint8_t conclusion, double seconds,
           const std::vector<bool>* witness);

 private:
  telemetry::ScopedCheckSpan span_;
  std::string_view output_;
};

/// `stage` is a literal (the marks keep the pointer); `status` a
/// flight::kStage* code.
void stage_begin(const char* stage);
void stage_end(const char* stage, std::uint8_t status);

struct SearchCounters {
  telemetry::Registry& reg = telemetry::Registry::current();
  telemetry::Counter& decisions = reg.counter("search.decisions");
  telemetry::Counter& backtracks = reg.counter("search.backtracks");
  telemetry::Counter& conflicts = reg.counter("search.conflicts");
  telemetry::Counter& spurious = reg.counter("search.spurious_vectors");
  telemetry::Histogram& conflict_depth = reg.histogram("search.conflict_depth");
  telemetry::Gauge& depth = reg.gauge("search.depth");
};

/// Decision `id` (1-based per search) opens a subtree under `parent` (-1 =
/// the search root); later events carry `id`.
void decision(SearchCounters& k, std::int64_t id, std::int64_t parent,
              std::string_view net, bool cls, std::size_t depth);
/// Closes decision `id` with a flight::kOutcome* code; later events carry
/// `resume` (the enclosing decision, or -1).
void decision_close(std::int64_t id, std::uint8_t outcome,
                    std::int64_t resume);
void backtrack(SearchCounters& k, std::int64_t id, std::string_view net,
               bool cls, std::size_t depth);
void conflict(SearchCounters& k, std::size_t depth);
void spurious_vector(SearchCounters& k, std::size_t depth);

/// Every ConstraintSystem metric. The engine bumps the counters and local
/// histograms of the second block inside a drain; propagate writes the rest.
struct FixpointCounters {
  telemetry::Registry& reg = telemetry::Registry::current();
  telemetry::Counter& fixpoints = reg.counter("engine.fixpoints");
  telemetry::Counter& applications = reg.counter("engine.applications");
  telemetry::Counter& gate_evals = reg.counter("fixpoint.gate_evals");
  telemetry::Counter& narrowings = reg.counter("engine.narrowings");
  telemetry::Counter& level_sweeps = reg.counter("fixpoint.level_sweeps");
  telemetry::Histogram& per_fixpoint =
      reg.histogram("engine.fixpoint_narrowings");

  telemetry::Counter& conflicts = reg.counter("engine.conflicts");
  telemetry::Counter& implication_scans =
      reg.counter("engine.implication_scans");
  telemetry::Counter& implication_narrowings =
      reg.counter("engine.implication_narrowings");
  // The two highest-rate histograms buffer non-atomically and flush at
  // drain exit (and on destruction).
  telemetry::LocalHistogram queue_depth{reg.histogram("engine.queue_depth")};
  telemetry::LocalHistogram narrowing_magnitude{
      reg.histogram("engine.narrowing_magnitude")};

  // High-water gauges: their `max` accumulates the whole-run peak even
  // though `value` is only the latest drain's.
  telemetry::Gauge& trail_high = reg.gauge("engine.trail_depth");
  telemetry::Gauge& queue_high = reg.gauge("engine.queue_depth");
  telemetry::Gauge& arena_high = reg.gauge("engine.arena_bytes");
  // Hardware counters of the drain, next to the stage-level "perf.stage.*".
  prof::RegistrySlot perf{reg, "fixpoint"};
};

/// One reach_fixpoint drain.
struct Drain {
  std::size_t queue;           // gates queued on entry
  std::uint64_t applications;  // gate evaluations
  std::uint64_t revisions;     // domain narrowings
  std::uint64_t sweeps;        // level sweeps
  bool possible;               // a violation is still possible
  std::size_t trail, peak_queue, arena_bytes;  // for the high-water gauges
  const prof::CounterDelta* perf;  // with prof::counters_enabled(), or null
};
void propagate(FixpointCounters& k, const Drain& d);

/// Indexed by flight::kCache* code.
struct CacheCounters {
  telemetry::Registry& reg = telemetry::Registry::current();
  telemetry::Counter* by_kind[3] = {&reg.counter("cache.hits"),
                                    &reg.counter("cache.misses"),
                                    &reg.counter("cache.dom_rebuilds")};
};
void cache(CacheCounters& k, std::uint8_t kind);

void gitd_round(telemetry::Counter& rounds, std::size_t narrowed);

struct StemCounters {
  telemetry::Registry& reg = telemetry::Registry::current();
  telemetry::Counter& processed = reg.counter("stem.stems_processed");
  telemetry::Counter& one_sided = reg.counter("stem.one_sided");
  telemetry::Counter& narrowed = reg.counter("stem.domains_narrowed");
};
/// A stem split ended with a flight::kStem* outcome.
void stem(StemCounters& k, std::string_view net, std::uint8_t outcome,
          std::size_t narrowed);

struct DelayCorrCounters {
  telemetry::Registry& reg = telemetry::Registry::current();
  telemetry::Counter& rounds = reg.counter("delay_corr.rounds");
  telemetry::Counter& gates_narrowed = reg.counter("delay_corr.gates_narrowed");
};
/// Trace and counters only: the ring has no record kind for it.
void delay_corr_round(DelayCorrCounters& k, std::size_t round,
                      std::size_t gates);

}  // namespace waveck::probe
