#include "prof/probe.hpp"

#include <limits>
#include <string>

#include "common/flight_recorder.hpp"
#include "prof/heartbeat.hpp"
#include "prof/profiler.hpp"

namespace waveck::probe {

namespace {

std::int64_t i64(std::size_t v) { return static_cast<std::int64_t>(v); }

/// Decisions and backtracks move the search to depth `depth` inside
/// decision `id`.
void at_depth(SearchCounters& k, std::int64_t id, std::size_t depth) {
  k.depth.set(i64(depth));
  if (prof::heartbeat_enabled()) prof::ActivityBoard::set_depth(i64(depth));
  telemetry::span_context().dec = id;
}

/// Conflicts and spurious vectors carry only the stack depth.
void depth_event(const char* ev, flight::Kind kind, std::size_t depth) {
  telemetry::emit(ev, {{"depth", depth}});
  flight::record(kind, {}, 0, i64(depth));
}

}  // namespace

CheckSpan::CheckSpan(std::string_view output, Time delta) : output_(output) {
  telemetry::Registry::current().counter("verify.checks").inc();
  const std::int64_t d =
      delta.is_pos_inf()   ? std::numeric_limits<std::int64_t>::max()
      : delta.is_neg_inf() ? std::numeric_limits<std::int64_t>::min()
                           : delta.value();
  telemetry::emit("check_begin", {{"output", output}, {"delta", d}});
  flight::record(flight::Kind::kCheckBegin, output, d);
  const char* mark = prof::intern_mark(output);
  telemetry::set_check_mark(mark);
  if (prof::heartbeat_enabled()) {
    prof::ActivityBoard::begin_check(mark, span_.id());
  }
}

void CheckSpan::end(std::uint8_t conclusion, double seconds,
                    const std::vector<bool>* witness) {
  telemetry::set_stage_mark(nullptr);
  telemetry::set_check_mark(nullptr);
  if (prof::heartbeat_enabled()) prof::ActivityBoard::end_check();
  const char* verdict = flight::conclusion_str(conclusion);
  telemetry::Registry::current()
      .counter(std::string("verify.conclusion.") + verdict)
      .inc();
  if (telemetry::TraceSink* sink = telemetry::trace_sink()) {
    // The witness rides along so offline consumers (the DOT exporter's
    // critical-path highlight) need no re-search.
    std::string vec;
    if (witness != nullptr) {
      for (const bool b : *witness) vec += b ? '1' : '0';
    }
    const telemetry::TraceField fields[] = {{"output", output_},
                                            {"conclusion", verdict},
                                            {"seconds", seconds},
                                            {"vector", vec}};
    sink->event("check_end", {fields, witness != nullptr ? 4u : 3u});
  }
  flight::record(flight::Kind::kCheckEnd, output_,
                 static_cast<std::int64_t>(seconds * 1e9), 0, conclusion);
}

void stage_begin(const char* stage) {
  telemetry::set_stage_mark(stage);
  if (prof::heartbeat_enabled()) prof::ActivityBoard::set_stage(stage);
  telemetry::emit("stage_begin", {{"stage", stage}});
  flight::record(flight::Kind::kStageBegin, stage);
}

void stage_end(const char* stage, std::uint8_t status) {
  telemetry::set_stage_mark(nullptr);
  telemetry::emit("stage_end", {{"stage", stage},
                                {"status", flight::stage_status_str(status)}});
  // Records carry only "-", "P" and "N": a case-analysis verdict of V or A
  // is recorded as "-".
  flight::record(flight::Kind::kStageEnd, stage, 0, 0,
                 status <= flight::kStageNoViolation ? status
                                                     : flight::kStageNotRun);
}

void decision(SearchCounters& k, std::int64_t id, std::int64_t parent,
              std::string_view net, bool cls, std::size_t depth) {
  k.decisions.inc();
  at_depth(k, id, depth);
  telemetry::emit("decision", {{"parent", parent},
                               {"net", net},
                               {"cls", cls},
                               {"depth", depth}});
  flight::record(flight::Kind::kDecision, net, parent, i64(depth), cls);
}

void decision_close(std::int64_t id, std::uint8_t outcome,
                    std::int64_t resume) {
  telemetry::span_context().dec = id;
  if (telemetry::trace_enabled()) {
    telemetry::emit("decision_close",
                    {{"outcome", flight::outcome_str(outcome)}});
  }
  flight::record(flight::Kind::kDecisionClose, {}, 0, 0, outcome);
  telemetry::span_context().dec = resume;
}

void backtrack(SearchCounters& k, std::int64_t id, std::string_view net,
               bool cls, std::size_t depth) {
  k.backtracks.inc();
  at_depth(k, id, depth);
  telemetry::emit("backtrack", {{"net", net}, {"cls", cls}, {"depth", depth}});
  flight::record(flight::Kind::kBacktrack, net, 0, i64(depth), cls);
}

void conflict(SearchCounters& k, std::size_t depth) {
  k.conflicts.inc();
  k.conflict_depth.observe(depth);
  depth_event("conflict", flight::Kind::kConflict, depth);
}

void spurious_vector(SearchCounters& k, std::size_t depth) {
  k.spurious.inc();
  depth_event("spurious_vector", flight::Kind::kSpurious, depth);
}

void propagate(FixpointCounters& k, const Drain& d) {
  k.fixpoints.inc();
  k.applications.add(d.applications);
  k.gate_evals.add(d.applications);
  k.narrowings.add(d.revisions);
  k.level_sweeps.add(d.sweeps);
  k.per_fixpoint.observe(d.revisions);
  if (d.perf != nullptr) k.perf.add(*d.perf);
  k.queue_depth.flush();
  k.narrowing_magnitude.flush();
  k.trail_high.set(i64(d.trail));
  k.queue_high.set(i64(d.peak_queue));
  k.arena_high.set(i64(d.arena_bytes));
  // Liveness tick for the --progress monitor: gate evaluations are the
  // engine's finest-grained forward-progress unit (+1 so even an empty
  // drain counts as life).
  if (prof::heartbeat_enabled()) prof::ActivityBoard::tick(d.applications + 1);
  const std::uint8_t status =
      d.possible ? flight::kPropagatePossible : flight::kPropagateNoViolation;
  if (telemetry::trace_enabled()) {
    telemetry::emit("propagate",
                    {{"queue", d.queue},
                     {"applications", d.applications},
                     {"revisions", d.revisions},
                     {"status", flight::propagate_status_str(status)}});
  }
  flight::record(flight::Kind::kPropagate, {},
                 static_cast<std::int64_t>(d.applications),
                 static_cast<std::int64_t>(d.revisions), status);
}

void cache(CacheCounters& k, std::uint8_t kind) {
  k.by_kind[kind]->inc();
  if (telemetry::trace_enabled()) {
    telemetry::emit("cache", {{"kind", flight::cache_kind_str(kind)}});
  }
  flight::record(flight::Kind::kCache, {}, 0, 0, kind);
}

void gitd_round(telemetry::Counter& rounds, std::size_t narrowed) {
  rounds.inc();
  telemetry::emit("gitd_round", {{"narrowed", narrowed}});
  flight::record(flight::Kind::kGitdRound, {}, i64(narrowed));
}

void stem(StemCounters& k, std::string_view net, std::uint8_t outcome,
          std::size_t narrowed) {
  k.processed.inc();
  if (outcome == flight::kStemOneSided) k.one_sided.inc();
  k.narrowed.add(narrowed);
  telemetry::emit("stem", {{"net", net},
                           {"outcome", flight::stem_outcome_str(outcome)},
                           {"narrowed", narrowed}});
  flight::record(flight::Kind::kStem, net, i64(narrowed), 0, outcome);
}

void delay_corr_round(DelayCorrCounters& k, std::size_t round,
                      std::size_t gates) {
  k.rounds.inc();
  k.gates_narrowed.add(gates);
  telemetry::emit("delay_corr_round",
                  {{"round", round}, {"gates_narrowed", gates}});
}

}  // namespace waveck::probe
