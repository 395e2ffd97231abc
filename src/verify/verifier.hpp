// Top-level timing verifier (paper Figure 4 plus the Section 5 stages).
//
// For a timing check sigma = (xi, s, delta) the verifier runs, in order:
//   1. waveform-narrowing fixpoint (with static-learning implications),
//   2. the global-implication loop on dynamic timing dominators (G.I.T.D.),
//   3. stem correlation on reconvergent dynamic-carrier stems,
//   4. FAN-based case analysis,
// recording the paper's Table 1 stage columns (P/N after each stage), the
// backtrack count, the test vector if one exists, and wall-clock time.
//
// Suite checks (one check per primary output) share a fixed plan and merge
// discipline — plan_suite_checks() + SuiteMerger — used identically by the
// serial `check_circuit` and the parallel scheduler in src/sched, which is
// what makes parallel suite reports bit-identical to serial ones (see
// doc/PARALLELISM.md for the determinism contract).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/carriers.hpp"
#include "analysis/learning.hpp"
#include "analysis/scoap.hpp"
#include "common/flight_recorder.hpp"
#include "prof/perf_counters.hpp"
#include "verify/case_analysis.hpp"

namespace waveck {

struct VerifyOptions {
  bool use_learning = true;
  /// Component delay correlation (reference [1]): narrow shared delay
  /// variables by relational interval arithmetic between the fixpoint
  /// stages. Only useful when DelaySpec::group ids are assigned; the check
  /// then runs on a private copy of the circuit (the narrowed intervals are
  /// check-specific).
  bool use_delay_correlation = false;
  bool use_dominators = true;        // stage 2 (G.I.T.D.)
  bool use_stem_correlation = true;  // stage 3
  std::size_t max_stems = SIZE_MAX;  // stage-3 cost cap for huge circuits
  bool use_case_analysis = true;     // stage 4
  /// Serve dynamic carriers / timing dominators from the incremental
  /// CarrierCache instead of recomputing per query. Pure optimisation:
  /// reports are identical either way (the `cache_equivalence` fuzz
  /// property enforces this); off switches every stage to the
  /// from-scratch functions.
  bool use_carrier_cache = true;
  /// Absolute monotonic deadline for each check (prof::monotonic_ns clock;
  /// 0 = none). Threaded into the fixpoint drain and the FAN decision loop;
  /// a check that outlives it concludes kAbandoned (never a wrong verdict —
  /// expiry only ever abandons). `waveck check --timeout-ms N` and the
  /// serve daemon's per-request deadlines both arrive here.
  std::uint64_t deadline_ns = 0;
  CaseAnalysisOptions case_analysis;
  LearningOptions learning;
};

enum class StageStatus : std::uint8_t {
  kNotRun,      // the paper's '-' (earlier stage already concluded)
  kPossible,    // 'P'
  kNoViolation  // 'N'
};

// The flight-record stage codes follow this declaration order, so the enum
// value doubles as the event code and the flight table renders it.
static_assert(static_cast<int>(StageStatus::kNotRun) == flight::kStageNotRun &&
              static_cast<int>(StageStatus::kPossible) ==
                  flight::kStagePossible &&
              static_cast<int>(StageStatus::kNoViolation) ==
                  flight::kStageNoViolation);
[[nodiscard]] inline const char* to_string(StageStatus s) {
  return flight::stage_status_str(static_cast<std::uint8_t>(s));
}

enum class CheckConclusion : std::uint8_t {
  kNoViolation,  // proved: s cannot transition at/after delta
  kViolation,    // test vector found
  kAbandoned,    // case-analysis budget exceeded (or check cancelled)
  kPossible,     // narrowing says possible; case analysis disabled
};

// Likewise for the flight-record conclusion codes.
static_assert(
    static_cast<int>(CheckConclusion::kNoViolation) == flight::kConclusionN &&
    static_cast<int>(CheckConclusion::kViolation) == flight::kConclusionV &&
    static_cast<int>(CheckConclusion::kAbandoned) == flight::kConclusionA &&
    static_cast<int>(CheckConclusion::kPossible) == flight::kConclusionP);
[[nodiscard]] inline const char* to_string(CheckConclusion c) {
  return flight::conclusion_str(static_cast<std::uint8_t>(c));
}

/// Wall time spent in each pipeline stage of a check (Table 1's cost
/// breakdown). Mirrored process-wide in the telemetry registry under the
/// "stage.*" timers.
struct StageSeconds {
  double narrowing = 0.0;      // stage 1 fixpoint (incl. initial domains)
  double gitd = 0.0;           // stage 2 dominator-implication loop
  double stem = 0.0;           // stage 3 stem correlation
  double case_analysis = 0.0;  // stage 4 FAN search
};

/// Scaled hardware-counter totals per pipeline stage (perf observatory,
/// src/prof). Slots mirror StageSeconds — delay correlation folds into
/// narrowing. Empty (any() == false) when prof::counters_enabled() was off
/// for the check; hw_valid == false on the wall-clock-only degraded path.
struct StagePerf {
  prof::CounterTotals narrowing;
  prof::CounterTotals gitd;
  prof::CounterTotals stem;
  prof::CounterTotals case_analysis;

  void add(const StagePerf& o) {
    narrowing.add(o.narrowing);
    gitd.add(o.gitd);
    stem.add(o.stem);
    case_analysis.add(o.case_analysis);
  }
  [[nodiscard]] bool any() const {
    return narrowing.any() || gitd.any() || stem.any() ||
           case_analysis.any();
  }
  [[nodiscard]] prof::CounterTotals total() const {
    prof::CounterTotals t;
    t.add(narrowing);
    t.add(gitd);
    t.add(stem);
    t.add(case_analysis);
    return t;
  }
};

/// Per-check record. The event tallies (backtracks, decisions, gitd_rounds,
/// stems_processed, correlated_delay_narrowings) are snapshots of the
/// telemetry registry counters taken around the check, so they always agree
/// with the process-wide metrics and the JSONL trace stream. (Under the
/// parallel scheduler each worker snapshots its own thread registry, so
/// the tallies stay attributable per check.)
struct CheckReport {
  TimingCheck check{};
  StageStatus before_gitd = StageStatus::kNotRun;
  StageStatus after_gitd = StageStatus::kNotRun;
  StageStatus after_stem = StageStatus::kNotRun;
  CheckConclusion conclusion = CheckConclusion::kPossible;
  std::size_t backtracks = 0;
  std::size_t decisions = 0;
  std::size_t gitd_rounds = 0;
  std::size_t stems_processed = 0;
  std::size_t correlated_delay_narrowings = 0;
  std::optional<std::vector<bool>> vector;  // indexed like Circuit::inputs()
  double seconds = 0.0;
  StageSeconds stage_seconds;
  StagePerf stage_perf;
};

/// Aggregate over every primary output (the paper's Table 1 row semantics:
/// a stage shows N only when it eliminates the violation on all outputs).
struct SuiteReport {
  Time delta{};
  StageStatus before_gitd = StageStatus::kNotRun;
  StageStatus after_gitd = StageStatus::kNotRun;
  StageStatus after_stem = StageStatus::kNotRun;
  CheckConclusion conclusion = CheckConclusion::kPossible;
  std::size_t backtracks = 0;
  std::optional<std::vector<bool>> vector;
  std::optional<NetId> violating_output;
  std::vector<CheckReport> per_output;
  double seconds = 0.0;
  StageSeconds stage_seconds;  // summed over per_output
  StagePerf stage_perf;        // summed over per_output
};

/// The fixed per-suite check order and the outputs STA alone dismisses.
/// Outputs are visited worst-topological-arrival first (a violation, if
/// any, is likeliest on the slowest output); `trivial[i]` marks outputs
/// whose arrival is already below delta. Serial and parallel suite runs
/// share this plan, so "lowest-indexed output" means the same thing in
/// both.
struct SuitePlan {
  Time delta{};
  std::vector<NetId> order;
  std::vector<bool> trivial;  // parallel to `order`
};
[[nodiscard]] SuitePlan plan_suite_checks(const Circuit& c, Time delta);

/// The report a trivially-safe output gets (STA arrival < delta): N before
/// G.I.T.D., no stage work. The paper's tool reaches the same N before
/// G.I.T.D. (no static carriers).
[[nodiscard]] CheckReport sta_trivial_report(NetId s, Time delta);

/// Order-driven fold of per-output CheckReports into a SuiteReport. Both
/// the serial `check_circuit` loop and the parallel CheckScheduler merge
/// through this class, feeding reports strictly in SuitePlan order, so the
/// aggregate stage statuses, conclusion precedence (V > A > P > N),
/// backtrack and stage_seconds sums, and the early stop at the first
/// (lowest-indexed) violating output are identical in both modes.
class SuiteMerger {
 public:
  explicit SuiteMerger(Time delta);

  /// Folds the next report in plan order. Returns false once the suite is
  /// settled (a violation was absorbed): callers stop feeding — reports
  /// for later outputs are discarded, exactly like the serial early break.
  bool add(CheckReport rep);

  [[nodiscard]] SuiteReport finish(double seconds) &&;

 private:
  SuiteReport suite_;
};

class Verifier {
 public:
  explicit Verifier(const Circuit& c, VerifyOptions opt = {});

  /// Single-output timing check (the paper's verify(xi, s, delta)).
  ///
  /// Thread safety: after `prepare_shared()` has returned, concurrent
  /// calls from multiple threads are safe — every check builds its own
  /// ConstraintSystem and trail, and the shared analyses are read-only.
  [[nodiscard]] CheckReport check_output(NetId s, Time delta);

  /// Two-vector transition-mode check: inputs carry exactly the v1 -> v2
  /// transition at time 0 (non-toggling inputs are constant). Same engine;
  /// only the input abstract waveforms change (paper Section 1).
  [[nodiscard]] CheckReport check_transition(NetId s, Time delta,
                                             const std::vector<bool>& v1,
                                             const std::vector<bool>& v2);

  /// Checks delta against every primary output. Outputs whose topological
  /// arrival is below delta are trivially N and skipped. Serial; the
  /// parallel equivalent is sched::CheckScheduler::check_circuit.
  [[nodiscard]] SuiteReport check_circuit(Time delta);

  struct ExactDelayResult {
    Time delay = Time::neg_inf();        // exact floating-mode delay
    Time topological = Time::neg_inf();  // STA bound, for comparison
    std::optional<std::vector<bool>> witness;
    std::optional<NetId> witness_output;
    std::size_t probes = 0;
    std::size_t total_backtracks = 0;
    bool exact = true;  // false if some probe was abandoned
  };
  /// Exact floating-mode circuit delay by adaptive binary search on delta,
  /// using found vectors' simulated settle times to jump the lower bound.
  [[nodiscard]] ExactDelayResult exact_floating_delay();
  /// Same search with an injected suite probe: the scheduler passes its
  /// parallel check_circuit here, so serial and parallel searches share
  /// one probing loop (and, with a deterministic probe, one trajectory).
  [[nodiscard]] ExactDelayResult exact_floating_delay(
      const std::function<SuiteReport(Time)>& probe);

  /// Forces every lazily computed shared analysis now (on the calling
  /// thread), so later `check_output` calls only read them. The parallel
  /// scheduler calls this once before fanning out workers.
  void prepare_shared();

  /// Installs (or clears, with nullptr) the cooperative cancellation flag
  /// polled by the case-analysis search; a cancelled check concludes
  /// kAbandoned. Used by sched::CheckScheduler's witness-only mode. Do not
  /// flip while checks are running on other threads unless that is the
  /// point (the flag itself is an atomic).
  void set_cancel_flag(const std::atomic<bool>* flag);

  /// Re-arms (or, with 0, clears) the per-check deadline for subsequent
  /// checks — the serve daemon's per-request path on a resident verifier.
  /// Only call between checks, never while checks run on other threads.
  void set_deadline_ns(std::uint64_t expiry_mono_ns);

  [[nodiscard]] const Circuit& circuit() const { return c_; }
  [[nodiscard]] const VerifyOptions& options() const { return opt_; }

  /// Lazily computed shared analyses (exposed for benches/tests).
  [[nodiscard]] const LearningResult& learning();
  [[nodiscard]] const Scoap& scoap();
  [[nodiscard]] const std::vector<NetId>& reconvergent_stems();

 private:
  /// `mutable_c` is non-null (and aliases `c`) when delay correlation may
  /// write narrowed intervals back. `input_override`, when non-null, gives
  /// the initial domain of each primary input (indexed like
  /// Circuit::inputs()) instead of the floating-mode default.
  CheckReport run_check(const Circuit& c, Circuit* mutable_c, NetId s,
                        Time delta,
                        const std::vector<AbstractSignal>* input_override =
                            nullptr);
  /// Stage pipeline of `run_check`; the wrapper owns timing, trace events
  /// and the registry-counter snapshots that fill the report tallies.
  CheckReport run_check_stages(const Circuit& c, Circuit* mutable_c, NetId s,
                               Time delta,
                               const std::vector<AbstractSignal>*
                                   input_override);

  const Circuit& c_;
  VerifyOptions opt_;
  std::optional<LearningResult> learning_;
  std::optional<Scoap> scoap_;
  std::optional<std::vector<NetId>> stems_;
};

/// Formats a vector as a 0/1 string in Circuit::inputs() order.
[[nodiscard]] std::string format_vector(const std::vector<bool>& v);

}  // namespace waveck
