#include "fuzz/engine.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/telemetry.hpp"
#include "gen/rng.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/delay_annotation.hpp"
#include "netlist/transforms.hpp"

namespace waveck::fuzz {

const std::vector<std::string>& known_profiles() {
  static const std::vector<std::string> kProfiles = {
      "mixed", "small", "mux", "falsepath", "xor", "wide", "unary_xor"};
  return kProfiles;
}

gen::StructuredCircuitConfig profile_config(const std::string& profile,
                                            std::uint64_t base_seed,
                                            std::size_t run) {
  gen::Rng rng(gen::mix_seed(base_seed, run));
  gen::StructuredCircuitConfig cfg;
  cfg.seed = gen::mix_seed(base_seed, run * 2 + 1);
  // Every profile varies size run-to-run; the profile fixes the *shape*.
  cfg.inputs = 6 + static_cast<unsigned>(rng.below(3));   // 6..8
  cfg.gates = 18 + static_cast<unsigned>(rng.below(25));  // 18..42
  cfg.outputs = 2 + static_cast<unsigned>(rng.below(3));
  cfg.delay_intervals = rng.chance(34);
  if (profile == "small") {
    cfg.inputs = 5 + static_cast<unsigned>(rng.below(2));
    cfg.gates = 10 + static_cast<unsigned>(rng.below(10));
    cfg.outputs = 1 + static_cast<unsigned>(rng.below(2));
  } else if (profile == "mux") {
    cfg.w_mux = 3;
  } else if (profile == "falsepath") {
    cfg.false_path_blocks = 1 + static_cast<unsigned>(rng.below(3));
    cfg.false_path_stages = 4 + static_cast<unsigned>(rng.below(6));
    cfg.reconvergence_percent = 75;
  } else if (profile == "xor") {
    // Narrowing-resistant: XOR has no controlling value, so the fixpoint
    // stages conclude little and the case analysis carries the weight.
    cfg.w_xor = 6;
    cfg.w_xnor = 4;
    cfg.w_and = 1;
    cfg.w_or = 1;
  } else if (profile == "unary_xor") {
    // One-input XOR/XNOR next to binary ones: the battery runs on the
    // decompose_for_solver form, which rewrites them as BUF/NOT.
    cfg.w_xor = 4;
    cfg.w_xnor = 3;
    cfg.unary_xor_percent = 40;
  } else if (profile == "wide") {
    cfg.inputs = 9 + static_cast<unsigned>(rng.below(3));  // 9..11
    cfg.gates = 40 + static_cast<unsigned>(rng.below(30));
    cfg.outputs = 3 + static_cast<unsigned>(rng.below(3));
  } else {
    // "mixed": rotate the special shapes through the run index so every
    // battery sees every circuit family.
    switch (run % 4) {
      case 1: cfg.w_mux = 2; break;
      case 2:
        cfg.false_path_blocks = 1 + static_cast<unsigned>(rng.below(2));
        cfg.false_path_stages = 4 + static_cast<unsigned>(rng.below(5));
        break;
      case 3: cfg.w_xor = 5; cfg.w_xnor = 3; break;
      default: break;
    }
  }
  return cfg;
}

namespace {

namespace fs = std::filesystem;

/// Writes `<stem>.bench`, `<stem>.delays`, `<stem>.repro` into `dir`.
std::string write_repro(const std::string& dir, const FuzzConfig& cfg,
                        const FuzzFailure& f) {
  fs::create_directories(dir);
  std::ostringstream stem;
  stem << "fuzz_" << to_string(f.property) << "_s" << cfg.seed << "_r"
       << f.run;
  const fs::path base = fs::path(dir) / stem.str();

  const fs::path bench = base.string() + ".bench";
  {
    std::ofstream os(bench);
    os << "# shrunk differential-fuzzing repro — see " << stem.str()
       << ".repro\n";
    write_bench(os, f.shrunk);
  }
  {
    std::ofstream os(base.string() + ".delays");
    os << "# delay annotation for " << stem.str() << ".bench\n";
    write_delays(os, f.shrunk);
  }
  {
    std::ofstream os(base.string() + ".repro");
    os << "property: " << to_string(f.property) << "\n"
       << "details: " << f.details << "\n"
       << "profile: " << cfg.profile << "\n"
       << "base_seed: " << cfg.seed << "\n"
       << "run: " << f.run << "\n"
       << "derived_seed: " << f.derived_seed << "\n"
       << "gates: " << f.shrunk.num_gates() << " (from " << f.gates_before
       << ")\n"
       << "replay: waveck_fuzz --seed " << cfg.seed << " --runs "
       << (f.run + 1) << " --profile " << cfg.profile << "\n"
       << "replay-one: waveck check " << stem.str() << ".bench <delta> "
       << stem.str() << ".delays\n";
  }
  return bench.string();
}

/// Detaches the process trace sink for the scope. The battery and the
/// shrinker execute thousands of internal verifier/scheduler probes whose
/// search events are (a) noise at campaign scale and (b) not reproducible
/// byte-for-byte — the parallel-determinism probe's workers race for
/// checks, so *which* worker emits how many events is timing-dependent
/// even though the merged report is not. Suppressing them keeps the
/// campaign trace to the engine's own fuzz_* events, which are identical
/// across same-seed runs (modulo the sink's "t" stamps).
class ScopedTraceSuppression {
 public:
  ScopedTraceSuppression() : saved_(telemetry::trace_sink()) {
    telemetry::set_trace_sink(nullptr);
  }
  ~ScopedTraceSuppression() { telemetry::set_trace_sink(saved_); }
  ScopedTraceSuppression(const ScopedTraceSuppression&) = delete;
  ScopedTraceSuppression& operator=(const ScopedTraceSuppression&) = delete;

 private:
  telemetry::TraceSink* saved_;
};

}  // namespace

FuzzSummary run_fuzz(const FuzzConfig& cfg) {
  auto& reg = telemetry::Registry::current();
  auto& c_runs = reg.counter("fuzz.runs");
  auto& c_failures = reg.counter("fuzz.failures");
  auto& c_props = reg.counter("fuzz.properties_checked");
  auto& c_skipped = reg.counter("fuzz.properties_skipped");
  auto& c_shrink_evals = reg.counter("fuzz.shrink_evals");
  auto& c_shrink_accepted = reg.counter("fuzz.shrink_accepted");
  auto& t_generate = reg.timer("fuzz.generate");
  auto& t_battery = reg.timer("fuzz.battery");
  auto& t_shrink = reg.timer("fuzz.shrink");

  FuzzSummary summary;
  const telemetry::StopWatch campaign;
  for (std::size_t run = 0; run < cfg.runs; ++run) {
    if (cfg.time_budget_seconds > 0 &&
        campaign.seconds() >= cfg.time_budget_seconds) {
      summary.time_budget_hit = true;
      break;
    }
    const auto gcfg = profile_config(cfg.profile, cfg.seed, run);
    Circuit c;
    {
      const telemetry::ScopedTimer st(t_generate);
      c = gen::structured_random_circuit(gcfg);
      if (gcfg.unary_xor_percent != 0) c = decompose_for_solver(c);
    }
    c_runs.inc();
    ++summary.runs_executed;
    telemetry::emit("fuzz_run",
                    {{"run", run},
                     {"seed", static_cast<std::int64_t>(gcfg.seed)},
                     {"gates", c.num_gates()},
                     {"inputs", c.inputs().size()},
                     {"outputs", c.outputs().size()}});

    BatteryOptions bopt = cfg.battery;
    bopt.salt = gcfg.seed;
    BatteryResult battery;
    {
      const telemetry::ScopedTimer st(t_battery);
      const ScopedTraceSuppression quiet;
      battery = run_battery(c, bopt);
    }
    for (const auto& r : battery.results) {
      c_props.inc();
      ++summary.properties_checked;
      if (r.skipped) {
        c_skipped.inc();
        ++summary.properties_skipped;
      }
    }
    const PropertyResult* failure = battery.first_failure();
    if (failure == nullptr) continue;

    c_failures.inc();
    telemetry::emit("fuzz_failure",
                    {{"run", run},
                     {"property", to_string(failure->property)},
                     {"details", failure->details}});

    FuzzFailure f;
    f.run = run;
    f.derived_seed = gcfg.seed;
    f.property = failure->property;
    f.details = failure->details;
    f.gates_before = c.num_gates();
    if (cfg.shrink) {
      const Property p = failure->property;
      const auto still_fails = [&](const Circuit& cand) {
        return !check_property(cand, p, bopt).ok;
      };
      ShrinkResult sres;
      {
        const telemetry::ScopedTimer st(t_shrink);
        const ScopedTraceSuppression quiet;
        sres = shrink_circuit(c, still_fails, cfg.shrink_options);
      }
      c_shrink_evals.add(sres.evals);
      c_shrink_accepted.add(sres.accepted);
      f.shrunk = std::move(sres.circuit);
      telemetry::emit("fuzz_shrunk", {{"run", run},
                                      {"gates_before", f.gates_before},
                                      {"gates_after", f.shrunk.num_gates()},
                                      {"evals", sres.evals},
                                      {"accepted", sres.accepted}});
    } else {
      f.shrunk = c;
    }
    if (!cfg.corpus_dir.empty()) {
      f.bench_path = write_repro(cfg.corpus_dir, cfg, f);
    }
    summary.failures.push_back(std::move(f));
    if (summary.failures.size() >= cfg.max_failures) break;
  }
  summary.seconds = campaign.seconds();
  telemetry::emit("fuzz_done", {{"runs", summary.runs_executed},
                                {"failures", summary.failures.size()}});
  return summary;
}

namespace {

bool parse_u64(const std::string& s, std::uint64_t* out) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) return false;
    *out = v;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

int fuzz_usage(std::ostream& err) {
  err << "usage: waveck_fuzz [options]\n"
         "  --seed N           base seed (default 1); every run derives its "
         "own stream\n"
         "  --runs N           circuits to generate and check (default 100)\n"
         "  --time-budget SEC  stop starting new runs after SEC seconds\n"
         "  --profile NAME     generator profile (default mixed): ";
  for (std::size_t i = 0; i < known_profiles().size(); ++i) {
    err << (i ? ", " : "") << known_profiles()[i];
  }
  err << "\n"
         "  --corpus-dir DIR   write shrunk repros (.bench/.delays/.repro) "
         "here\n"
         "  --jobs N           workers for the parallel-determinism check "
         "(default 2)\n"
         "  --max-inputs N     exhaustive-oracle input cap (default 14)\n"
         "  --max-failures N   stop after N failures (default 25)\n"
         "  --no-shrink        keep failing circuits full-size\n"
         "  --list-profiles    print profile names and exit\n"
         "exit status: 0 clean, 1 failures found, 2 usage error\n";
  return 2;
}

}  // namespace

int fuzz_cli_main(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  FuzzConfig cfg;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&](std::uint64_t* slot) {
      if (i + 1 >= args.size()) return false;
      return parse_u64(args[++i], slot);
    };
    std::uint64_t v = 0;
    if (a == "--seed" && value(&v)) {
      cfg.seed = v;
    } else if (a == "--runs" && value(&v)) {
      cfg.runs = v;
    } else if (a == "--time-budget" && i + 1 < args.size()) {
      try {
        cfg.time_budget_seconds = std::stod(args[++i]);
      } catch (const std::exception&) {
        err << "error: --time-budget needs seconds\n";
        return fuzz_usage(err);
      }
    } else if (a == "--profile" && i + 1 < args.size()) {
      cfg.profile = args[++i];
      bool known = false;
      for (const auto& p : known_profiles()) known = known || p == cfg.profile;
      if (!known) {
        err << "error: unknown profile '" << cfg.profile << "'\n";
        return fuzz_usage(err);
      }
    } else if (a == "--corpus-dir" && i + 1 < args.size()) {
      cfg.corpus_dir = args[++i];
    } else if (a == "--jobs" && value(&v)) {
      cfg.battery.jobs = v;
    } else if (a == "--max-inputs" && value(&v)) {
      cfg.battery.max_inputs = static_cast<unsigned>(v);
    } else if (a == "--max-failures" && value(&v)) {
      cfg.max_failures = v;
    } else if (a == "--no-shrink") {
      cfg.shrink = false;
    } else if (a == "--list-profiles") {
      for (const auto& p : known_profiles()) out << p << "\n";
      return 0;
    } else {
      err << "error: unknown or malformed option '" << a << "'\n";
      return fuzz_usage(err);
    }
  }

  const FuzzSummary s = run_fuzz(cfg);
  for (const auto& f : s.failures) {
    out << "FAIL run " << f.run << " seed " << f.derived_seed << " ["
        << to_string(f.property) << "] " << f.details << "\n";
    out << "  shrunk to " << f.shrunk.num_gates() << " gates (from "
        << f.gates_before << ")";
    if (!f.bench_path.empty()) out << " -> " << f.bench_path;
    out << "\n";
  }
  out << "fuzz: " << s.runs_executed << "/" << cfg.runs << " runs, "
      << s.properties_checked << " property checks ("
      << s.properties_skipped << " skipped), " << s.failures.size()
      << " failure" << (s.failures.size() == 1 ? "" : "s");
  if (s.time_budget_hit) out << ", time budget hit";
  out << " [" << std::fixed << s.seconds << "s]\n";
  return s.failures.empty() ? 0 : 1;
}

}  // namespace waveck::fuzz
