#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/carriers.hpp"
#include "analysis/learning.hpp"
#include "analysis/scoap.hpp"
#include "common/telemetry.hpp"
#include "constraints/constraint_system.hpp"
#include "constraints/level_kernel.hpp"
#include "gen/iscas_suite.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/delay_annotation.hpp"
#include "netlist/topo_delay.hpp"
#include "sim/floating_sim.hpp"
#include "spans.hpp"
#include "sta/sta.hpp"
#include "verify/verifier.hpp"

namespace wavebench {
namespace {

using namespace waveck;

// ----- workload definition ---------------------------------------------------

/// Every gate's delay, handed to the program as an annotation: a `.bench`
/// file carries no delays, so without it the circuits would run at delay 0.
constexpr const char* kDelayText = "* 10 10\n";
/// With a uniform gate delay every settle time is a multiple of it, so all
/// deltas in (k*10 - 10, k*10] pose the same question. A "class" is named by
/// its top delta; the seed picks the delta inside the class.
constexpr std::int64_t kClassWidth = gen::kPaperGateDelay;

const std::string kSearchCircuit = "c6288-analog";
/// Seeded rungs of the search ladder (class tops) ...
constexpr std::array<std::int64_t, 3> kSearchRungs = {1500, 1540, 1580};
/// ... plus this fixed rung: output p27 has a witness that settles at 1600,
/// above the 1570 that `exact_floating_delay` reports (its probes abandon).
constexpr std::int64_t kSearchWitnessed = 1600;
/// Sweep classes, in units of kClassWidth around each exact delay: k <= 0
/// holds delta_E itself (witness side), k > 0 lies above it (proof side).
constexpr std::array<std::int64_t, 8> kSweepClasses = {-3, -2, -1, 0,
                                                        1,  2,  3,  4};
/// Oneshot runs each circuit as this many ops, each with its own net-name
/// salt, so a pass has enough ops for a p90.
constexpr std::size_t kOneshotVariants = 10;
constexpr int kSetupRepeats = 3;
constexpr int kProbeRounds = 3;

enum class Kind { kSearch, kSweep, kOneshot };

// ----- small utilities -------------------------------------------------------

/// splitmix64: fully specified, so a seed means the same inputs on every
/// compiler and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t s_;
};

struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

// ----- inputs ----------------------------------------------------------------

struct CircuitInput {
  std::string label;                 // suite label, e.g. "c6288-analog"
  std::vector<std::string> texts;    // .bench texts handed to the program
  std::vector<std::string> outputs;  // unsalted output names, OUTPUT order
  std::int64_t top = 0;              // topological delay of the suite copy
  std::size_t budget = 0;            // case-analysis backtrack budget
};

/// `.bench` text in write_bench's line order (so a parse numbers the nets
/// the same way), with `salt` appended to every net name.
std::string bench_text(const Circuit& c, const std::string& salt) {
  std::ostringstream os;
  os << "# " << c.name() << "\n";
  for (NetId n : c.inputs()) os << "INPUT(" << c.net(n).name << salt << ")\n";
  for (NetId n : c.outputs()) {
    os << "OUTPUT(" << c.net(n).name << salt << ")\n";
  }
  for (GateId g : c.topo_order()) {
    const Gate& gate = c.gate(g);
    os << c.net(gate.out).name << salt << " = " << to_string(gate.type)
       << "(";
    for (std::size_t i = 0; i < gate.ins.size(); ++i) {
      if (i) os << ", ";
      os << c.net(gate.ins[i]).name << salt;
    }
    os << ")\n";
  }
  return os.str();
}

bool in_workload(Kind kind, const std::string& label) {
  return (kind == Kind::kSearch) == (label == kSearchCircuit);
}

/// Generates the workload's circuits: the Table-1 suite, NOR-mapped with
/// delay 10 per gate, written out as `.bench` text.
std::vector<CircuitInput> make_inputs(Kind kind, const std::string& salt) {
  std::vector<CircuitInput> out;
  for (const gen::SuiteEntry& e : gen::table1_suite()) {
    if (!in_workload(kind, e.name)) continue;
    CircuitInput in;
    in.label = e.name;
    const std::size_t variants = kind == Kind::kOneshot ? kOneshotVariants : 1;
    for (std::size_t v = 0; v < variants; ++v) {
      in.texts.push_back(
          bench_text(e.circuit, salt + static_cast<char>('a' + v)));
    }
    for (NetId n : e.circuit.outputs()) {
      in.outputs.push_back(e.circuit.net(n).name);
    }
    in.top = topological_delay(e.circuit).value();
    in.budget = e.max_backtracks;
    out.push_back(std::move(in));
  }
  return out;
}

std::unique_ptr<Circuit> parse(const CircuitInput& in, SpanRecorder* rec,
                               std::size_t variant = 0) {
  std::unique_ptr<Circuit> c;
  {
    ScopedSpan s(rec, "netlist.read_bench");
    c = std::make_unique<Circuit>(
        read_bench_string(in.texts.at(variant), in.label));
  }
  {
    ScopedSpan s(rec, "netlist.read_delays");
    read_delays_string(kDelayText, *c);
  }
  return c;
}

/// The delays must have reached the program: a parsed circuit whose
/// topological delay differs from the generated one would make every
/// timing meaningless (an unannotated c6288 checks in ~2 ms, never abandons).
void guard_delays(const Circuit& c, const CircuitInput& in) {
  const Time top = topological_delay(c);
  if (!top.is_finite() || top.value() != in.top) {
    std::ostringstream os;
    os << in.label << ": loaded topological delay " << top
       << " != generated " << in.top << " (delays did not reach the program)";
    throw std::runtime_error(os.str());
  }
}

VerifyOptions verify_options(std::size_t budget) {
  VerifyOptions o;
  o.case_analysis.max_backtracks = budget;
  o.max_stems = 512;  // as the Table-1 harness
  return o;
}

// ----- expected results ------------------------------------------------------

/// One delays.tsv row. Kind 'E' is an exact delay (what exact_floating_delay
/// must return); 'L' is a lower bound witnessed by a replayed vector, kept
/// for the search circuit, whose delay search abandons probes and whose
/// reported delay is therefore neither exact nor an upper bound.
struct ExpectedDelay {
  std::int64_t delay = 0;
  char kind = 'E';
  std::string fingerprint;
};

struct Expected {
  std::map<std::string, std::string> checks;  // check_key -> fingerprint
  std::map<std::string, ExpectedDelay> delays;
};

std::string check_key(const std::string& label, const std::string& output,
                      std::int64_t cls) {
  return label + " " + output + " " + std::to_string(cls);
}

std::vector<std::vector<std::string>> read_table(const std::string& path,
                                                 std::size_t columns) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::vector<std::string> row;
    for (std::string tok; ls >> tok;) row.push_back(tok);
    if (row.size() != columns) {
      throw std::runtime_error(path + ": malformed line: " + line);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Expected load_expected(const std::string& dir) {
  Expected e;
  for (auto& r : read_table(dir + "/checks.tsv", 4)) {
    e.checks[check_key(r[0], r[1], std::stoll(r[2]))] = r[3];
  }
  for (auto& r : read_table(dir + "/delays.tsv", 4)) {
    if (r[2] != "E" && r[2] != "L") {
      throw std::runtime_error(dir + "/delays.tsv: kind must be E or L");
    }
    e.delays[r[0]] = {std::stoll(r[1]), r[2][0], r[3]};
  }
  return e;
}

std::string witness_hash(const std::vector<bool>& v) {
  return hex16(fnv1a(format_vector(v)));
}

/// Conclusion, the three stage statuses, backtracks and witness bits.
std::string check_fingerprint(const CheckReport& r) {
  std::ostringstream os;
  os << to_string(r.conclusion) << to_string(r.before_gitd)
     << to_string(r.after_gitd) << to_string(r.after_stem) << "/"
     << r.backtracks << "/" << (r.vector ? witness_hash(*r.vector) : "-");
  return os.str();
}

/// The latest settle time over all outputs under `vector`: the delay a
/// witness of exact_floating_delay demonstrates (as `waveck delay` prints).
Time latest_settle(const Circuit& c, const std::vector<bool>& vector) {
  const FloatingResult sim = simulate_floating(c, vector);
  Time settle = Time::neg_inf();
  for (NetId o : c.outputs()) settle = Time::max(settle, sim.settle[o.index()]);
  return settle;
}

std::size_t output_index(const Circuit& c, NetId n) {
  const auto& outs = c.outputs();
  return static_cast<std::size_t>(std::find(outs.begin(), outs.end(), n) -
                                  outs.begin());
}

/// Probes, backtracks, witness output and witness bits of a delay search.
std::string delay_fingerprint(const Circuit& c, const CircuitInput& in,
                              const Verifier::ExactDelayResult& r) {
  std::string s = std::to_string(r.probes) + "/" +
                  std::to_string(r.total_backtracks) + "/";
  if (r.witness && r.witness_output) {
    s += in.outputs.at(output_index(c, *r.witness_output)) + "/" +
         witness_hash(*r.witness);
  } else {
    s += "-/-";
  }
  return s;
}

// ----- ops -------------------------------------------------------------------

struct Op {
  std::size_t circuit = 0;
  std::size_t output = 0;   // index into CircuitInput::outputs (checks)
  std::size_t variant = 0;  // index into CircuitInput::texts (oneshot)
  std::int64_t delta = 0;   // checks only
  std::int64_t cls = 0;     // class top of delta (checks only)
};

std::int64_t delta_in_class(std::int64_t cls, Rng& rng) {
  return cls - static_cast<std::int64_t>(
                   rng.below(static_cast<std::uint64_t>(kClassWidth)));
}

std::vector<Op> make_ops(Kind kind, const std::vector<CircuitInput>& inputs,
                         const Expected& exp, Rng& rng) {
  std::vector<Op> ops;
  if (kind == Kind::kSearch) {
    std::vector<std::pair<std::int64_t, std::int64_t>> ladder;  // delta, cls
    for (std::int64_t rung : kSearchRungs) {
      ladder.emplace_back(delta_in_class(rung, rng), rung);
    }
    ladder.emplace_back(kSearchWitnessed, kSearchWitnessed);
    for (std::size_t o = 0; o < inputs[0].outputs.size(); ++o) {
      for (auto [delta, cls] : ladder) {
        ops.push_back({.circuit = 0, .output = o, .delta = delta, .cls = cls});
      }
    }
  } else if (kind == Kind::kSweep) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::int64_t de = exp.delays.at(inputs[i].label).delay;
      for (std::size_t o = 0; o < inputs[i].outputs.size(); ++o) {
        for (std::int64_t k : kSweepClasses) {
          const std::int64_t cls = de + k * kClassWidth;
          ops.push_back({.circuit = i, .output = o,
                         .delta = delta_in_class(cls, rng), .cls = cls});
        }
      }
    }
  } else {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      for (std::size_t v = 0; v < inputs[i].texts.size(); ++v) {
        ops.push_back({.circuit = i, .variant = v});
      }
    }
  }
  rng.shuffle(ops);
  return ops;
}

struct Outcome {
  double seconds = 0.0;
  CheckReport report;  // search / sweep
  // oneshot
  std::int64_t delay = 0;
  std::int64_t topological = 0;
  bool exact = false;
  std::size_t probes = 0;
  std::optional<std::int64_t> witness_settle;
  std::string fingerprint;
};

// ----- registry counters -----------------------------------------------------

constexpr std::array<const char*, 12> kCounterNames = {
    "search.decisions",     "search.backtracks",  "search.conflicts",
    "gitd.rounds",          "stem.stems_processed", "cache.hits",
    "cache.misses",         "cache.dom_rebuilds", "fixpoint.gate_evals",
    "fixpoint.level_sweeps", "fixpoint.simd_batches", "engine.narrowings"};
constexpr std::array<const char*, 4> kStageTimers = {
    "stage.narrowing", "stage.gitd", "stage.stem", "stage.case_analysis"};

struct Snapshot {
  std::array<std::uint64_t, kCounterNames.size()> counters{};
  std::array<std::uint64_t, kStageTimers.size()> timer_ns{};

  [[nodiscard]] double counter(std::string_view name) const {
    for (std::size_t i = 0; i < kCounterNames.size(); ++i) {
      if (name == kCounterNames[i]) return static_cast<double>(counters[i]);
    }
    throw std::logic_error("unknown counter");
  }
};

/// Reads the registry counters the per-layer metrics need; metric objects
/// are looked up once, so a read is a handful of relaxed loads.
class CounterReader {
 public:
  CounterReader() {
    auto& reg = telemetry::Registry::current();
    for (std::size_t i = 0; i < kCounterNames.size(); ++i) {
      counters_[i] = &reg.counter(kCounterNames[i]);
    }
    for (std::size_t i = 0; i < kStageTimers.size(); ++i) {
      timers_[i] = &reg.timer(kStageTimers[i]);
    }
  }
  [[nodiscard]] Snapshot read() const {
    Snapshot s;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      s.counters[i] = counters_[i]->value();
    }
    for (std::size_t i = 0; i < timers_.size(); ++i) {
      s.timer_ns[i] = timers_[i]->total_ns();
    }
    return s;
  }
  static Snapshot delta(const Snapshot& a, const Snapshot& b) {
    Snapshot d;
    for (std::size_t i = 0; i < d.counters.size(); ++i) {
      d.counters[i] = b.counters[i] - a.counters[i];
    }
    for (std::size_t i = 0; i < d.timer_ns.size(); ++i) {
      d.timer_ns[i] = b.timer_ns[i] - a.timer_ns[i];
    }
    return d;
  }

 private:
  std::array<const telemetry::Counter*, kCounterNames.size()> counters_{};
  std::array<const telemetry::StageTimer*, kStageTimers.size()> timers_{};
};

// ----- the workload ----------------------------------------------------------

struct Loaded {
  std::unique_ptr<Circuit> circuit;
  std::unique_ptr<Verifier> verifier;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  Bench(Kind kind, const std::string& expected_dir)
      : kind_(kind), expected_(load_expected(expected_dir)) {}

  /// Everything before the first timed op: input generation and the delay
  /// guard, and for the warm workloads the Verifiers and prepare_shared.
  void setup(const std::string& salt, SpanRecorder* rec) {
    inputs_ = make_inputs(kind_, salt);
    loaded_.clear();
    if (kind_ == Kind::kOneshot) {
      // Oneshot parses inside its ops; the guard parses every text here.
      for (const CircuitInput& in : inputs_) {
        for (std::size_t v = 0; v < in.texts.size(); ++v) {
          guard_delays(*parse(in, rec, v), in);
        }
      }
      return;
    }
    for (const CircuitInput& in : inputs_) {
      Loaded l;
      l.circuit = parse(in, rec);
      guard_delays(*l.circuit, in);
      l.verifier =
          std::make_unique<Verifier>(*l.circuit, verify_options(in.budget));
      ScopedSpan s(rec, "verify.prepare_shared");
      l.verifier->prepare_shared();
      loaded_.push_back(std::move(l));
    }
  }

  [[nodiscard]] const std::vector<CircuitInput>& inputs() const {
    return inputs_;
  }
  [[nodiscard]] const Expected& expected() const { return expected_; }

  Outcome execute(const Op& op, SpanRecorder* rec) const {
    Outcome out;
    if (kind_ != Kind::kOneshot) {
      const Loaded& l = loaded_[op.circuit];
      const NetId s = l.circuit->outputs()[op.output];
      const std::uint64_t t0 = now_ns();
      {
        ScopedSpan span(rec, "verify.check_output");
        out.report = l.verifier->check_output(s, Time(op.delta));
      }
      out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
      return out;
    }
    // The cold `waveck delay` flow. Teardown is not timed.
    const CircuitInput& in = inputs_[op.circuit];
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<Circuit> c = parse(in, rec, op.variant);
    Verifier v(*c, verify_options(in.budget));
    {
      ScopedSpan span(rec, "verify.prepare_shared");
      v.prepare_shared();
    }
    Verifier::ExactDelayResult res;
    {
      ScopedSpan span(rec, "verify.exact_floating_delay");
      res = v.exact_floating_delay();
    }
    if (res.witness) {
      ScopedSpan span(rec, "sim.simulate_floating");
      const Time settle = latest_settle(*c, *res.witness);
      if (settle.is_finite()) out.witness_settle = settle.value();
    }
    out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    const auto value = [](Time t) { return t.is_finite() ? t.value() : -1; };
    out.delay = value(res.delay);
    out.topological = value(res.topological);
    out.exact = res.exact;
    out.probes = res.probes;
    out.fingerprint = delay_fingerprint(*c, in, res);
    return out;
  }

  /// The correctness gate for one op. Throws GateFailure on any mismatch.
  void gate(const Op& op, const Outcome& out, SpanRecorder* rec) {
    const CircuitInput& in = inputs_[op.circuit];
    if (kind_ == Kind::kOneshot) {
      const auto it = expected_.delays.find(in.label);
      if (it == expected_.delays.end()) {
        throw GateFailure(in.label + ": no expected delay");
      }
      const ExpectedDelay& e = it->second;
      std::ostringstream why;
      if (out.topological != in.top) {
        why << "topological delay " << out.topological << " != " << in.top;
      } else if (out.delay != e.delay || !out.exact || e.kind != 'E') {
        why << "delay " << out.delay << (out.exact ? "E" : "U")
            << " != expected " << e.delay << e.kind;
      } else if (out.fingerprint != e.fingerprint) {
        why << "fingerprint " << out.fingerprint << " != expected "
            << e.fingerprint;
      } else if (!out.witness_settle || *out.witness_settle != out.delay) {
        why << "witness replay settles at "
            << (out.witness_settle ? std::to_string(*out.witness_settle)
                                   : std::string("-"))
            << ", not at the delay " << out.delay;
      }
      if (!why.str().empty()) throw GateFailure(in.label + ": " + why.str());
      return;
    }
    const Loaded& l = loaded_[op.circuit];
    const CheckReport& r = out.report;
    const std::string key = check_key(in.label, in.outputs[op.output], op.cls);
    const std::string where = key + " (delta " + std::to_string(op.delta) + ")";
    const auto it = expected_.checks.find(key);
    if (it == expected_.checks.end()) {
      throw GateFailure(where + ": no expected fingerprint");
    }
    const std::string fp = check_fingerprint(r);
    if (fp != it->second) {
      throw GateFailure(where + ": fingerprint " + fp + " != expected " +
                        it->second);
    }
    const auto out_key = std::make_pair(op.circuit, op.output);
    if (r.conclusion == CheckConclusion::kViolation) {
      if (!r.vector) throw GateFailure(where + ": V without a vector");
      ScopedSpan span(rec, "sim.simulate_floating");
      const Time settle = simulate_floating(*l.circuit, *r.vector)
                              .settle[l.circuit->outputs()[op.output].index()];
      if (!(settle >= Time(op.delta))) {
        std::ostringstream os;
        os << where << ": witness replays to settle " << settle;
        throw GateFailure(os.str());
      }
      auto [w, fresh] = witnessed_.try_emplace(out_key, settle.value());
      if (!fresh) w->second = std::max(w->second, settle.value());
    } else if (r.conclusion == CheckConclusion::kNoViolation) {
      auto [p, fresh] = proved_.try_emplace(out_key, op.delta);
      if (!fresh) p->second = std::min(p->second, op.delta);
    }
  }

  /// Soundness across ops: no output may be proved N at a delta that some
  /// replayed witness of the same output reaches.
  void cross_check() const {
    for (const auto& [key, proved] : proved_) {
      const auto w = witnessed_.find(key);
      if (w != witnessed_.end() && proved <= w->second) {
        const CircuitInput& in = inputs_[key.first];
        throw GateFailure(in.label + " " + in.outputs[key.second] +
                          ": proved N at delta " + std::to_string(proved) +
                          " but a witness settles at " +
                          std::to_string(w->second));
      }
    }
  }

  /// The search circuit's witnessed lower bound must still be reached once
  /// the op that witnesses it (fingerprint "<output>/<hash>") has run.
  void check_lower_bound(const std::vector<Op>& ops) const {
    const auto it = expected_.delays.find(kSearchCircuit);
    if (kind_ != Kind::kSearch || it == expected_.delays.end()) return;
    const std::string output =
        it->second.fingerprint.substr(0, it->second.fingerprint.find('/'));
    const bool witness_ran =
        std::any_of(ops.begin(), ops.end(), [&](const Op& op) {
          return op.cls == kSearchWitnessed &&
                 inputs_[op.circuit].outputs[op.output] == output;
        });
    if (!witness_ran) return;
    const auto best = best_witness();
    if (!best || best->second < it->second.delay) {
      throw GateFailure(kSearchCircuit + ": no witness reaches the recorded "
                        "lower bound " + std::to_string(it->second.delay));
    }
  }

  /// Largest replayed settle time over the search circuit's witnesses.
  [[nodiscard]] std::optional<std::pair<std::string, std::int64_t>>
  best_witness() const {
    std::optional<std::pair<std::string, std::int64_t>> best;
    for (const auto& [key, settle] : witnessed_) {
      if (!best || settle > best->second) {
        best.emplace(inputs_[key.first].outputs[key.second], settle);
      }
    }
    return best;
  }

  /// Standalone calls into each module's public functions, one span each.
  /// Returns the learned-implication count over the workload's circuits.
  std::size_t probe_round(SpanRecorder& rec) const {
    std::size_t implications = 0;
    for (const CircuitInput& in : inputs_) {
      ScopedSpan circuit_span(&rec, "probe." + in.label);
      const std::unique_ptr<Circuit> c = parse(in, &rec);
      {
        ScopedSpan s(&rec, "sta.run_sta");
        (void)run_sta(*c);
      }
      LearningResult lr;
      {
        ScopedSpan s(&rec, "analysis.learn_implications");
        lr = learn_implications(*c, LearningOptions{});
      }
      implications += lr.table.size();
      {
        ScopedSpan s(&rec, "analysis.compute_scoap");
        (void)compute_scoap(*c);
      }
      const Time delta(kind_ == Kind::kSearch
                           ? kSearchWitnessed
                           : expected_.delays.at(in.label).delay);
      for (NetId out : c->outputs()) {
        std::optional<ConstraintSystem> cs;
        bool consistent = false;
        {
          ScopedSpan s(&rec, "constraints.fixpoint");
          cs.emplace(*c);
          cs->set_implications(&lr.table);
          for (NetId pi : c->inputs()) {
            cs->restrict_domain(pi, AbstractSignal::floating_input());
          }
          cs->restrict_domain(out, AbstractSignal::violating(delta));
          for (const auto& [net, cls] : lr.impossible) {
            cs->restrict_domain(net, AbstractSignal::class_only(!cls));
          }
          cs->schedule_all();
          consistent = cs->reach_fixpoint() ==
                       ConstraintSystem::Status::kPossibleViolation;
        }
        if (!consistent) continue;
        ScopedSpan s(&rec, "analysis.timing_dominators");
        const TimingCheck check{out, delta};
        const CarrierSet carriers = dynamic_carriers(*cs, check);
        (void)timing_dominators(*c, check, carriers);
      }
    }
    return implications;
  }

 private:
  Kind kind_;
  Expected expected_;
  std::vector<CircuitInput> inputs_;
  std::vector<Loaded> loaded_;
  std::map<std::pair<std::size_t, std::size_t>, std::int64_t> witnessed_;
  std::map<std::pair<std::size_t, std::size_t>, std::int64_t> proved_;
};

// ----- reporting -------------------------------------------------------------

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string provenance_json(const Options& opt) {
  std::ostringstream os;
  const auto q = [](const std::string& s) {
    std::ostringstream quoted;
    quoted << '"' << telemetry::json_escape(s) << '"';
    return quoted.str();
  };
  os << "{\"workload\":" << q(opt.workload) << ",\"seed\":" << opt.seed
     << ",\"git_sha\":" << q(opt.git_sha)
     << ",\"src_digest\":" << q(opt.src_digest)
     << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"cpu_model\":" << q(cpu_model())
     << ",\"build_type\":" << q(WAVEBENCH_BUILD_TYPE)
     << ",\"simd_compiled\":" << (simd_compiled() ? "true" : "false")
     << ",\"simd_supported\":" << (simd_supported() ? "true" : "false")
     << ",\"simd_enabled\":" << (simd_enabled() ? "true" : "false")
     // active_kernel_table() dispatches to the AVX2 set iff simd_enabled().
     << ",\"kernel_table\":" << q(simd_enabled() ? "avx2" : "scalar")
     << "}";
  return os.str();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << fmt(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(16) << fmt(m.value).substr(0, 12) << " " << m.unit
              << "\n";
  }
}

struct GateLog {
  std::size_t failed = 0;
  void fail(const std::string& why) {
    if (++failed <= 5) std::cerr << "correctness gate: " << why << "\n";
  }
};

std::string make_salt(Rng& rng) {
  std::string s = "_";
  for (int i = 0; i < 4; ++i) s += static_cast<char>('a' + rng.below(26));
  return s;
}

Kind parse_kind(const std::string& w) {
  if (w == "search") return Kind::kSearch;
  if (w == "sweep") return Kind::kSweep;
  if (w == "oneshot") return Kind::kOneshot;
  throw std::invalid_argument("unknown workload '" + w +
                              "' (search, sweep or oneshot)");
}

// ----- untraced run: the end-to-end metrics ----------------------------------

int run_untraced(Kind kind, const Options& opt) {
  Bench bench(kind, opt.expected_dir);
  Rng rng(opt.seed);
  const std::string salt = make_salt(rng);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::uint64_t t0 = now_ns();
    bench.setup(salt, nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  std::vector<Op> ops = make_ops(kind, bench.inputs(), bench.expected(), rng);
  if (opt.max_ops != 0 && ops.size() > opt.max_ops) ops.resize(opt.max_ops);

  // Every pass runs the whole op list; an op's latency is its best pass.
  // Other tenants of a shared machine slow whole stretches of seconds, so
  // the best of several passes spread over the run is the steady figure.
  GateLog log;
  std::vector<double> best_ms(ops.size(), HUGE_VAL);
  std::vector<double> pass_ms(ops.size());
  std::vector<double> pass_p50_ms;
  std::size_t attempted = 0;
  std::size_t decided = 0;
  const std::uint64_t start = now_ns();
  for (;;) {
    const std::uint64_t pass_start = now_ns();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Outcome out = bench.execute(ops[i], nullptr);
      pass_ms[i] = out.seconds * 1e3;
      best_ms[i] = std::min(best_ms[i], pass_ms[i]);
      ++attempted;
      decided += kind == Kind::kOneshot
                     ? out.exact
                     : out.report.conclusion != CheckConclusion::kAbandoned;
      try {
        bench.gate(ops[i], out, nullptr);
      } catch (const GateFailure& e) {
        log.fail(e.what());
      }
    }
    pass_p50_ms.push_back(percentile(pass_ms, 0.5));
    // Stop when one more pass would end further past the deadline than
    // stopping now falls short of it.
    const std::uint64_t now = now_ns();
    const double elapsed = static_cast<double>(now - start) * 1e-9;
    const double pass = static_cast<double>(now - pass_start) * 1e-9;
    if (elapsed + pass / 2 > opt.seconds) break;
  }
  try {
    bench.cross_check();
    bench.check_lower_bound(ops);
  } catch (const GateFailure& e) {
    log.fail(e.what());
  }

  double best_total_s = 0.0;
  for (double ms : best_ms) best_total_s += ms * 1e-3;
  const std::size_t n = best_ms.size();
  const std::vector<Metric> metrics = {
      {"ops_per_s", ratio(static_cast<double>(n), best_total_s), "1/s"},
      {"op_p50_ms", percentile(best_ms, 0.5), "ms"},
      {"op_p90_ms", percentile(best_ms, 0.9), "ms"},
      {"decided_frac",
       ratio(static_cast<double>(decided), static_cast<double>(attempted)),
       "ratio"},
      {"setup_s", median(setup_s), "s"},
      {"rss_peak_mb", rss_peak_mb(), "MB"},
  };
  std::cout << "wavebench " << opt.workload << " seed " << opt.seed << ": "
            << attempted << " ops in " << pass_p50_ms.size()
            << " passes; p50 and p90 over n=" << n
            << " per-op best latencies ("
            << n - static_cast<std::size_t>(
                       std::ceil(0.9 * static_cast<double>(n - 1)))
            << " beyond p90); setup_s median of " << kSetupRepeats << "\n";
  std::cout << "  delay guard: loaded topological delays";
  for (const CircuitInput& in : bench.inputs()) {
    std::cout << " " << in.label << "=" << in.top;
  }
  std::cout << "\n  per-pass p50 ms:";
  for (double ms : pass_p50_ms) std::cout << " " << fmt(ms).substr(0, 6);
  std::cout << "\n";
  if (kind == Kind::kSearch) {
    if (const auto best = bench.best_witness()) {
      std::cout << "  " << kSearchCircuit << ": delay >= " << best->second
                << " witnessed (output " << best->first
                << "); a lower bound, not an upper one\n";
    }
  }
  print_metrics(metrics);
  std::cout << "{\"provenance\": " << provenance_json(opt) << "}\n";
  print_result(log.failed == 0, attempted, log.failed, metrics);
  return log.failed == 0 ? 0 : 1;
}

// ----- traced run: the per-layer metrics -------------------------------------

void print_span_table(const std::string& title,
                      const std::map<std::string, SpanTotals>& totals,
                      double per) {
  std::cout << "  " << title << " (calls, total ms, self ms)\n";
  for (const auto& [name, t] : totals) {
    std::cout << "    " << std::left << std::setw(32) << name << std::right
              << std::setw(8) << static_cast<double>(t.count) / per
              << std::setw(14) << fmt(t.total_ms / per).substr(0, 10)
              << std::setw(14) << fmt(t.self_ms / per).substr(0, 10) << "\n";
  }
}

double self_of(const std::map<std::string, SpanTotals>& totals,
               std::initializer_list<const char*> names) {
  double ms = 0.0;
  for (const char* n : names) {
    const auto it = totals.find(n);
    if (it != totals.end()) ms += it->second.self_ms;
  }
  return ms;
}

int run_traced(Kind kind, const Options& opt) {
  Bench bench(kind, opt.expected_dir);
  Rng rng(opt.seed);
  const std::string salt = make_salt(rng);
  SpanRecorder rec;
  const std::size_t root = rec.open("workload." + opt.workload);
  {
    ScopedSpan phase(&rec, "phase.setup");
    bench.setup(salt, &rec);
  }
  std::vector<Op> ops = make_ops(kind, bench.inputs(), bench.expected(), rng);
  if (opt.max_ops != 0 && ops.size() > opt.max_ops) ops.resize(opt.max_ops);

  // One untraced and one traced pass over the same op list, so the
  // overhead ratio compares identical work.
  GateLog log;
  std::vector<Outcome> plain;
  plain.reserve(ops.size());
  const std::uint64_t t0 = now_ns();
  for (const Op& op : ops) plain.push_back(bench.execute(op, nullptr));
  const double untraced_s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    try {
      bench.gate(ops[i], plain[i], nullptr);
    } catch (const GateFailure& e) {
      log.fail(e.what());
    }
  }

  const CounterReader counters;
  const Snapshot start = counters.read();
  StageSeconds stages;
  std::size_t probes = 0;
  std::vector<Outcome> traced;
  traced.reserve(ops.size());
  std::size_t ops_phase = 0;
  {
    ScopedSpan phase(&rec, "phase.ops");
    ops_phase = phase.id();
    for (const Op& op : ops) {
      ScopedSpan op_span(&rec, "op");
      const Snapshot before = counters.read();
      Outcome out = bench.execute(op, &rec);
      const Snapshot d = CounterReader::delta(before, counters.read());
      for (std::size_t i = 0; i < kCounterNames.size(); ++i) {
        if (d.counters[i] != 0) {
          rec.annotate(op_span.id(), kCounterNames[i], d.counters[i]);
        }
      }
      stages.narrowing += out.report.stage_seconds.narrowing;
      stages.gitd += out.report.stage_seconds.gitd;
      stages.stem += out.report.stage_seconds.stem;
      stages.case_analysis += out.report.stage_seconds.case_analysis;
      probes += out.probes;
      traced.push_back(std::move(out));
    }
  }
  const double traced_s = rec.duration_ms(ops_phase) * 1e-3;
  const Snapshot totals = CounterReader::delta(start, counters.read());
  std::size_t gate_phase = 0;
  {
    ScopedSpan phase(&rec, "phase.gate");
    gate_phase = phase.id();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ScopedSpan g(&rec, "gate");
      try {
        bench.gate(ops[i], traced[i], &rec);
      } catch (const GateFailure& e) {
        log.fail(e.what());
      }
    }
    try {
      bench.cross_check();
      bench.check_lower_bound(ops);
    } catch (const GateFailure& e) {
      log.fail(e.what());
    }
  }
  std::size_t implications = 0;
  std::size_t probe_phase = 0;
  std::vector<std::size_t> rounds;
  {
    ScopedSpan phase(&rec, "phase.probe");
    probe_phase = phase.id();
    for (int r = 0; r < kProbeRounds; ++r) {
      ScopedSpan round(&rec, "probe.round");
      rounds.push_back(round.id());
      implications = bench.probe_round(rec);
    }
  }
  rec.close(root);

  // Oneshot runs no per-check reports; its stage time comes from the
  // registry stage timers, which mirror CheckReport::stage_seconds.
  if (kind == Kind::kOneshot) {
    stages.narrowing = static_cast<double>(totals.timer_ns[0]) * 1e-9;
    stages.gitd = static_cast<double>(totals.timer_ns[1]) * 1e-9;
    stages.stem = static_cast<double>(totals.timer_ns[2]) * 1e-9;
    stages.case_analysis = static_cast<double>(totals.timer_ns[3]) * 1e-9;
  }
  const auto op_spans = rec.totals_under(ops_phase);
  const auto gate_spans = rec.totals_under(gate_phase);
  // Probe-phase layer times: median over rounds of each round's total.
  const auto probe_ms = [&](std::initializer_list<const char*> names) {
    std::vector<double> v;
    for (std::size_t id : rounds) {
      v.push_back(self_of(rec.totals_under(id), names));
    }
    return median(v);
  };
  const auto replays = [&](bool ms) {
    double sum = 0.0;
    for (const auto* spans : {&op_spans, &gate_spans}) {
      const auto it = spans->find("sim.simulate_floating");
      if (it == spans->end()) continue;
      sum += ms ? it->second.self_ms : static_cast<double>(it->second.count);
    }
    return sum;
  };
  const double evals = totals.counter("fixpoint.gate_evals");
  const double hits = totals.counter("cache.hits");
  const double misses = totals.counter("cache.misses");

  const std::vector<Metric> metrics = {
      {"netlist.parse_ms",
       probe_ms({"netlist.read_bench", "netlist.read_delays"}), "ms"},
      {"sta.topo_ms", probe_ms({"sta.run_sta"}), "ms"},
      {"analysis.learning_ms", probe_ms({"analysis.learn_implications"}), "ms"},
      {"analysis.implications", static_cast<double>(implications), "count"},
      {"analysis.scoap_ms", probe_ms({"analysis.compute_scoap"}), "ms"},
      {"analysis.dominators_ms", probe_ms({"analysis.timing_dominators"}),
       "ms"},
      {"analysis.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"analysis.cache_misses", misses, "count"},
      {"analysis.dom_rebuilds", totals.counter("cache.dom_rebuilds"), "count"},
      {"constraints.fixpoint_ms", probe_ms({"constraints.fixpoint"}), "ms"},
      {"constraints.gate_evals", evals, "count"},
      {"constraints.evals_per_s", ratio(evals, traced_s), "1/s"},
      {"constraints.sweep_width",
       ratio(evals, totals.counter("fixpoint.level_sweeps")), "ratio"},
      {"constraints.useful_eval_ratio",
       ratio(totals.counter("engine.narrowings"), evals), "ratio"},
      {"constraints.simd_lane_share",
       ratio(4.0 * totals.counter("fixpoint.simd_batches"), evals), "ratio"},
      {"verify.narrowing_s", stages.narrowing, "s"},
      {"verify.gitd_s", stages.gitd, "s"},
      {"verify.stem_s", stages.stem, "s"},
      {"verify.case_analysis_s", stages.case_analysis, "s"},
      {"verify.decisions", totals.counter("search.decisions"), "count"},
      {"verify.backtracks", totals.counter("search.backtracks"), "count"},
      {"verify.conflicts", totals.counter("search.conflicts"), "count"},
      {"verify.gitd_rounds", totals.counter("gitd.rounds"), "count"},
      {"verify.stems", totals.counter("stem.stems_processed"), "count"},
      {"verify.probes", static_cast<double>(probes), "count"},
      {"sim.replay_ms", replays(true), "ms"},
      {"sim.replays", replays(false), "count"},
      {"harness.op_self_ms", self_of(op_spans, {"op"}), "ms"},
      {"trace_overhead", ratio(traced_s, untraced_s), "ratio"},
  };

  std::cout << "wavebench " << opt.workload << " seed " << opt.seed
            << " (traced): " << ops.size() << " ops, one untraced and one "
            << "traced pass, " << kProbeRounds << " probe rounds\n";
  print_span_table("op phase", op_spans, 1);
  print_span_table("gate phase", gate_spans, 1);
  auto probe_spans = rec.totals_under(probe_phase);
  std::erase_if(probe_spans, [](const auto& kv) {
    return kv.first.rfind("probe.", 0) == 0;
  });
  print_span_table("probe phase, per round", probe_spans, kProbeRounds);
  print_metrics(metrics);
  const std::string prov = provenance_json(opt);
  if (!opt.spans_out.empty()) {
    rec.write_json(opt.spans_out, prov);
    std::cout << "  spans written to " << opt.spans_out << " ("
              << rec.spans().size() << " spans)\n";
  }
  std::cout << "{\"provenance\": " << prov << "}\n";
  print_result(log.failed == 0, ops.size(), log.failed, metrics);
  return log.failed == 0 ? 0 : 1;
}

}  // namespace

int record_expected(const std::string& expected_dir) {
  try {
    std::ostringstream delays;
    std::ostringstream checks;
    std::map<std::string, std::int64_t> exact;
    for (const CircuitInput& in : make_inputs(Kind::kSweep, "")) {
      std::cerr << "record: delay of " << in.label << "\n";
      const std::unique_ptr<Circuit> c = parse(in, nullptr);
      guard_delays(*c, in);
      Verifier v(*c, verify_options(in.budget));
      v.prepare_shared();
      const auto res = v.exact_floating_delay();
      if (!res.exact || !res.witness ||
          latest_settle(*c, *res.witness) != res.delay) {
        throw std::runtime_error(in.label + ": delay search is not exact or "
                                 "its witness does not replay");
      }
      exact[in.label] = res.delay.value();
      delays << in.label << "\t" << res.delay.value() << "\tE\t"
             << delay_fingerprint(*c, in, res) << "\n";
    }

    // One row per (output, class): every delta of the class must give the
    // same fingerprint, and every witness must replay.
    std::pair<std::string, std::int64_t> best{"-", -1};
    std::string best_hash = "-";
    const auto record = [&](const CircuitInput& in, const Circuit& c,
                            Verifier& v, std::size_t o, std::int64_t lo,
                            std::int64_t cls) {
      std::string fp;
      for (std::int64_t d = lo; d <= cls; ++d) {
        const NetId s = c.outputs()[o];
        const CheckReport r = v.check_output(s, Time(d));
        const std::string f = check_fingerprint(r);
        if (r.vector) {
          const Time settle = simulate_floating(c, *r.vector).settle[s.index()];
          if (!(settle >= Time(d))) {
            throw std::runtime_error(in.label + " " + in.outputs[o] +
                                     ": witness does not replay");
          }
          if (in.label == kSearchCircuit && settle.value() > best.second) {
            best = {in.outputs[o], settle.value()};
            best_hash = witness_hash(*r.vector);
          }
        }
        if (!fp.empty() && f != fp) {
          throw std::runtime_error(in.label + " " + in.outputs[o] + " class " +
                                   std::to_string(cls) + ": " + fp + " vs " +
                                   f + " at delta " + std::to_string(d));
        }
        fp = f;
      }
      checks << in.label << "\t" << in.outputs[o] << "\t" << cls << "\t"
             << fp << "\n";
    };
    const auto record_circuit = [&](const CircuitInput& in, auto&& classes) {
      std::cerr << "record: checks of " << in.label << "\n";
      const std::unique_ptr<Circuit> c = parse(in, nullptr);
      guard_delays(*c, in);
      Verifier v(*c, verify_options(in.budget));
      v.prepare_shared();
      for (std::size_t o = 0; o < in.outputs.size(); ++o) classes(*c, v, o);
    };
    for (const CircuitInput& in : make_inputs(Kind::kSweep, "")) {
      record_circuit(in, [&](const Circuit& c, Verifier& v, std::size_t o) {
        for (std::int64_t k : kSweepClasses) {
          const std::int64_t cls = exact.at(in.label) + k * kClassWidth;
          record(in, c, v, o, cls - kClassWidth + 1, cls);
        }
      });
    }
    for (const CircuitInput& in : make_inputs(Kind::kSearch, "")) {
      record_circuit(in, [&](const Circuit& c, Verifier& v, std::size_t o) {
        for (std::int64_t rung : kSearchRungs) {
          record(in, c, v, o, rung - kClassWidth + 1, rung);
        }
        record(in, c, v, o, kSearchWitnessed, kSearchWitnessed);
      });
    }
    delays << kSearchCircuit << "\t" << best.second << "\tL\t" << best.first
           << "/" << best_hash << "\n";

    const auto write = [&](const std::string& name, const std::string& head,
                           const std::string& body) {
      std::ofstream os(expected_dir + "/" + name);
      os << head << body;
      if (!os) {
        throw std::runtime_error("cannot write " + expected_dir + "/" + name);
      }
    };
    write("delays.tsv",
          "# Written by `wavebench --record`. label, delay, kind,\n"
          "# fingerprint.\n"
          "# kind E: exact_floating_delay must return exactly this delay;\n"
          "#   fingerprint = probes/backtracks/witness output/witness hash.\n"
          "# kind L: a lower bound witnessed by a replayed vector, not an\n"
          "#   upper bound: exact_floating_delay abandons probes on this\n"
          "#   circuit and reports a smaller, non-exact delay;\n"
          "#   fingerprint = witness output/witness hash.\n",
          delays.str());
    write("checks.tsv",
          "# Written by `wavebench --record`. label, output, delta class\n"
          "# (top of a 10-unit class; every delta in it was checked and gave\n"
          "# the same result), fingerprint = conclusion and stage statuses\n"
          "# (before G.I.T.D., after G.I.T.D., after stems) / backtracks /\n"
          "# FNV-1a hash of the witness bits.\n",
          checks.str());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "wavebench --record: " << e.what() << "\n";
    return 2;
  }
}

int run_workload(const Options& opt) {
  Kind kind{};
  try {
    kind = parse_kind(opt.workload);
  } catch (const std::exception& e) {
    std::cerr << "wavebench: " << e.what() << "\n";
    return 2;
  }
  try {
    if (opt.list_ops) {
      Rng rng(opt.seed);
      const std::string salt = make_salt(rng);
      const Expected exp = load_expected(opt.expected_dir);
      const std::vector<CircuitInput> inputs = make_inputs(kind, salt);
      std::vector<Op> ops = make_ops(kind, inputs, exp, rng);
      if (opt.max_ops != 0 && ops.size() > opt.max_ops) ops.resize(opt.max_ops);
      std::cout << "salt " << salt << "\n";
      for (const Op& op : ops) {
        const CircuitInput& in = inputs[op.circuit];
        std::cout << in.label;
        if (kind != Kind::kOneshot) {
          std::cout << " " << in.outputs[op.output] << " " << op.delta;
        }
        std::cout << "\n";
      }
      return 0;
    }
    return opt.trace ? run_traced(kind, opt) : run_untraced(kind, opt);
  } catch (const std::exception& e) {
    std::cerr << "wavebench: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace wavebench
