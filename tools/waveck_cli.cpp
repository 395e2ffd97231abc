// waveck command-line front end.
//
// The full command set lives in the kCommands table below; `usage()` is
// generated from it, so the table is the single source of truth. Global
// flags (--jobs N, --metrics FILE.json, --trace FILE.jsonl) are stripped
// from argv before command dispatch and work with every command.
//
// DELAYS is an annotation file (`net dmin dmax`, `*` = default); without
// one every gate gets the paper's delay of 10.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/learning.hpp"
#include "common/flight_recorder.hpp"
#include "common/telemetry.hpp"
#include "explain/explain_cli.hpp"
#include "explain/trace_reader.hpp"
#include "prof/heartbeat.hpp"
#include "prof/perf_counters.hpp"
#include "prof/profiler.hpp"
#include "fuzz/engine.hpp"
#include "gen/generators.hpp"
#include "gen/iscas_suite.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/delay_annotation.hpp"
#include "netlist/transforms.hpp"
#include "netlist/verilog_io.hpp"
#include "sched/check_scheduler.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/floating_sim.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/transition_sim.hpp"
#include "sta/sta.hpp"
#include "verify/pessimism.hpp"
#include "verify/report_io.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace waveck;

/// Worker threads for the suite/exact-delay commands (global --jobs flag).
/// 0 = one per hardware thread; 1 = serial (no pool).
std::size_t g_jobs = 0;

/// Sampling rate for --profile / the profile command (--profile-hz flag).
std::uint32_t g_profile_hz = 997;

/// One row of the command set; usage() and the file's header comment derive
/// from this table, so adding a command means adding a row here.
struct CommandSpec {
  const char* name;
  const char* args;
  const char* desc;
};

constexpr CommandSpec kCommands[] = {
    {"sta", "FILE [DELAYS]", "topological timing report"},
    {"check", "FILE DELTA [OUT] [DELAYS] [--json] [--canon] [--timeout-ms N]",
     "can a transition occur at/after DELTA?"},
    {"delay", "FILE [DELAYS]", "exact floating-mode delay + witness"},
    {"outputs", "FILE [DELAYS]", "per-output pessimism table"},
    {"learn", "FILE", "static-learning statistics"},
    {"path", "FILE [DELAYS]", "exact delay + sensitizable path"},
    {"trans", "FILE V1 V2 [DELAYS]", "two-vector transition delays"},
    {"mc", "FILE [SAMPLES] [DELAYS]", "Monte-Carlo delay lower bound"},
    {"json", "FILE [DELAYS]", "exact delay report as JSON"},
    {"profile", "FILE [OUT] [DELAYS] [--seconds S]",
     "CPU-profile the delay search; write speedscope JSON + folded stacks"},
    {"gen", "NAME [v]", "emit a generated circuit as .bench (or Verilog)"},
    {"fuzz", "[--seed N] [--runs N] ...",
     "differential fuzzing vs the exhaustive oracle (see waveck_fuzz)"},
    {"explain", "TRACE.jsonl [--json] ...",
     "analyze a --trace capture: search trees, chrome/DOT export"},
    {"serve", "[--socket PATH] [--tcp PORT] ...",
     "long-lived check daemon: JSONL requests over a socket (doc/SERVE.md)"},
    {"client", "[--socket PATH|--tcp PORT] CMD ...",
     "send requests to a running daemon (check/load/list/... or raw JSONL)"},
};

int usage() {
  std::cerr << "usage: waveck <command> [--jobs N] [--metrics FILE.json] "
               "[--trace FILE.jsonl] [--counters] [--progress [SECS]] "
               "[--profile FILE] [args]\n";
  for (const auto& cmd : kCommands) {
    std::cerr << "  " << std::left << std::setw(8) << cmd.name
              << std::setw(26) << cmd.args << cmd.desc << "\n";
  }
  std::cerr <<
      "gen NAMEs: c17, c432..c7552, hrapcenko, csa16, csel16, ks16, mul8, "
      "wallace8\n"
      "FILE may be ISCAS `.bench` or structural Verilog `.v`.\n"
      "global flags (any command):\n"
      "  --jobs N              worker threads for suite verification and the\n"
      "                        exact-delay search (0 = one per hardware\n"
      "                        thread, the default; 1 = serial)\n"
      "  --metrics FILE.json   write the telemetry registry snapshot on exit\n"
      "  --trace FILE.jsonl    stream JSONL engine events (propagate,\n"
      "                        decision, backtrack, stem, gitd_round, ...)\n"
      "  --counters            per-stage hardware counters (cycles, IPC,\n"
      "                        cache misses) in reports; degrades to\n"
      "                        wall-clock when perf_event_open is denied\n"
      "  --progress [SECS]     heartbeat line to stderr (+ JSONL event)\n"
      "                        every SECS seconds (default 5) and a\n"
      "                        watchdog snapshot when progress stalls\n"
      "  --profile FILE        sample the whole command with the in-process\n"
      "                        profiler; write speedscope JSON to FILE and\n"
      "                        collapsed stacks next to it\n"
      "  --profile-hz N        profiler sampling rate (default 997)\n"
      "  --blackbox DIR        arm the flight recorder's post-mortem dumps:\n"
      "                        watchdog stalls, deadline expiries and fatal\n"
      "                        signals write flight-*.jsonl into DIR, plus\n"
      "                        one \"exit\" dump when the command finishes\n"
      "                        (load them with `waveck explain`)\n";
  return 2;
}

Circuit load(const std::string& path, const std::string& delays) {
  const bool verilog = path.size() > 2 && path.substr(path.size() - 2) == ".v";
  Circuit c = verilog ? read_verilog_file(path) : read_bench_file(path);
  if (!delays.empty()) {
    read_delays_file(delays, c);
  } else {
    c.set_uniform_delay(DelaySpec::fixed(10));
  }
  return decompose_for_solver(c);
}

int cmd_sta(const Circuit& c) {
  const StaReport r = run_sta(c);
  std::cout << c.name() << ": " << c.num_gates() << " gates, "
            << c.inputs().size() << " inputs, " << c.outputs().size()
            << " outputs\n";
  std::cout << "topological delay: " << r.topological_delay << "\n";
  std::cout << "worst outputs:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(10, r.output_arrivals.size());
       ++i) {
    std::cout << "  " << c.net(r.output_arrivals[i].first).name << "  "
              << r.output_arrivals[i].second << "\n";
  }
  std::cout << "critical path:";
  for (NetId n : r.critical_path) std::cout << " " << c.net(n).name;
  std::cout << "\n";
  return 0;
}

int cmd_check(const Circuit& c, const std::string& delta_str,
              const std::string& out_name, bool json, bool canon,
              std::uint64_t timeout_ms) {
  const Time delta(std::stoll(delta_str));
  // --timeout-ms N: absolute deadline on the monotonic clock; checks that
  // outlive it conclude kAbandoned (exit code 0: no violation *proven*).
  const std::uint64_t deadline =
      timeout_ms == 0 ? 0
                      : prof::monotonic_ns() + timeout_ms * 1'000'000ull;
  Verifier v(c);
  v.set_deadline_ns(deadline);
  if (!out_name.empty()) {
    const auto net = c.find_net(out_name);
    if (!net) {
      std::cerr << "no such net: " << out_name << "\n";
      return 2;
    }
    const auto rep = v.check_output(*net, delta);
    if (json) {
      std::cout << (canon ? canonical_json(c, rep) : to_json(c, rep)) << "\n";
      return rep.conclusion == CheckConclusion::kViolation ? 1 : 0;
    }
    std::cout << "check (" << out_name << ", " << delta
              << "): " << to_string(rep.conclusion) << "  [stages "
              << to_string(rep.before_gitd) << "/" << to_string(rep.after_gitd)
              << "/" << to_string(rep.after_stem) << ", " << rep.backtracks
              << " backtracks, " << std::fixed << std::setprecision(3)
              << rep.seconds << "s]\n";
    if (rep.vector) {
      std::cout << "vector: " << format_vector(*rep.vector) << "\n";
    }
    return rep.conclusion == CheckConclusion::kViolation ? 1 : 0;
  }
  sched::CheckScheduler s(v, {.jobs = g_jobs});
  s.token().arm_deadline(deadline);
  const auto rep = s.check_circuit(delta);
  if (json) {
    std::cout << (canon ? canonical_json(c, rep)
                        : to_json(c, rep, /*include_metrics=*/true))
              << "\n";
    return rep.conclusion == CheckConclusion::kViolation ? 1 : 0;
  }
  std::cout << "check (all outputs, " << delta
            << "): " << to_string(rep.conclusion) << "  [" << rep.backtracks
            << " backtracks, " << std::fixed << std::setprecision(3)
            << rep.seconds << "s]\n";
  if (rep.vector) {
    std::cout << "vector: " << format_vector(*rep.vector) << " (output "
              << c.net(*rep.violating_output).name << ")\n";
  }
  return rep.conclusion == CheckConclusion::kViolation ? 1 : 0;
}

int cmd_delay(const Circuit& c) {
  Verifier v(c);
  sched::CheckScheduler s(v, {.jobs = g_jobs});
  const auto res = s.exact_floating_delay();
  std::cout << "topological delay: " << res.topological << "\n";
  std::cout << (res.exact ? "exact floating delay: "
                          : "floating delay bound (search abandoned): ")
            << res.delay << "  (" << res.probes << " probes, "
            << res.total_backtracks << " backtracks)\n";
  if (res.witness) {
    std::cout << "witness: " << format_vector(*res.witness) << "\n";
    const auto sim = simulate_floating(c, *res.witness);
    Time settle = Time::neg_inf();
    for (NetId o : c.outputs()) {
      settle = Time::max(settle, sim.settle[o.index()]);
    }
    std::cout << "simulated settle: " << settle << "\n";
  }
  return 0;
}

int cmd_outputs(const Circuit& c) {
  Verifier v(c);
  const auto rep = pessimism_report(v);
  std::cout << std::left << std::setw(20) << "OUTPUT" << std::setw(12)
            << "TOP" << std::setw(12) << "FLOATING" << std::setw(10)
            << "GAP"
            << "\n";
  for (const auto& od : rep.outputs) {
    const auto gap = od.topological.is_finite() && od.floating.is_finite()
                         ? od.topological.value() - od.floating.value()
                         : 0;
    std::cout << std::left << std::setw(20) << c.net(od.output).name
              << std::setw(12) << od.topological.str() << std::setw(12)
              << (od.floating.str() + (od.exact ? "" : "?")) << std::setw(10)
              << gap << "\n";
  }
  std::cout << "worst: top " << rep.worst_topological << ", floating "
            << rep.worst_floating << "\n";
  return 0;
}

int cmd_learn(const Circuit& c) {
  const auto res = learn_implications(c);
  std::cout << "implications stored: " << res.contrapositive
            << " (contrapositives the fixpoint cannot derive)\n";
  std::cout << "consequences found: " << res.direct
            << " (derivable by propagation, not stored)\n";
  std::cout << "globally impossible net classes: " << res.impossible.size()
            << "\n";
  for (const auto& [net, cls] : res.impossible) {
    std::cout << "  " << c.net(net).name << " can never settle at "
              << (cls ? 1 : 0) << "\n";
  }
  return 0;
}

int cmd_path(const Circuit& c) {
  Verifier v(c);
  sched::CheckScheduler s(v, {.jobs = g_jobs});
  const auto res = s.exact_floating_delay();
  std::cout << "exact floating delay: " << res.delay
            << " (topological " << res.topological << ")\n";
  if (!res.witness || !res.witness_output) {
    std::cout << "no witness vector available\n";
    return 0;
  }
  const auto sim = simulate_floating(c, *res.witness);
  // Report the path into the output that actually realises the delay under
  // this witness (it may differ from the probe output the search hit).
  NetId worst = *res.witness_output;
  for (NetId o : c.outputs()) {
    if (sim.settle[o.index()] > sim.settle[worst.index()]) worst = o;
  }
  const auto path = critical_true_path(c, sim, worst);
  std::cout << "witness: " << format_vector(*res.witness) << " (output "
            << c.net(worst).name << ")\n";
  std::cout << "sensitized true path (" << path.size() << " nets):\n  ";
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) std::cout << " -> ";
    std::cout << c.net(path[i]).name << "@"
              << sim.settle[path[i].index()];
  }
  std::cout << "\n\n";
  render_timing_diagram(std::cout, c, sim, path);
  return 0;
}

int cmd_mc(const Circuit& c, std::size_t samples) {
  const auto mc = refined_floating_delay(c, samples);
  std::cout << "floating delay lower bound: " << mc.delay << " ("
            << mc.samples << " simulations incl. refinement)\n";
  if (!mc.witness.empty()) {
    std::cout << "witness: " << format_vector(mc.witness) << " (output "
              << c.net(mc.output).name << ")\n";
  }
  return 0;
}

int cmd_json(const Circuit& c) {
  Verifier v(c);
  sched::CheckScheduler s(v, {.jobs = g_jobs});
  std::cout << to_json(c, s.exact_floating_delay()) << "\n";
  return 0;
}

/// Writes the two profiler artifacts: speedscope JSON at `out` and the
/// collapsed-stack text next to it (".speedscope.json" -> ".folded").
int write_profile_outputs(const prof::ProfileReport& rep,
                          const std::string& out) {
  std::string folded_path = out;
  const std::string suffix = ".speedscope.json";
  if (folded_path.size() > suffix.size() &&
      folded_path.compare(folded_path.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
    folded_path.replace(folded_path.size() - suffix.size(), suffix.size(),
                        ".folded");
  } else {
    folded_path += ".folded";
  }
  std::ofstream ss(out);
  if (!ss) {
    std::cerr << "error: cannot open " << out << "\n";
    return 2;
  }
  ss << rep.speedscope_json << "\n";
  std::ofstream fs(folded_path);
  if (!fs) {
    std::cerr << "error: cannot open " << folded_path << "\n";
    return 2;
  }
  fs << rep.folded;
  std::cerr << "profile: " << rep.samples << " samples, " << std::fixed
            << std::setprecision(2) << rep.cpu_seconds << "s cpu, "
            << std::setprecision(0) << rep.delivered_hz << " Hz delivered";
  if (rep.dropped > 0) std::cerr << ", " << rep.dropped << " dropped";
  std::cerr << " -> " << out << " + " << folded_path << "\n";
  return 0;
}

int cmd_profile(const Circuit& c, std::string out, double seconds) {
  if (out.empty()) out = c.name() + ".speedscope.json";
  // When the global --profile flag already armed the profiler this command
  // only supplies the workload; main() stops it and writes the files.
  const bool own = !prof::SamplingProfiler::instance().running();
  if (own) {
    std::string err;
    if (!prof::SamplingProfiler::instance().start({.hz = g_profile_hz},
                                                  &err)) {
      std::cerr << "error: cannot start profiler: " << err << "\n";
      return 2;
    }
  }
  // One deadline bounds the whole workload: the exact-delay pre-pass, which
  // on a hard circuit (c6288) would otherwise search far past the budget,
  // and the profile rounds after it.
  const std::uint64_t deadline =
      prof::monotonic_ns() +
      static_cast<std::uint64_t>(std::max(seconds, 0.0) * 1e9);
  Verifier v(c);
  v.set_deadline_ns(deadline);
  sched::CheckScheduler s(v, {.jobs = g_jobs});
  s.token().arm_deadline(deadline);
  const auto res = s.exact_floating_delay();
  const bool cut = !res.exact && prof::monotonic_ns() >= deadline;
  // Keep both halves of the pipeline hot until the sampling budget is
  // spent: delta*+1 drives learning/narrowing/gitd/stem to completion,
  // delta* forces the FAN case analysis to rediscover the witness.
  std::size_t rounds = 0;
  while (res.delay.is_finite() && prof::monotonic_ns() < deadline) {
    (void)s.check_circuit(Time(res.delay.value() + 1));
    (void)s.check_circuit(res.delay);
    ++rounds;
  }
  std::cout << (res.exact ? "exact floating delay: "
                : cut     ? "floating delay bound (pre-pass cut at the "
                            "--seconds budget): "
                          : "floating delay bound (search abandoned): ")
            << res.delay << " (topological " << res.topological << ", "
            << rounds << " profile rounds)\n";
  if (!own) return 0;
  const auto rep = prof::SamplingProfiler::instance().stop();
  return write_profile_outputs(rep, out);
}

std::vector<bool> parse_bits(const std::string& s, std::size_t n) {
  if (s.size() != n) {
    throw std::invalid_argument("vector must have exactly " +
                                std::to_string(n) + " bits");
  }
  std::vector<bool> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (s[i] != '0' && s[i] != '1') {
      throw std::invalid_argument("vector bits must be 0/1");
    }
    v[i] = s[i] == '1';
  }
  return v;
}

int cmd_trans(const Circuit& c, const std::string& s1,
              const std::string& s2) {
  const auto v1 = parse_bits(s1, c.inputs().size());
  const auto v2 = parse_bits(s2, c.inputs().size());
  const auto r = simulate_transition(c, v1, v2);
  std::cout << std::left << std::setw(20) << "OUTPUT" << std::setw(8)
            << "VALUE" << std::setw(12) << "SETTLE"
            << "\n";
  for (NetId o : c.outputs()) {
    std::cout << std::left << std::setw(20) << c.net(o).name << std::setw(8)
              << (r.value[o.index()] ? 1 : 0) << std::setw(12)
              << r.settle[o.index()].str() << "\n";
  }
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::ServeOptions opt;
  opt.jobs = g_jobs == 0 ? 1 : g_jobs;  // daemon default: serial worker
  opt.handle_signals = true;
  const auto need_value = [&](std::size_t i, const char* flag) {
    if (i + 1 >= args.size()) {
      std::cerr << "error: " << flag << " needs a value\n";
      return false;
    }
    return true;
  };
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a == "--socket") {
        if (!need_value(i, "--socket")) return 2;
        opt.socket_path = args[++i];
      } else if (a == "--tcp") {
        if (!need_value(i, "--tcp")) return 2;
        const int port = std::stoi(args[++i]);
        opt.tcp_port = port == 0 ? -1 : port;  // 0 = ephemeral
      } else if (a == "--queue-cap") {
        if (!need_value(i, "--queue-cap")) return 2;
        opt.queue_cap = std::stoull(args[++i]);
      } else if (a == "--timeout-ms") {
        if (!need_value(i, "--timeout-ms")) return 2;
        opt.default_timeout_ms = std::stoull(args[++i]);
      } else if (a == "--max-batch") {
        if (!need_value(i, "--max-batch")) return 2;
        opt.max_batch = std::max<std::size_t>(1, std::stoull(args[++i]));
      } else if (a == "--heartbeat") {
        if (!need_value(i, "--heartbeat")) return 2;
        opt.heartbeat_s = std::stod(args[++i]);
      } else if (a == "--stall-s") {
        if (!need_value(i, "--stall-s")) return 2;
        opt.stall_s = std::stod(args[++i]);
      } else if (a == "--enable-debug-ops") {
        opt.enable_debug_ops = true;
      } else if (a == "--blackbox") {
        if (!need_value(i, "--blackbox")) return 2;
        opt.blackbox_dir = args[++i];
      } else {
        std::cerr << "error: unknown serve flag " << a << "\n";
        return 2;
      }
    }
  } catch (const std::exception&) {
    std::cerr << "error: serve flag needs a numeric value\n";
    return 2;
  }
  serve::Server server(opt);
  std::string err;
  if (!server.start(&err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }
  std::cerr << "waveck-serve: listening";
  if (!opt.socket_path.empty()) std::cerr << " on " << opt.socket_path;
  if (server.tcp_port() > 0) {
    std::cerr << (opt.socket_path.empty() ? " on" : " and")
              << " tcp 127.0.0.1:" << server.tcp_port();
  }
  std::cerr << " (queue cap " << opt.queue_cap << ", jobs " << opt.jobs
            << ")\n";
  server.run();
  return 0;
}

/// JSON string literal for client-built requests.
std::string jstr(const std::string& s) {
  return "\"" + telemetry::json_escape(s) + "\"";
}

/// Builds the request line for the `client` sugar commands; "" = usage
/// error. `timeout_ms < 0` means "not set".
std::string client_request(const std::vector<std::string>& cmd,
                           std::int64_t timeout_ms) {
  const std::string& op = cmd[0];
  if (op == "ping" || op == "list" || op == "stats" || op == "shutdown") {
    return "{\"op\":" + jstr(op) + "}";
  }
  if (op == "metrics") {
    // `metrics [json|prometheus]`; the prometheus envelope is unwrapped by
    // cmd_client so the body pipes straight into a scraper.
    std::string line = "{\"op\":\"metrics\"";
    if (cmd.size() > 1) line += ",\"format\":" + jstr(cmd[1]);
    return line + "}";
  }
  if (op == "load" && cmd.size() >= 3) {
    // Resolve the netlist path client-side: the daemon reads it from ITS
    // working directory otherwise.
    std::string file = cmd[2];
    if (char* rp = ::realpath(file.c_str(), nullptr)) {
      file = rp;
      std::free(rp);
    }
    std::string line = "{\"op\":\"load\",\"name\":" + jstr(cmd[1]) +
                       ",\"file\":" + jstr(file);
    if (cmd.size() > 3) line += ",\"delays\":" + jstr(cmd[3]);
    return line + "}";
  }
  if (op == "unload" && cmd.size() >= 2) {
    return "{\"op\":\"unload\",\"name\":" + jstr(cmd[1]) + "}";
  }
  if (op == "check" && cmd.size() >= 3) {
    std::string line = "{\"op\":\"check\",\"circuit\":" + jstr(cmd[1]) +
                       ",\"delta\":" + cmd[2];
    if (cmd.size() > 3) line += ",\"output\":" + jstr(cmd[3]);
    if (timeout_ms >= 0) {
      line += ",\"timeout_ms\":" + std::to_string(timeout_ms);
    }
    return line + "}";
  }
  return "";
}

/// Extracts the raw canonical report bytes from a check response (the
/// "report" object is the envelope's last key by protocol contract).
std::string extract_report(const std::string& response) {
  const std::string key = ",\"report\":";
  const std::size_t pos = response.rfind(key);
  if (pos == std::string::npos || response.empty() ||
      response.back() != '}') {
    return "";
  }
  return response.substr(pos + key.size(),
                         response.size() - (pos + key.size()) - 1);
}

int cmd_client(const std::vector<std::string>& args) {
  std::string socket_path;
  int tcp_port = 0;
  bool report_only = false;
  std::int64_t timeout_ms = -1;
  std::vector<std::string> cmd;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a == "--socket" && i + 1 < args.size()) {
        socket_path = args[++i];
      } else if (a == "--tcp" && i + 1 < args.size()) {
        tcp_port = std::stoi(args[++i]);
      } else if (a == "--report") {
        report_only = true;
      } else if (a == "--timeout-ms" && i + 1 < args.size()) {
        timeout_ms = std::stoll(args[++i]);
      } else {
        cmd.push_back(a);
      }
    }
  } catch (const std::exception&) {
    std::cerr << "error: client flag needs a numeric value\n";
    return 2;
  }
  if (socket_path.empty() && tcp_port == 0) {
    std::cerr << "error: client needs --socket PATH or --tcp PORT\n";
    return 2;
  }

  // Request lines: sugar command, raw JSON arguments, or stdin JSONL.
  std::vector<std::string> lines;
  bool unwrap_prometheus = false;
  if (cmd.empty() || cmd[0] == "-") {
    for (std::string line; std::getline(std::cin, line);) {
      if (!line.empty()) lines.push_back(line);
    }
  } else if (!cmd[0].empty() && cmd[0][0] == '{') {
    lines = cmd;  // raw JSONL, one request per argument
  } else {
    const std::string line = client_request(cmd, timeout_ms);
    if (line.empty()) {
      std::cerr << "usage: waveck client [--socket PATH|--tcp PORT] "
                   "[--report] [--timeout-ms N]\n"
                   "  ping | list | stats | shutdown\n"
                   "  metrics [json|prometheus]\n"
                   "  load NAME FILE [DELAYS] | unload NAME\n"
                   "  check CIRCUIT DELTA [OUT]\n"
                   "  '{...}' ... | -   (raw JSONL; '-' reads stdin)\n";
      return 2;
    }
    unwrap_prometheus =
        cmd[0] == "metrics" && cmd.size() > 1 && cmd[1] == "prometheus";
    lines.push_back(line);
  }

  serve::Client client;
  std::string err;
  const bool connected = socket_path.empty()
                             ? client.connect_tcp(tcp_port, &err)
                             : client.connect_unix(socket_path, &err);
  if (!connected) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }
  bool any_failed = false;
  for (const std::string& line : lines) {
    const auto response = client.round_trip(line);
    if (!response) {
      std::cerr << "error: connection closed by server\n";
      return 2;
    }
    // The envelope leads with id/op/ok, so the first "ok" is the status.
    const std::size_t ok_pos = response->find("\"ok\":");
    const bool ok = ok_pos != std::string::npos &&
                    response->compare(ok_pos + 5, 4, "true") == 0;
    if (!ok) any_failed = true;
    if (report_only) {
      const std::string report = extract_report(*response);
      std::cout << (report.empty() ? *response : report) << "\n";
    } else if (unwrap_prometheus && ok) {
      // `metrics prometheus` sugar: print the exposition text itself, not
      // the JSON envelope — the output pipes straight into promtool or a
      // scrape-endpoint shim. The envelope parser doubles as the unescaper.
      explain::TraceEvent ev;
      std::string perr;
      if (explain::parse_flat_object(*response, ev, perr)) {
        std::cout << ev.str("body");
      } else {
        std::cout << *response << "\n";
      }
    } else {
      std::cout << *response << "\n";
    }
  }
  return any_failed ? 1 : 0;
}

int cmd_gen(const std::string& name, bool verilog) {
  Circuit c;
  if (name == "hrapcenko") {
    c = gen::hrapcenko();
  } else if (name == "csa16") {
    c = gen::carry_skip_adder(16, 4);
  } else if (name == "csel16") {
    c = gen::carry_select_adder(16, 4);
  } else if (name == "ks16") {
    c = gen::kogge_stone_adder(16);
  } else if (name == "mul8") {
    c = gen::array_multiplier(8);
  } else if (name == "wallace8") {
    c = gen::wallace_multiplier(8);
  } else {
    c = gen::build_raw(name);  // the Table-1 suite names
  }
  if (verilog) {
    write_verilog(std::cout, c);
  } else {
    write_bench(std::cout, c);
  }
  return 0;
}

}  // namespace

namespace {

int dispatch(const std::vector<std::string>& args) {
  // args[0] = command, args[1] = FILE/NAME, args[2..] = command arguments.
  if (args[0] == "fuzz") {
    // All-flag command; shares the driver with tools/waveck_fuzz.
    return fuzz::fuzz_cli_main({args.begin() + 1, args.end()}, std::cout,
                               std::cerr);
  }
  if (args[0] == "explain") {
    return explain::explain_cli_main({args.begin() + 1, args.end()},
                                     std::cout, std::cerr);
  }
  if (args[0] == "serve") {
    return cmd_serve({args.begin() + 1, args.end()});
  }
  if (args[0] == "client") {
    return cmd_client({args.begin() + 1, args.end()});
  }
  if (args.size() < 2) return usage();
  const std::string& cmd = args[0];
  const std::string& file = args[1];
  const auto arg = [&](std::size_t i) -> std::string {
    return i < args.size() ? args[i] : "";
  };
  if (cmd == "sta") return cmd_sta(load(file, arg(2)));
  if (cmd == "check") {
    // Positionals after FILE: DELTA [OUT] [DELAYS]; flags anywhere.
    // --canon implies --json: the canonical report (no timing, no metrics
    // snapshot) is the byte-comparable form the serve layer also emits.
    std::vector<std::string> pos;
    bool json = false;
    bool canon = false;
    std::uint64_t timeout_ms = 0;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--json") {
        json = true;
      } else if (args[i] == "--canon") {
        json = canon = true;
      } else if (args[i] == "--timeout-ms") {
        if (i + 1 >= args.size()) return usage();
        try {
          timeout_ms = std::stoull(args[++i]);
        } catch (const std::exception&) {
          return usage();
        }
      } else {
        pos.push_back(args[i]);
      }
    }
    if (pos.empty()) return usage();
    return cmd_check(load(file, pos.size() > 2 ? pos[2] : ""), pos[0],
                     pos.size() > 1 ? pos[1] : "", json, canon, timeout_ms);
  }
  if (cmd == "profile") {
    // Positionals after FILE: [OUT] [DELAYS]; --seconds S anywhere.
    std::vector<std::string> pos;
    double seconds = 2.0;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--seconds") {
        if (i + 1 >= args.size()) return usage();
        seconds = std::stod(args[++i]);
      } else {
        pos.push_back(args[i]);
      }
    }
    return cmd_profile(load(file, pos.size() > 1 ? pos[1] : ""),
                       pos.empty() ? "" : pos[0], seconds);
  }
  if (cmd == "delay") return cmd_delay(load(file, arg(2)));
  if (cmd == "outputs") return cmd_outputs(load(file, arg(2)));
  if (cmd == "learn") return cmd_learn(load(file, ""));
  if (cmd == "path") return cmd_path(load(file, arg(2)));
  if (cmd == "trans") {
    if (args.size() < 4) return usage();
    return cmd_trans(load(file, arg(4)), args[2], args[3]);
  }
  if (cmd == "mc") {
    const std::size_t samples =
        args.size() > 2 ? std::stoull(args[2]) : std::size_t{1000};
    return cmd_mc(load(file, arg(3)), samples);
  }
  if (cmd == "json") return cmd_json(load(file, arg(2)));
  if (cmd == "gen") return cmd_gen(file, arg(2) == "v");
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global telemetry flags first; everything left is positional.
  std::string metrics_path;
  std::string trace_path;
  std::string profile_path;
  std::string blackbox_dir;
  bool progress_on = false;
  double progress_interval = 5.0;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--metrics" || a == "--trace" || a == "--profile" ||
        a == "--blackbox") {
      if (i + 1 >= argc) {
        std::cerr << "error: " << a << " needs a file argument\n";
        return usage();
      }
      (a == "--metrics"    ? metrics_path
       : a == "--trace"    ? trace_path
       : a == "--blackbox" ? blackbox_dir
                           : profile_path) = argv[++i];
    } else if (a == "--jobs" || a == "--profile-hz") {
      if (i + 1 >= argc) {
        std::cerr << "error: " << a << " needs a number\n";
        return usage();
      }
      try {
        if (a == "--jobs") {
          g_jobs = std::stoull(argv[++i]);
        } else {
          g_profile_hz = static_cast<std::uint32_t>(std::stoul(argv[++i]));
        }
      } catch (const std::exception&) {
        std::cerr << "error: " << a << " needs a number, got " << argv[i]
                  << "\n";
        return usage();
      }
    } else if (a == "--counters") {
      prof::set_counters_enabled(true);
    } else if (a == "--progress") {
      progress_on = true;
      // Optional numeric lookahead: `--progress 2 check ...` vs
      // `--progress check ...`.
      if (i + 1 < argc) {
        char* end = nullptr;
        const double v = std::strtod(argv[i + 1], &end);
        if (end != argv[i + 1] && *end == '\0' && v > 0.0) {
          progress_interval = v;
          ++i;
        }
      }
    } else {
      args.push_back(a);
    }
  }
  if (args.empty()) return usage();

  std::unique_ptr<telemetry::JsonlTraceSink> sink;
  std::unique_ptr<prof::ProgressMonitor> monitor;
  int rc = 2;
  if (!blackbox_dir.empty()) {
    flight::set_blackbox_dir(blackbox_dir);
    flight::install_fatal_handlers();
  }
  try {
    if (!trace_path.empty()) {
      sink = std::make_unique<telemetry::JsonlTraceSink>(trace_path);
      telemetry::set_trace_sink(sink.get());
    }
    // Monitor after the sink so progress_begin/heartbeat land in the trace.
    if (progress_on) {
      monitor = std::make_unique<prof::ProgressMonitor>(
          prof::HeartbeatOptions{.interval_s = progress_interval},
          std::cerr);
    }
    if (!profile_path.empty()) {
      std::string err;
      if (!prof::SamplingProfiler::instance().start({.hz = g_profile_hz},
                                                    &err)) {
        std::cerr << "warning: profiler not started: " << err << "\n";
        profile_path.clear();
      }
    }
    rc = dispatch(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 2;
  }
  // Teardown order matters: stop sampling first (the monitor/sink are not
  // async-signal-safe), then the monitor (progress_end still reaches the
  // sink), then the sink itself.
  if (!profile_path.empty() && prof::SamplingProfiler::instance().running()) {
    const auto prep = prof::SamplingProfiler::instance().stop();
    const int prc = write_profile_outputs(prep, profile_path);
    if (rc == 0 && prc != 0) rc = prc;
  }
  monitor.reset();
  telemetry::set_trace_sink(nullptr);
  sink.reset();
  if (!blackbox_dir.empty()) {
    // Unconditional end-of-run dump (cooldown 0 forces it even when an
    // automatic trigger fired moments earlier): `--blackbox DIR` always
    // leaves at least one explain-loadable trace of the run behind.
    const std::string path = flight::dump_blackbox("exit", 0);
    if (!path.empty()) {
      std::cerr << "flight recorder dump: " << path << "\n";
    }
  }
  if (!metrics_path.empty()) {
    // Written even after a failed command: partial metrics still help.
    std::ofstream os(metrics_path);
    if (os) {
      os << telemetry::Registry::global().to_json() << "\n";
    } else {
      std::cerr << "error: cannot open " << metrics_path << "\n";
      if (rc == 0) rc = 2;
    }
  }
  return rc;
}
