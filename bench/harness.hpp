// Shared helpers for the experiment harnesses: fixed-width table printing
// and the per-circuit "Table 1 row" runner.
#pragma once

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.hpp"
#include "prof/perf_counters.hpp"
#include "verify/verifier.hpp"

namespace waveck::bench {

inline void print_row(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::cout << std::left << std::setw(widths[i]) << cells[i];
  }
  std::cout << "\n";
}

inline std::string fmt_time(Time t) { return t.str(); }

inline std::string fmt_secs(double s) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << s;
  return os.str();
}

/// One Table-1 style record: the two deltas (exact and exact+1), per-stage
/// statuses, backtracks, final result, CPU.
struct Table1Row {
  std::string circuit;
  Time top{};
  Time delta{};
  std::string delta_kind;  // "E" exact, "U" upper bound
  StageStatus before_gitd = StageStatus::kNotRun;
  StageStatus after_gitd = StageStatus::kNotRun;
  StageStatus after_stem = StageStatus::kNotRun;
  std::string backtracks;  // number or "-" / "A"
  std::string result;      // V / N / A
  double seconds = 0.0;
  std::size_t backtracks_n = 0;  // numeric form for JSON output
  StageSeconds stage_seconds;
  /// Wall-clock of the same suite check re-run through the parallel
  /// CheckScheduler (bench_table1 --jobs); < 0 = parallel pass not run.
  double seconds_parallel = -1.0;
  /// Min-of-N wall-clock (bench_table1 --repeat N); < 0 = single run only.
  double seconds_min = -1.0;
  /// Violating input vector "bits@output" when the row finds one ("" = no
  /// witness). Part of the CI bench-regression key: the *same* vector must
  /// keep reproducing, not just some vector.
  std::string witness;
  /// Trace events captured for this row's extra traced run (bench_table1
  /// --trace); < 0 = tracing off. Never set on the timed runs, so wall
  /// clocks stay comparable with untraced benches.
  std::int64_t trace_lines = -1;
  /// Per-stage hardware counters (bench_table1 --counters); empty (no
  /// sections) when counters were off for the timed run.
  StagePerf stage_perf;
};

inline void print_table1_header() {
  print_row({"CIRCUIT", "MAX.TOP", "DELTA", "BEFORE", "AFTER", "AFTER",
             "C.A.", "C.A.", "CPU"},
            {14, 9, 9, 8, 8, 8, 8, 8, 8});
  print_row({"", "", "", "G.I.T.D.", "G.I.T.D.", "STEM C.", "#BTRCK",
             "RESULT", "(s)"},
            {14, 9, 9, 8, 8, 8, 8, 8, 8});
  std::cout << std::string(80, '-') << "\n";
}

inline void print_table1_row(const Table1Row& r) {
  print_row({r.circuit, fmt_time(r.top), fmt_time(r.delta) + r.delta_kind,
             to_string(r.before_gitd), to_string(r.after_gitd),
             to_string(r.after_stem), r.backtracks, r.result,
             fmt_secs(r.seconds)},
            {14, 9, 9, 8, 8, 8, 8, 8, 8});
}

inline Table1Row row_from_suite(const std::string& name, Time top,
                                Time delta, const std::string& kind,
                                const SuiteReport& rep) {
  Table1Row r;
  r.circuit = name;
  r.top = top;
  r.delta = delta;
  r.delta_kind = kind;
  r.before_gitd = rep.before_gitd;
  r.after_gitd = rep.after_gitd;
  r.after_stem = rep.after_stem;
  r.seconds = rep.seconds;
  r.backtracks_n = rep.backtracks;
  r.stage_seconds = rep.stage_seconds;
  r.stage_perf = rep.stage_perf;
  if (rep.vector) {
    r.witness = format_vector(*rep.vector);
    if (rep.violating_output) {
      r.witness += "@" + std::to_string(rep.violating_output->index());
    }
  }
  switch (rep.conclusion) {
    case CheckConclusion::kViolation:
      r.backtracks = std::to_string(rep.backtracks);
      r.result = "V";
      break;
    case CheckConclusion::kNoViolation:
      r.backtracks = rep.backtracks > 0 ? std::to_string(rep.backtracks) : "-";
      r.result = "N";
      break;
    case CheckConclusion::kAbandoned:
      r.backtracks = "A";
      r.result = "A";
      break;
    case CheckConclusion::kPossible:
      r.backtracks = "-";
      r.result = "P";
      break;
  }
  return r;
}

/// One stage's scaled counters as a JSON object body. Mirrors
/// report_io.cpp's per-check "perf" stages: wall_ns always, hardware
/// events only when the group actually read (hw).
inline void write_counter_totals_json(std::ostream& os,
                                      const prof::CounterTotals& t,
                                      bool hw) {
  // JSON has no nan/inf literal: a rate must never reach the stream
  // non-finite (the accessors guard zero denominators, but belt-and-braces
  // here keeps machine parsers safe whatever the counters did).
  const auto finite = [](double v) { return std::isfinite(v) ? v : 0.0; };
  os << "{\"wall_ns\":" << t.wall_ns;
  if (hw) {
    os << ",\"cycles\":" << t.cycles
       << ",\"instructions\":" << t.instructions
       << ",\"ipc\":" << finite(t.ipc())
       << ",\"cache_references\":" << t.cache_references
       << ",\"cache_misses\":" << t.cache_misses
       << ",\"cache_miss_rate\":" << finite(t.cache_miss_rate())
       << ",\"branch_misses\":" << t.branch_misses;
  }
  os << "}";
}

inline void write_stage_perf_json(std::ostream& os, const StagePerf& p) {
  const bool hw = p.total().hw_valid;
  os << ",\"perf\":{\"counters\":\""
     << (hw ? "available" : "unavailable") << "\"";
  if (!hw) {
    os << ",\"reason\":\"" << telemetry::json_escape(prof::unavailable_reason())
       << "\"";
  }
  const std::pair<const char*, const prof::CounterTotals*> stages[] = {
      {"narrowing", &p.narrowing},
      {"gitd", &p.gitd},
      {"stem", &p.stem},
      {"case_analysis", &p.case_analysis}};
  for (const auto& [name, totals] : stages) {
    if (!totals->any()) continue;
    os << ",\"" << name << "\":";
    write_counter_totals_json(os, *totals, hw);
  }
  os << "}";
}

/// Writes the collected rows as one JSON document (BENCH_table1.json): each
/// row carries the Table 1 columns plus the per-stage wall-clock breakdown.
/// The top level stamps the run's scope (`quick`, `upto` with "" for the
/// whole suite, `row_count`) so the CI verdict gate can refuse a baseline
/// cut short. `jobs` > 0 records the worker count of the parallel pass;
/// rows then also carry "seconds_parallel" (serial-vs-parallel comparison).
inline void write_table1_json(const std::string& path,
                              const std::vector<Table1Row>& rows, bool quick,
                              const std::string& upto, std::size_t jobs) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  const auto esc = [](const std::string& s) {
    return telemetry::json_escape(s);
  };
  os << "{\"bench\":\"table1\"";
  if (jobs > 0) os << ",\"jobs\":" << jobs;
  os << ",\"quick\":" << (quick ? "true" : "false")
     << ",\"upto\":\"" << esc(upto) << "\""
     << ",\"row_count\":" << rows.size();
  os << ",\"rows\":[";
  bool first = true;
  for (const auto& r : rows) {
    if (!first) os << ",";
    first = false;
    os << "{\"circuit\":\"" << esc(r.circuit) << "\""
       << ",\"top\":\"" << esc(r.top.str()) << "\""
       << ",\"delta\":\"" << esc(r.delta.str()) << "\""
       << ",\"delta_kind\":\"" << esc(r.delta_kind) << "\""
       << ",\"before_gitd\":\"" << to_string(r.before_gitd) << "\""
       << ",\"after_gitd\":\"" << to_string(r.after_gitd) << "\""
       << ",\"after_stem\":\"" << to_string(r.after_stem) << "\""
       << ",\"backtracks\":" << r.backtracks_n
       << ",\"result\":\"" << esc(r.result) << "\""
       << ",\"seconds\":" << r.seconds;
    if (r.seconds_parallel >= 0) {
      os << ",\"seconds_parallel\":" << r.seconds_parallel;
    }
    if (r.seconds_min >= 0) os << ",\"seconds_min\":" << r.seconds_min;
    if (r.trace_lines >= 0) os << ",\"trace_lines\":" << r.trace_lines;
    os << ",\"witness\":\"" << esc(r.witness) << "\"";
    os << ",\"stage_seconds\":{"
       << "\"narrowing\":" << r.stage_seconds.narrowing
       << ",\"gitd\":" << r.stage_seconds.gitd
       << ",\"stem\":" << r.stage_seconds.stem
       << ",\"case_analysis\":" << r.stage_seconds.case_analysis << "}";
    if (r.stage_perf.any()) write_stage_perf_json(os, r.stage_perf);
    os << "}";
  }
  os << "]}\n";
}

/// HEAD of the enclosing git checkout, or "unknown" outside one.
inline std::string git_sha() {
  std::string sha;
  if (FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = "";
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && std::isspace(static_cast<unsigned char>(sha.back()))) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// The "model name" of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    const auto b = line.find_first_not_of(' ', colon + 1);
    if (colon != std::string::npos && b != std::string::npos) {
      return line.substr(b);
    }
  }
  return "unknown";
}

/// Appends one JSONL entry to the bench history file and prints the
/// total-seconds delta against the previous entry (trend at a glance; the
/// committed file accumulates one line per recorded run). Each entry names
/// the commit and the machine (CPU count and model) it ran on, so entries
/// from different machines are never compared by accident.
inline void append_history(const std::string& path,
                           const std::vector<Table1Row>& rows, bool quick,
                           std::size_t repeat) {
  // Previous entry's total_seconds, scraped from the last non-empty line.
  double prev_total = -1.0;
  {
    std::ifstream in(path);
    std::string line, last;
    while (std::getline(in, line)) {
      if (!line.empty()) last = line;
    }
    const std::string key = "\"total_seconds\":";
    if (const auto pos = last.find(key); pos != std::string::npos) {
      prev_total = std::strtod(last.c_str() + pos + key.size(), nullptr);
    }
  }

  double total_seconds = 0.0;
  std::size_t total_backtracks = 0;
  StagePerf perf;
  for (const auto& r : rows) {
    total_seconds += r.seconds_min >= 0 ? r.seconds_min : r.seconds;
    total_backtracks += r.backtracks_n;
    perf.add(r.stage_perf);
  }

  char ts[32] = "";
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(ts, sizeof ts, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }

  std::ofstream os(path, std::ios::app);
  if (!os) throw std::runtime_error("cannot open " + path);
  os << "{\"bench\":\"table1\",\"ts\":\"" << ts << "\",\"quick\":"
     << (quick ? "true" : "false") << ",\"repeat\":" << repeat
     << ",\"rows\":" << rows.size()
     << ",\"git_sha\":\"" << telemetry::json_escape(git_sha()) << "\""
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":\"" << telemetry::json_escape(cpu_model()) << "\""
     << ",\"total_seconds\":" << total_seconds
     << ",\"total_backtracks\":" << total_backtracks;
  if (perf.any()) write_stage_perf_json(os, perf);
  os << ",\"rows_summary\":[";
  bool first = true;
  for (const auto& r : rows) {
    if (!first) os << ",";
    first = false;
    os << "{\"circuit\":\"" << telemetry::json_escape(r.circuit)
       << "\",\"delta\":\"" << telemetry::json_escape(r.delta.str())
       << "\",\"result\":\"" << telemetry::json_escape(r.result)
       << "\",\"seconds\":"
       << (r.seconds_min >= 0 ? r.seconds_min : r.seconds) << "}";
  }
  os << "]}\n";

  std::cout << "history: appended to " << path << " (total "
            << fmt_secs(total_seconds) << "s";
  if (prev_total >= 0.0) {
    const double d = total_seconds - prev_total;
    std::cout << ", " << (d >= 0 ? "+" : "") << fmt_secs(d)
              << "s vs previous";
    if (prev_total > 0.0) {
      std::cout << " [" << std::showpos << std::fixed << std::setprecision(1)
                << 100.0 * d / prev_total << "%" << std::noshowpos << "]";
    }
  }
  std::cout << ")\n";
}

}  // namespace waveck::bench
