// The benchmark's three workloads over the Table-1 suite (see
// wavebench/README.md for why each exists and what each metric means).
//
//   search  : every c6288-analog output at each delta of a seeded ladder
//             around its reported delay, warm Verifier, 500-backtrack budget
//   sweep   : every output of the ten other suite circuits at seeded deltas
//             on both sides of each circuit's exact delay, warm Verifiers
//   oneshot : the cold `waveck delay` flow per circuit (parse, Verifier,
//             exact_floating_delay, witness simulation)
//
// The program is driven only through its public entry points, and only
// through generated `.bench` text plus a `* 10 10` delay annotation.
#pragma once

#include <cstdint>
#include <string>

namespace wavebench {

struct Options {
  std::string workload;  // search | sweep | oneshot
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Expected fingerprints and delays (checks.tsv, delays.tsv).
  std::string expected_dir = "wavebench/expected";
  /// Traced run: where the span document is written ("" = not written).
  std::string spans_out;
  /// Caps the op list after shuffling (0 = whole list). For self-tests.
  std::size_t max_ops = 0;
  /// Print the seeded op list and exit without timing anything.
  bool list_ops = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

/// Runs one workload and prints its report; the last stdout line is the
/// result JSON. Returns 0 when every op passed the correctness gate, 1 when
/// some op failed it, 2 on a usage or input error (nothing printed then).
int run_workload(const Options& opt);

/// Regenerates checks.tsv and delays.tsv in `expected_dir` from the
/// current program, checking that every delta of a ten-unit delay class
/// yields the same fingerprint. Returns 0 on success.
int record_expected(const std::string& expected_dir);

}  // namespace wavebench
