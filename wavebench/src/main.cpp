// wavebench: the waveck benchmark driver. Normally started by run.py, which
// builds it and passes the provenance fields; see wavebench/README.md.
//
//   wavebench --workload search|sweep|oneshot --seed N --seconds S --trace 0|1
//             [--expected-dir DIR] [--spans-out FILE] [--max-ops N]
//             [--list-ops] [--git-sha SHA] [--src-digest HEX]
//   wavebench --record DIR
#include <iostream>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  wavebench::Options opt;
  std::string record_dir;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace 0|1");
        opt.trace = t == "1";
      } else if (arg == "--expected-dir") {
        opt.expected_dir = value();
      } else if (arg == "--spans-out") {
        opt.spans_out = value();
      } else if (arg == "--max-ops") {
        opt.max_ops = std::stoull(value());
      } else if (arg == "--list-ops") {
        opt.list_ops = true;
      } else if (arg == "--git-sha") {
        opt.git_sha = value();
      } else if (arg == "--src-digest") {
        opt.src_digest = value();
      } else if (arg == "--record") {
        record_dir = value();
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "wavebench: " << e.what() << "\n";
    return 2;
  }
  if (!record_dir.empty()) return wavebench::record_expected(record_dir);
  return wavebench::run_workload(opt);
}
