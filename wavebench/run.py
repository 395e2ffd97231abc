#!/usr/bin/env python3
"""Build and run the waveck benchmark.

Run from the repository root:

    python3 wavebench/run.py --workload search|sweep|oneshot|all \\
        --seed N --seconds S --trace 0|1

The first run configures and builds `wavebench/` (Release) into
`.bench_build/` (or $CARGO_TARGET_DIR when set); later runs rebuild
incrementally. The last line of standard output is the result JSON of the
(last) workload. Extra options are passed to the driver binary:
--max-ops N, --list-ops, --expected-dir DIR, and --record DIR, which
regenerates the expected fingerprints. See wavebench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("search", "sweep", "oneshot")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"wavebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root if root.is_absolute() else ROOT / root


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the waveck sources are missing next to {BENCH_DIR.name}/")
    out = build_root() / "wavebench"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "wavebench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (rc {rc}); full log in {log_path}")
    return out / "wavebench"


def git_sha():
    """HEAD of the checkout, or "unknown" when ROOT is not itself the top of
    a git work tree (an enclosing repository would name the wrong code)."""
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                            "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def src_digest():
    """SHA-256 over the engine and benchmark sources; identifies the code
    measured where no git metadata exists."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in top.rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_one(binary, args, workload, extra):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected-dir", str(args.expected_dir),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    if args.trace == 1:
        spans = build_root() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd + extra, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"wavebench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected-dir", default=str(BENCH_DIR / "expected"))
    ap.add_argument("--record", metavar="DIR")
    args, extra = ap.parse_known_args()
    if args.record is None and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.record is not None:
        sys.exit(subprocess.run([str(binary), "--record", args.record],
                                timeout=3600).returncode)
    rc = 0
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        rc = max(rc, run_one(binary, args, w, extra))
    sys.exit(rc)


if __name__ == "__main__":
    main()
