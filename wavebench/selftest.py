#!/usr/bin/env python3
"""Self-test of the waveck benchmark harness. Run from the repository root:

    python3 wavebench/selftest.py

It builds the driver through run.py and checks that
  1. a short run of every workload prints every metric BENCHMARK.json names,
     with its unit, untraced (end-to-end) and traced (per-layer);
  2. a tampered expected fingerprint, delay or lower bound fails the run;
  3. the same seed gives an identical op list, and a different seed gives a
     different search delta ladder.
Exits 0 when every check passes. Scratch files go under .bench_build/.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
SCRATCH = ROOT / ".bench_build" / "selftest"

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(*args):
    r = subprocess.run(RUN + list(args), capture_output=True, text=True,
                       cwd=ROOT, timeout=600)
    return r.returncode, r.stdout, r.stderr


def result(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def list_ops(workload, seed):
    rc, out, err = run("--workload", workload, "--seed", str(seed),
                       "--list-ops")
    if rc != 0:
        raise SystemExit(f"--list-ops failed: {err}")
    return out.splitlines()


def check_metrics(workload, trace, spec):
    rc, out, err = run("--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--max-ops", "24")
    res = result(out)
    check(rc == 0 and res is not None and res["correct"],
          f"{workload} trace={trace}: short run passes the gate"
          + ("" if rc == 0 else f" (rc {rc}: {err.strip()[-300:]})"))
    if res is None:
        return
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace={trace}: result has exactly the four keys")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    check(got == want,
          f"{workload} trace={trace}: every metric printed with its unit")
    check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for v in res["metrics"].values()),
          f"{workload} trace={trace}: every value is a finite number")


def tamper_checks():
    """Alters the fingerprint of the first op a short sweep runs."""
    label, output, delta = list_ops("sweep", 7)[1].split()
    cls = -(-int(delta) // 10) * 10
    tampered = SCRATCH / "tampered-checks"
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(BENCH_DIR / "expected", tampered)
    path = tampered / "checks.tsv"
    lines = path.read_text().splitlines()
    hit = 0
    for i, line in enumerate(lines):
        f = line.split("\t")
        if f[:3] == [label, output, str(cls)]:
            conclusion, backtracks, witness = f[3].split("/")
            f[3] = f"{conclusion}/{int(backtracks) + 1}/{witness}"
            lines[i] = "\t".join(f)
            hit += 1
    path.write_text("\n".join(lines) + "\n")
    check(hit == 1, "tampered exactly one checks.tsv row")
    rc, out, _ = run("--workload", "sweep", "--seed", "7", "--seconds", "1",
                     "--max-ops", "24", "--expected-dir", str(tampered))
    res = result(out)
    check(rc == 1 and res is not None and not res["correct"]
          and res["failed"] >= 1, "tampered check fingerprint fails the run")


def tamper_delays():
    """Raises every exact delay, so whichever circuit a short oneshot runs
    must fail."""
    tampered = SCRATCH / "tampered-delays"
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(BENCH_DIR / "expected", tampered)
    path = tampered / "delays.tsv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        f = line.split("\t")
        if len(f) == 4 and f[2] == "E":
            f[1] = str(int(f[1]) + 10)
            lines[i] = "\t".join(f)
    path.write_text("\n".join(lines) + "\n")
    rc, out, _ = run("--workload", "oneshot", "--seed", "7", "--seconds", "1",
                     "--max-ops", "10", "--expected-dir", str(tampered))
    res = result(out)
    check(rc == 1 and res is not None and not res["correct"],
          "tampered expected delay fails the run")


def tamper_lower_bound():
    """Raises the recorded c6288 lower bound above what its witness reaches;
    runs search up to the op that replays that witness."""
    tampered = SCRATCH / "tampered-bound"
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(BENCH_DIR / "expected", tampered)
    path = tampered / "delays.tsv"
    lines = path.read_text().splitlines()
    output = None
    for i, line in enumerate(lines):
        f = line.split("\t")
        if f[0] == "c6288-analog" and f[2] == "L":
            output = f[3].split("/")[0]
            f[1] = str(int(f[1]) + 10)
            lines[i] = "\t".join(f)
    path.write_text("\n".join(lines) + "\n")
    ops = list_ops("search", 7)[1:]
    index = ops.index(f"c6288-analog {output} 1600")
    rc, out, _ = run("--workload", "search", "--seed", "7", "--seconds", "1",
                     "--max-ops", str(index + 1), "--expected-dir",
                     str(tampered))
    res = result(out)
    check(rc == 1 and res is not None and not res["correct"],
          "raised c6288 lower bound fails the search run")


def seeds():
    for w in ("search", "sweep", "oneshot"):
        check(list_ops(w, 11) == list_ops(w, 11),
              f"{w}: same seed gives an identical op list")
    ladder = lambda seed: sorted({int(l.split()[2])
                                  for l in list_ops("search", seed)[1:]})
    a, b = ladder(11), ladder(12)
    check(a != b, f"search: seeds 11 and 12 give different ladders {a} {b}")
    check(1600 in a and 1600 in b, "search: every ladder keeps delta 1600")


def main():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in ("search", "sweep", "oneshot"):
        check_metrics(w, 0, spec["end_to_end"])
        check_metrics(w, 1, spec["per_layer"])
    tamper_checks()
    tamper_delays()
    tamper_lower_bound()
    seeds()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
