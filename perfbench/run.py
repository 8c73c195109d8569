#!/usr/bin/env python3
"""The repository benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload cold-eval|served-mix \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the program and the driver
from source into $CARGO_TARGET_DIR (default .bench_build) with CMake, runs
perfbench_driver (see driver.cpp for the phases) and prints, as the last
line of standard output, one JSON object: correct, attempted, failed and
the metrics -- every end-to-end metric with --trace 0, every per-layer
metric with --trace 1 (see README.md). Build logs and a readable summary
go to standard error. Exits 1 when the build or run fails or a
correctness gate trips.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

WORKLOADS = ("cold-eval", "served-mix")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build incrementally; logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "Makefile").exists():
        rc = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            fail("cmake configure failed")
    rc = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench_driver"],
        stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        fail("build failed")
    return build_dir / "perfbench_driver"


def run_driver(cmd):
    """Run the driver in its own process group so that a timeout also
    stops the plan server it spawned."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")


def report(result):
    for name, m in result["metrics"].items():
        note = ""
        ref = metrics.PAPER_MISS_REDUCTION_X.get(
            name.removeprefix("miss_reduction_x."))
        if name.startswith("miss_reduction_x.") and ref:
            note = (f"   (paper: {ref:g}x; scaled model, not validated "
                    "against hardware, so no error figure)")
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}{note}",
              file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = HERE.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    driver = build(target / "perfbench")

    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work = target / f"work-{tag}"
    out = target / f"raw-{tag}.json"
    spans_path = Path(str(out) + ".spans")
    try:
        rc = run_driver([
            str(driver), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace",
            str(args.trace), "--work", str(work), "--out", str(out)])
        if rc != 0:
            fail(f"driver exited with {rc}")
        raw = json.loads(out.read_text())
        spans = []
        if args.trace:
            with open(spans_path) as f:
                spans = [json.loads(line) for line in f]
    finally:
        for p in (out, spans_path):
            p.unlink(missing_ok=True)
        shutil.rmtree(work, ignore_errors=True)

    result = metrics.summarize(raw, spans)
    for e in raw["errors"]:
        print(f"perfbench: correctness gate: {e}", file=sys.stderr)
    report(result)
    print(f"  driver peak RSS {raw['driver_rss_mb']:.1f} MB, server VmHWM "
          f"{raw['server_rss_mb']:.1f} MB, run wall {raw['run_wall_s']:.1f} s, "
          f"{raw['references']} reference answers", file=sys.stderr)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
