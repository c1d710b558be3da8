#!/usr/bin/env python3
"""Build and run the gridgather benchmark.

One run (what BENCHMARK.json's command does), from the repository root:

    python3 perfbench/run.py --workload gather-mid --seed 1 --seconds 10 --trace 0

builds the Go program in this directory into the build directory
($CARGO_TARGET_DIR, default .bench_build) and runs it. The program's last
line of output is the JSON result; the exit code is non-zero when the build
fails, a check fails or the run times out.

Steadiness mode repeats workloads over several seeds and reports, for each
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1) /
median against the metric's bound in BENCHMARK.json:

    python3 perfbench/run.py --steady 5 --workloads frontier --seconds 10
    python3 perfbench/run.py --steady 10 --sets 2   # BENCHMARK.json's workloads

With --sets 2 it also compares the two sets' medians against the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["gather-mid", "frontier", "checkpoint", "gatherd-mixed"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds the benchmark binary; returns its path, or None on failure.

    Every cache and temporary file the Go toolchain writes stays inside the
    build directory.
    """
    out = build_dir()
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "go-cache"),
        "GOTMPDIR": os.path.join(out, "go-tmp"),
        "GOPATH": os.path.join(out, "go-path"),
        "GOMODCACHE": os.path.join(out, "go-path", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "xdg-config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    for key in ("GOCACHE", "GOTMPDIR", "GOMODCACHE", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    return binary


def run_once(binary, workload, seed, seconds, trace, capture=False):
    """Runs one benchmark process; returns (exit code, stdout or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", build_dir()]
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} ran over {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 124, None
    return p.returncode, p.stdout


def spread(values):
    """Returns (median, Q1, Q3, (Q3 - Q1) / median) as the acceptance rule computes them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    metrics = manifest["end_to_end"]
    if args.workloads:
        workloads = args.workloads.split(",")
    else:
        workloads = [w["name"] for w in manifest["workloads"]]
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.steady):
                seed = args.seed + 1000 * s + i
                code, out = run_once(binary, w, seed, args.seconds, 0, capture=True)
                if code != 0 or not out:
                    print(f"{w}: seed {seed} failed (exit {code})")
                    return 1
                res = json.loads(out.strip().splitlines()[-1])
                for m in metrics:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
                print(f"{w} set {s} seed {seed}: " + " ".join(
                    f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
            sets.append(values)
        print(f"\n{w}: {args.steady} runs per set, --seconds {args.seconds}")
        print(f"  {'metric':<12} {'set':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, values in enumerate(sets):
                med, q1, q3, sp = spread(values[name])
                meds.append(med)
                if name == "setup_s":
                    verdict = "(spread not bounded)"
                elif sp <= bound / 3:
                    verdict = "steady"
                elif sp <= bound:
                    verdict = "within bound, above a third of it"
                else:
                    verdict = "TOO NOISY"
                    ok = False
                print(f"  {name:<12} {s:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{sp:8.4f} {bound:6.3f}  {verdict}")
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                verdict = "agree" if worse <= bound else "SECOND SET WORSE BEYOND BOUND"
                ok = ok and worse <= bound
                print(f"  {name:<12} set 1 vs set 0: {worse:+.4f} of the median  {verdict}")
        print(flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="steadiness mode: runs per workload and set (at least 2)")
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--workloads",
                    help="comma-separated workloads for --steady (default: BENCHMARK.json's)")
    args = ap.parse_args()
    if not args.steady and not args.workload:
        ap.error("--workload is required")
    if args.steady == 1:
        ap.error("--steady needs at least 2 runs")
    binary = build()
    if binary is None:
        return 2
    if args.steady:
        return steady(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
