"""Run the benchmark repeatedly and report each metric's spread.

    python3 perfbench/repeat.py --runs 10 [--first-seed 1] [--workload NAME ...]
                                [--raw FILE]

Runs every workload (or the named ones) once per seed for the spec's
``run_seconds``, interleaving the workloads so host drift spreads over all of
them, then prints, per workload
and metric, the median and the distance between the first and third
quartiles (Python's ``statistics.quantiles(values, n=4)``) as a share of the
median, together with the host calibration loop's figures.  ``--raw`` appends
every run's result line, with its workload, seed and wall time, to FILE.  Run
it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    calib = [float(tok) for line in proc.stderr.splitlines() if line.startswith("host.calib_ms ")
             for tok in line.split()[1:3]]
    return result, wall, calib


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--raw")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    samples = {w: {} for w in names}
    calibs = {w: [] for w in names}
    walls = {w: [] for w in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in names:
            result, wall, calib = run_once(w, seed, seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{w} seed {seed}: incorrect result {result}")
            for name, m in result["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
            calibs[w].extend(calib)
            walls[w].append(wall)
            if args.raw:
                with open(args.raw, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, "wall_s": wall, "calib_ms": calib,
                                        "result": result}) + "\n")
            print(f"# {w} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)
    for w in names:
        print(f"{w}  ({args.runs} runs, {statistics.median(walls[w]):.1f} s wall each, "
              f"host.calib_ms median {statistics.median(calibs[w]):.3f} spread {spread(calibs[w])[1]:.3f})")
        for name, values in samples[w].items():
            med, sp = spread(values)
            print(f"  {name:28s} median {med:16.6g}  iqr/median {sp:7.4f}"
                  f"  min {min(values):.6g}  max {max(values):.6g}")


if __name__ == "__main__":
    main()
