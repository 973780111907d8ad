"""Steadiness procedure for the benchmark.

    python3 bench/steady.py [--out FILE] [--against FILE]

Runs every workload RUNS times untraced, each with its own seed (1, 2, ...),
then once more with the held-out seed, which no tuning used. For each
end-to-end metric it prints the median and the quartile spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json. With
--against it also compares the medians with an earlier --out file. Exits 1
when a run fails its checks, a spread reaches its bound, or a median is
worse than the earlier one by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
HELD_OUT_SEED = 104729


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    info, result = proc.stdout.splitlines()[-2:]
    return {**json.loads(result), "info": json.loads(info)}


def worse_by(metric, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return -change if metric["better"] == "higher" else change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write every run's result here")
    parser.add_argument("--against", type=Path, help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    earlier = json.loads(args.against.read_text()) if args.against else {}
    ok = True
    record = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in [*range(1, RUNS + 1), HELD_OUT_SEED]:
            result = run_once(spec, name, seed)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
        record[name] = runs
        tuned = runs[:-1]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [r["metrics"][key]["value"] for r in tuned]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = (f"{name:15s} {key:12s} median {median:12.6g}  spread {spread:6.3f}"
                    f"  bound {metric['bound']:.2f}")
            if spread >= metric["bound"]:
                ok, line = False, line + "  SPREAD TOO WIDE"
            if name in earlier:
                before = statistics.median(r["metrics"][key]["value"] for r in earlier[name][:-1])
                drift = worse_by(metric, before, median)
                line += f"  vs earlier {drift:+.3f}"
                if drift > metric["bound"]:
                    ok, line = False, line + "  WORSE THAN EARLIER"
            print(line)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
