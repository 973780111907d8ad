"""votesim benchmark: one workload per process, one thread, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the loop calls votesim's public API back to back for S
seconds of work and reports the end-to-end metrics of BENCHMARK.json. With
--trace 1 it repeats a fixed, seed-determined set of calls, alternating an
untraced pass with a traced pass, and reports the per-layer metrics. Every
output is checked. The last stdout line is the JSON result; the line before
it holds the environment and the check details. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
#: fresh interpreters started per untraced run to time set-up; the median is reported
SETUP_PROBES = 11

#: Times are reported at a reference machine speed at which one 256-bit
#: modexp takes 180 us. The host's speed drifts by 10-30 % over minutes (other
#: tenants), so each run times this fixed kernel between calls and scales.
REFERENCE_MODEXP_S = 180e-6
_KERNEL_MODULUS = int("14a95c29a12209c1294ea72a403a55d216a084e7a6f7a83225c63bd690dc01ee7", 16)
_KERNEL_POWS = 20
#: share of the measured work time spent on the kernel
_KERNEL_SHARE = 0.05
#: kernel samples nearest to a call that set its scale
_NEAREST = 25
#: kernel samples taken just before and just after each set-up probe, which set its scale
_PROBE_SIDE = 3


class Calibration:
    """Samples the time of one modexp between the benchmark's calls."""

    def __init__(self):
        #: (perf_counter time, seconds per modexp)
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        x = 3
        for _ in range(_KERNEL_POWS):
            x = pow(x, _KERNEL_MODULUS - 3, _KERNEL_MODULUS)
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, (end - start) / _KERNEL_POWS))
        self.spent += end - start

    def keep_up(self, busy: float) -> None:
        """Sample until the kernel has taken its share of `busy` seconds."""
        self.sample()
        while self.spent < _KERNEL_SHARE * busy:
            self.sample()

    def scale(self, at: float | None = None, nearest: int = _NEAREST) -> float:
        """Factor that turns a measured time into reference time: from the
        `nearest` samples nearest to time `at`, or from the whole run."""
        samples = self.samples
        if at is not None:
            samples = sorted(samples, key=lambda s: abs(s[0] - at))[:nearest]
        return REFERENCE_MODEXP_S / statistics.median(s for _, s in samples)


def load_library() -> bool:
    """Put the checkout's src/ first on sys.path and import the workloads."""
    src = ROOT / "src"
    if not (src / "votesim" / "__init__.py").is_file():
        print(f"votesim sources not found under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import votesim

    if Path(votesim.__file__).resolve().parent != src / "votesim":
        print(f"imported votesim from {votesim.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: set up, run the warm-up op, print the monotonic clock")
    return parser.parse_args(argv)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/votesim/*.py, so a result names its code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "votesim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "run": "traced" if args.trace else "untraced",
    }


def measure_setup(args, calibration) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to the end of its warm-up op,
    as measured and scaled by the kernel samples taken around each probe."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe-setup"]
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        for _ in range(_PROBE_SIDE):
            calibration.sample()
        mid = time.perf_counter()
        start = time.monotonic_ns()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed = (int(proc.stdout.split()[-1]) - start) / 1e9
        mid = (mid + time.perf_counter()) / 2
        for _ in range(_PROBE_SIDE):
            calibration.sample()
        measured.append(elapsed)
        scaled.append(elapsed * calibration.scale(mid, nearest=2 * _PROBE_SIDE))
    return measured, scaled


class Checker:
    """Runs a workload's checks and the pinned digests over each output."""

    def __init__(self, workload, name, seed):
        self.workload = workload
        golden = json.loads((BENCH / "golden.json").read_text())
        self.pins = golden.get(name, []) if seed == DEFAULT_SEED else []
        self.digests: dict[int, str] = {}
        self.failed = 0
        self.errors: list[str] = []

    def call(self, index, inputs):
        """Run one call; an exception fails its ops and the loop goes on."""
        try:
            return self.workload.run(inputs)
        except Exception:
            self.failed += self.workload.ops(inputs)
            self.errors.append(f"call {index}: {traceback.format_exc()}")
            return None

    def record(self, index, inputs, output) -> None:
        if output is None:
            return
        self.workload.record(index, inputs, output)
        if index < 3:
            digest = self.digests[index] = self.workload.digest(output)
            if index < len(self.pins) and digest != self.pins[index]:
                self.failed += self.workload.ops(inputs)
                self.errors.append(f"call {index}: digest {digest} is not pinned")

    def finish(self):
        failed, detail = self.workload.finish()
        detail.update(errors=self.errors, digests=self.digests, pinned=bool(self.pins))
        return failed + self.failed, detail


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def untraced_run(args, workload, checker, calibration):
    setup, scaled_setup = measure_setup(args, calibration)
    calibration.keep_up(sum(setup))
    workload.warmup()
    calls, busy = [], 0.0
    while busy < args.seconds:
        inputs = workload.inputs(len(calls))
        start = time.perf_counter()
        output = checker.call(len(calls), inputs)
        elapsed = time.perf_counter() - start
        checker.record(len(calls), inputs, output)
        busy += elapsed
        calls.append((start + elapsed / 2, elapsed, workload.ops(inputs)))
        calibration.keep_up(sum(setup) + busy)
    ops = sum(n for _, _, n in calls)
    scaled = [elapsed * calibration.scale(mid) for mid, elapsed, _ in calls]
    op_ms = [t * 1e3 / n for t, (_, _, n) in zip(scaled, calls)]
    raw_op_ms = [elapsed * 1e3 / n for _, elapsed, n in calls]
    metrics = {
        "setup_s": (statistics.median(scaled_setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": (ops / sum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (p90(op_ms), "ms"),
    }
    detail = {"measured": {"setup_s": statistics.median(setup), "ops_per_s": ops / busy,
                           "op_p50_ms": statistics.median(raw_op_ms),
                           "op_p90_ms": p90(raw_op_ms)},
              "setup_s_samples": setup, "calls": len(calls), "op_ms_samples": len(op_ms)}
    return ops, metrics, detail


def traced_run(args, workload, checker, calibration):
    from tracer import LABELS, Tracer

    plan = [workload.inputs(i) for i in range(workload.trace_calls)]
    plan_ops = sum(workload.ops(inputs) for inputs in plan)
    workload.warmup()
    tracer = Tracer()
    first: list = []
    times = {False: [], True: []}
    attempted = 0
    calibration.keep_up(0)
    while not times[True] or sum(times[False]) + sum(times[True]) < args.seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            outputs = []
            start = time.perf_counter()
            for index, inputs in enumerate(plan):
                tracer.op = index
                outputs.append(checker.call(index, inputs))
            times[traced].append(time.perf_counter() - start)
            calibration.keep_up(sum(times[False]) + sum(times[True]))
            if traced:
                tracer.remove()
                tracer.fold(keep=len(times[True]) == 1)
            attempted += plan_ops
            if not first:
                first = outputs
                for index, (inputs, output) in enumerate(zip(plan, outputs)):
                    checker.record(index, inputs, output)
                continue
            for inputs, output, reference in zip(plan, outputs, first):
                if output is not None and output != reference:
                    checker.failed += workload.ops(inputs)
                    checker.errors.append("a repeated call gave a different output")
    tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")

    traced_ops = plan_ops * len(times[True])
    ms_per_ns = calibration.scale() / 1e6
    metrics = {}
    for label in LABELS:
        metrics[f"{label}.calls"] = (tracer.calls[label] / traced_ops, "count/op")
        metrics[f"{label}.self_ms"] = (tracer.self_ns[label] * ms_per_ns / traced_ops, "ms/op")
    sizes = [workload.transcript_size(out) for out in first if out is not None]
    metrics["simnet.messages"] = (sum(m for m, _ in sizes) / plan_ops, "count/op")
    metrics["simnet.transcript_bytes"] = (sum(b for _, b in sizes) / plan_ops, "B/op")
    samples = sum(tracer.samples.values())
    for kind in ("clean", "garbage", "blocked"):
        metrics[f"hevs.samples.{kind}_frac"] = (
            tracer.samples[kind] / samples if samples else 0.0, "fraction")
    overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    detail = {"passes": len(times[True]), "ops_per_pass": plan_ops,
              "pass_s": {"untraced": times[False], "traced": times[True]}}
    return attempted, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_library():
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.probe_setup:
        workload.warmup()
        print(time.monotonic_ns())
        return 0

    checker = Checker(workload, args.workload, args.seed)
    calibration = Calibration()
    if args.trace:
        attempted, metrics, detail = traced_run(args, workload, checker, calibration)
    else:
        attempted, metrics, detail = untraced_run(args, workload, checker, calibration)
    failed, checks = checker.finish()
    detail.update(checks=checks, scale=calibration.scale(),
                  modexp_us=[round(s * 1e6, 2) for _, s in calibration.samples])
    print(json.dumps({"env": environment(args), "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
