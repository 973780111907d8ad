"""Tests of the benchmark itself: metric names, exact op counts, checks.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracer import LABELS, Tracer  # noqa: E402
from workloads import WORKLOADS, accuracy_band  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(workload, trace, seed=1, seconds="0.5"):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", seconds,
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    info, last = proc.stdout.splitlines()[-2:]
    return json.loads(info), json.loads(last)


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.remove()
    tracer.fold()
    return tracer


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(trace):
    info, out = result("elections-hev", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    env = info["env"]
    assert env["run"] == ("traced" if trace else "untraced") and env["seed"] == 1
    assert {"python", "cpu_count", "affinity", "git_commit", "source_sha256"} <= set(env)
    assert info["detail"]["checks"]["pinned"]


def test_traced_calls_repeat_exactly():
    runs = [result("elections-hevs", 1, seed=5)[1]["metrics"] for _ in range(2)]
    calls = [{k: v["value"] for k, v in m.items() if k.endswith(".calls")} for m in runs]
    assert calls[0] == calls[1]
    assert calls[0]["hev.encrypt_vote.calls"] > 0


def test_hev_round_trip_counts():
    # 5 exp (keygen 1, encrypt 3, decryption share 1) and 1 is_element
    # (encrypt) per voter per run; replay runs the election again.
    w = WORKLOADS["elections-hev"](3)
    config = w.inputs(0)
    run_only = traced(lambda: workloads.simnet.run_election(config))
    assert run_only.calls["group.exp"] == 5 * config.n
    assert run_only.calls["group.is_element"] == config.n
    round_trip = traced(lambda: w.run(config))
    assert round_trip.calls["group.exp"] == 10 * config.n
    assert round_trip.calls["group.is_element"] == 2 * config.n


def test_hevs_encryption_counts():
    # Encrypting one vote under one sampled key costs 3 exp and 1 is_element.
    config = WORKLOADS["elections-hevs"](3).inputs(0)
    tracer = Tracer()
    tracer.install()
    try:
        workloads.simnet.run_election(config)
    finally:
        tracer.remove()
    spans = tracer.spans
    encrypts = {i for i, s in enumerate(spans) if s[0] == "hev.encrypt_vote"}
    assert len(encrypts) == config.n * config.k
    under = [s[0] for s in spans if s[3] in encrypts]
    assert under.count("group.exp") == 3 * len(encrypts)
    assert under.count("group.is_element") == len(encrypts)
    assert sum(s[0] == "group.is_element" for s in spans) == config.n * config.k


def test_tracer_restores_every_binding():
    import votesim.hev
    import votesim.hevs
    from votesim.group import GroupParams

    before = (votesim.hev.encrypt_vote, votesim.hevs.encrypt_vote, GroupParams.exp)
    tracer = traced(lambda: None)
    assert (votesim.hev.encrypt_vote, votesim.hevs.encrypt_vote, GroupParams.exp) == before
    assert set(tracer.calls) <= set(LABELS)


@pytest.mark.parametrize("successes, trials, p, ok", [
    (99, 100, 0.99992, True),     # one failure where 0.008 are expected: Poisson tail
    (97, 100, 0.99992, False),
    (29, 100, 0.5, False),        # 4.2 sigma low
    (62, 100, 0.5, True),
    (900, 1000, 0.9, True),
    (100, 100, 1.0, True),
    (99, 100, 1.0, False),
])
def test_accuracy_band(successes, trials, p, ok):
    assert accuracy_band(successes, trials, p)[2] is ok


def test_sweep_checks_catch_wrong_accuracy():
    symbolic = WORKLOADS["sweep-symbolic"](1)
    configs = symbolic.inputs(0)
    rows = symbolic.run(configs)
    bad = [replace(r, accuracy=0.0) for r in rows]
    symbolic.record(0, configs, bad)
    failed, detail = symbolic.finish()
    assert failed > 0 and not all(p["ok"] for p in detail["points"])

    full = WORKLOADS["sweep-full"](1)
    configs = full.inputs(0)[:2]
    rows = full.run(configs)
    flipped = [replace(r, accuracy=1.0 - r.accuracy) for r in rows]
    full.record(0, configs, flipped)
    assert full.finish()[0] == sum(c.trials for c in configs)


def test_election_checks_catch_wrong_counts():
    w = WORKLOADS["elections-bsv"](1)
    config = w.inputs(0)
    outcome, lines, replayed = w.run(config)
    w.record(0, config, (outcome, lines, replayed))
    assert w.finish()[0] == 0
    flipped = tuple("against" if v == "for" else "for" for v in config.votes)
    wrong = replace(config, votes=flipped)
    w.record(1, wrong, (outcome, lines, replayed))
    assert w.finish()[0] == 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-symbolic", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
