import contextlib
import functools
import math
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from votesim import bsv, cli, experiments, hevs, pool
from votesim.adversary import VoterRole
from votesim.experiments import (
    CSV_COLUMNS,
    TrialConfig,
    analytic_csv,
    analytic_table,
    expected_accuracy,
    format_number,
    grid,
    run_point,
    TRIAL_BEHAVIORS,
    run_sweep,
    run_trial,
    run_trials,
    sweep_csv,
)
from votesim.errors import ConfigError, DiscreteLogNotFound
from votesim.group import GroupParams, default_group
from votesim.hevs import reliability_probability_with_replacement, resolve_sample_size
from votesim.seeding import WorldReader, derive_seed, flags, spawn
from votesim.simnet import ElectionConfig, run_election

from pins import EDGE_PIN, TRIAL_PIN, WIDE_PIN, edge_pinned_text, pinned_text, wide_pinned_text
from reference import empirical_sample_reliability, symbolic_trial

#: this process's CPU affinity before any test has run a sweep
START_AFFINITY = os.sched_getaffinity(0)


def test_trial_config_validation():
    TrialConfig(n=10, p_fail=0.1, k=4)
    for bad in (
        dict(n=0, p_fail=0.1, k=4),
        dict(n=10, p_fail=1.5, k=4),
        dict(n=10, p_fail=0.1, k=0),
        dict(n=10, p_fail=0.1, k=4, min_consistency=1),
        dict(n=10, p_fail=0.1, k=4, trials=0),
        dict(n=10, p_fail=0.1, k=4, seeds=()),
        dict(n=10, p_fail=0.1, k=4, seeds=[1, 2]),
        dict(n=10, p_fail=0.1, k=4, seeds=(seed for seed in (1, 2))),
        dict(n=10, p_fail=0.1, k=4, mode="psychic"),
        dict(n=10, p_fail=0.1, k=4, behavior="extra_vote"),
        dict(n=10, p_fail=0.1, k=4, t_policy="cube"),
        dict(n=65536, p_fail=0.1, k=4),
        dict(n=10 ** 40, p_fail=0.1, k=4),
        dict(n=10, p_fail=0.1, k=65536),
        dict(n=10, p_fail=0.1, k=10 ** 40),
        dict(n=10, p_fail=0.1, k=4, t_policy=65536),
    ):
        with pytest.raises(ValueError):
            TrialConfig(**bad)
    # t is derived from t_policy and n: no init argument, and outside repr and ==
    with pytest.raises(TypeError):
        TrialConfig(n=10, p_fail=0.1, k=4, t=3)
    config = TrialConfig(n=10, p_fail=0.1, k=4)
    assert repr(config) == ("TrialConfig(n=10, p_fail=0.1, k=4, t_policy='sqrt-half', "
                            "min_consistency=2, trials=1000, seeds=(1, 2, 3), mode='symbolic', "
                            "behavior='fake_share')")
    assert config == replace(config) and hash(config) == hash(replace(config))
    # sqrt-half of 10 is 3: the same t, but another t_policy
    assert config.t == replace(config, t_policy=3).t == 3 and replace(config, t_policy=3) != config


@pytest.mark.parametrize("bad", [
    dict(n=5.0), dict(n=True), dict(n="5"),
    dict(k=3.0), dict(k=True),
    dict(min_consistency=2.0), dict(min_consistency=True),
    dict(trials=10.0), dict(trials=True),
    dict(p_fail=True), dict(p_fail=False), dict(p_fail="0.1"), dict(p_fail=None),
    dict(seeds=(1, 2.0)), dict(seeds=(True,)), dict(seeds=("1",)),
])
def test_trial_config_rejects_wrong_types(bad):
    with pytest.raises(ValueError):
        TrialConfig(**{**dict(n=5, p_fail=0.1, k=3), **bad})


def test_trial_config_takes_sizes_up_to_the_bound():
    assert hevs.MAX_TRIAL_SIZE == 65535
    assert hevs.MAX_PLAN_INDICES == 2 ** 24
    # half of 65535 is t = 32768 = 2 ** 15, so k * t is exactly the bound
    config = TrialConfig(n=65535, p_fail=0.1, k=2 ** 9, t_policy="half")
    assert config.t == resolve_sample_size("half", 65535) == 2 ** 15
    # replace resolves t again for the new n
    for n in (1, 2, 50, 65534):
        assert replace(config, n=n).t == resolve_sample_size("half", n)
    assert replace(config, n=50, t_policy="sqrt-half").t == 5
    assert TrialConfig(n=10, p_fail=0.1, k=4, t_policy=65535).t == 65535
    assert TrialConfig(n=10, p_fail=0.1, k=4000, t_policy=4000).t == 4000
    for k, t_policy in ((2 ** 9 + 1, "half"), (65535, 65535), (4000, 4195)):
        with pytest.raises(ValueError, match="k \\* t must be at most 16777216"):
            TrialConfig(n=65535, p_fail=0.1, k=k, t_policy=t_policy)


def _named_field(make, error) -> str | None:
    """The field that make()'s error names, or None when make() succeeds."""
    try:
        make()
    except error as exc:
        return str(exc).split(" must be")[0]
    return None


def _size_agreement_cases():
    """(n, k, t_policy, the field an error names or None) at each size's
    bounds: n, k and an integer t at 1, the bound, one past it and far past
    it; "half" at the largest n; k * t at its bound and one past it."""
    for field, named in (("n", "n"), ("k", "k"), ("t_policy", "t")):
        for value in (1, 65535, 65536, 10 ** 40):
            yield pytest.param({"n": 10, "k": 4, "t_policy": 3, field: value},
                               named if value > 65535 else None, id=f"{named}={value}")
    yield pytest.param({"n": 65535, "k": 4, "t_policy": "half"}, None, id="half-at-n=65535")
    yield pytest.param({"n": 10, "k": 4096, "t_policy": 4096}, None, id="k*t=2**24")
    # 2**24 + 1 = 24929 * 673
    yield pytest.param({"n": 10, "k": 24929, "t_policy": 673}, "k * t", id="k*t=2**24+1")


@pytest.mark.parametrize("sizes, named", _size_agreement_cases())
def test_trial_and_election_configs_agree_on_sizes(sizes, named):
    trial = _named_field(lambda: TrialConfig(p_fail=0.1, **sizes), ValueError)
    election = _named_field(lambda: ElectionConfig(protocol="hevs", **sizes), ConfigError)
    if sizes["k"] == 1:
        # past its size checks an election also needs min_consistency (2) <= k,
        # a rule a trial does not have
        assert election == "min_consistency"
        election = None
    assert trial == election == named


def test_trial_config_accepts_int_p_fail():
    assert run_point(TrialConfig(n=5, p_fail=0, k=3, trials=3)).accuracy == 1.0
    assert run_point(TrialConfig(n=5, p_fail=1, k=3, trials=3)).accuracy == 0.0


def test_min_consistency_above_k_is_never_reached():
    # all voters honest, so every sample is clean and only the count falls short
    for mode in ("symbolic", "full"):
        config = TrialConfig(n=6, p_fail=0.0, k=3, min_consistency=4, trials=5, mode=mode)
        assert run_point(config).accuracy == 0.0
        assert run_point(replace(config, min_consistency=3)).accuracy == 1.0
    assert expected_accuracy(6, 0.0, 3, 2, 4) == 0.0
    assert expected_accuracy(6, 0.0, 3, 2, 3) == 1.0


@functools.lru_cache(maxsize=None)
def direct_weights(n, p_fail):
    """Binomial weights as exact integer binomials times float powers: the
    product overflows a float from n = 1030 on."""
    return [math.comb(n, bad) * p_fail ** bad * (1 - p_fail) ** (n - bad) for bad in range(n + 1)]


def direct_accuracy(n, p_fail, k, t, min_consistency):
    """expected_accuracy's formula with the direct binomial weights."""
    total = 0.0
    for bad, weight in enumerate(direct_weights(n, p_fail)):
        if weight < 1e-15:
            continue
        p_clean = ((n - bad) / n) ** t
        total += weight * sum(math.comb(k, i) * p_clean ** i * (1 - p_clean) ** (k - i)
                              for i in range(min_consistency, k + 1))
    return total


def test_expected_accuracy_matches_the_direct_formula():
    for n in (1, 2, 7, 30, 100, 333, 911, 1000):
        for p_fail in (0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99, 1):
            for k, t in ((2, 1), (3, 3), (8, 10), (16, 23)):
                for min_consistency in {2, k}:
                    args = (n, p_fail, k, t, min_consistency)
                    assert abs(expected_accuracy(*args) - direct_accuracy(*args)) <= 1e-12, args


def test_expected_accuracy_stays_finite_at_large_n():
    with pytest.raises(OverflowError):
        direct_accuracy(1030, 0.5, 8, 10, 2)
    for p_fail in (0, 0.1, 0.5, 1):
        value = expected_accuracy(10**5, p_fail, 8, 10, 2)
        assert math.isfinite(value) and 0.0 <= value <= 1.0
    assert expected_accuracy(10**5, 0, 8, 10, 2) == 1.0
    assert expected_accuracy(10**5, 1, 8, 10, 2) == 0.0


def test_all_honest_trials_always_correct():
    config = TrialConfig(n=12, p_fail=0.0, k=3)
    assert all(run_trial(config, seed) for seed in range(30))


def test_all_disruptive_trials_always_incorrect():
    config = TrialConfig(n=12, p_fail=1.0, k=3)
    assert not any(run_trial(config, seed) for seed in range(30))


def test_full_and_symbolic_modes_agree_spot_checks():
    for n, k, p_fail in ((3, 3, 0.4), (5, 2, 0.2), (6, 4, 0.7)):
        symbolic = TrialConfig(n=n, p_fail=p_fail, k=k, mode="symbolic")
        full = TrialConfig(n=n, p_fail=p_fail, k=k, mode="full")
        for seed in range(15):
            assert run_trial(symbolic, seed) == run_trial(full, seed)


#: electorates at, and one either side of, each plan index width's edge
EDGE_NS = sorted({n for w in range(17) for n in (2 ** w - 1, 2 ** w, 2 ** w + 1) if 1 <= n <= 65535})


@settings(max_examples=120, deadline=None)
@given(n=st.sampled_from(EDGE_NS),
       p_fail=st.sampled_from((0.0, 1.0, 0.25)) | st.floats(0.0, 1.0),
       k=st.integers(1, 8), t_policy=st.sampled_from(("sqrt-half", "sqrt")) | st.integers(1, 40),
       min_consistency=st.integers(2, 4), seed=st.integers(0, 2 ** 64 - 1))
def test_symbolic_trial_equals_the_one_value_per_call_reference(n, p_fail, k, t_policy,
                                                                  min_consistency, seed):
    # 0.25 is a threshold of whole top bytes, so about 1 flag in 256 ties
    config = TrialConfig(n=n, p_fail=p_fail, k=k, t_policy=t_policy,
                         min_consistency=min_consistency)
    assert run_trial(config, seed) == symbolic_trial(config, seed)


def test_trials_whose_first_block_is_empty_refill_to_the_same_verdicts(monkeypatch):
    configs = [TrialConfig(n=n, p_fail=0.2, k=4) for n in (1, 2, 255, 256, 511, 2048, 4096)]
    verdicts = [[run_trial(config, seed) for seed in range(12)] for config in configs]
    monkeypatch.setattr(experiments, "WorldReader", lambda rng, words: WorldReader(rng, 0))
    assert [[run_trial(config, seed) for seed in range(12)] for config in configs] == verdicts


def test_silent_and_fake_agree_on_decisions():
    for seed in range(20):
        fake = TrialConfig(n=8, p_fail=0.4, k=4, behavior="fake_share")
        silent = TrialConfig(n=8, p_fail=0.4, k=4, behavior="silent")
        assert run_trial(fake, seed) == run_trial(silent, seed)


#: a mode with its electorate: full mode runs the group arithmetic, so it stays small
MODE_AND_N = st.sampled_from(("symbolic", "full")).flatmap(
    lambda mode: st.tuples(st.just(mode), st.integers(1, 12 if mode == "full" else 500)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode_and_n=MODE_AND_N, p_fail=st.sampled_from((0.0, 0.3, 1.0)) | st.floats(0.0, 1.0),
       t_policy=st.sampled_from(("sqrt-half", "half")) | st.integers(1, 6),
       scoring=st.lists(st.tuples(st.integers(1, 5), st.sampled_from(TRIAL_BEHAVIORS),
                                  st.integers(2, 4)),
                        min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 64 - 1))
def test_one_world_scores_each_config_as_its_own_trial(mode_and_n, p_fail, t_policy,
                                                       scoring, seed):
    # each config its own k: a world is drawn for the largest, and each reads
    # its first k samples; a few trial seeds per example, as one seldom tells
    # the first k samples from any other k
    mode, n = mode_and_n
    configs = [TrialConfig(n=n, p_fail=p_fail, k=k, t_policy=t_policy, mode=mode,
                           behavior=behavior, min_consistency=min_consistency)
               for k, behavior, min_consistency in scoring]
    for trial_seed in range(seed, seed + 5):
        assert run_trials(configs, trial_seed) == [run_trial(c, trial_seed) for c in configs]


def test_run_trials_takes_only_configs_of_one_world():
    base = TrialConfig(n=10, p_fail=0.3, k=4, mode="full")
    # sqrt-half of 10 is 3, so an explicit t of 3 draws the same world, and
    # a larger k reads more samples of it
    same = [base, replace(base, t_policy=3, behavior="silent", min_consistency=3),
            replace(base, k=5)]
    assert run_trials(same, 5) == [run_trial(config, 5) for config in same]
    for other in (dict(n=11), dict(p_fail=0.2), dict(t_policy=4), dict(mode="symbolic")):
        with pytest.raises(ValueError, match="share"):
            run_trials([base, replace(base, **other)], 5)
    with pytest.raises(ValueError, match="at least one"):
        run_trials([], 5)


def test_a_full_world_casts_its_election_once_for_both_behaviours(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(hevs, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for name in ("keygen_share", "encrypt_vote", "draw_fake_exponent"):
        monkeypatch.setattr(hevs, name, counted(name))
    n, k = 10, 3
    configs = [TrialConfig(n=n, p_fail=0.3, k=k, mode="full", behavior=behavior)
               for behavior in ("fake_share", "silent", "fake_share")]
    for seed in range(5):
        calls.clear()
        run_trials(configs, seed)
        assert calls["keygen_share"] == n and calls["encrypt_vote"] == n * k
        # one tally per distinct behaviour: each fake-share voter draws once
        assert calls["draw_fake_exponent"] == n - sum(flags(spawn(seed, "world"), 0.3, n))


def test_a_full_world_casts_its_election_once_for_every_k(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(hevs, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for name in ("keygen_share", "encrypt_vote"):
        monkeypatch.setattr(hevs, name, counted(name))
    n = 10
    configs = [TrialConfig(n=n, p_fail=0.3, k=k, mode="full") for k in (2, 3, 5)]
    for seed in range(5):
        calls.clear()
        run_trials(configs, seed)
        # keys once, and each voter's ballot under the largest k's keys alone
        assert calls["keygen_share"] == n and calls["encrypt_vote"] == 5 * n


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_of_both_behaviours_gives_each_point_its_own_row(workers):
    for mode in ("full", "symbolic"):
        common = dict(mode=mode, trials=6, seeds=(1, 2))
        single = {behavior: grid((6, 9), (0.3,), (2, 3), behavior=behavior, **common)
                  for behavior in TRIAL_BEHAVIORS}
        mixed = [config for behavior in TRIAL_BEHAVIORS for config in single[behavior]]
        expected = [row for behavior in TRIAL_BEHAVIORS
                    for row in run_sweep(single[behavior], workers=1)]
        assert run_sweep(mixed, workers=workers) == expected
        # interleaved, with min_consistency varying within a world too
        mixed = [replace(config, min_consistency=2 + position % 2)
                 for position, config in enumerate(
                     config for pair in zip(*single.values()) for config in pair)]
        expected = [run_sweep([config], workers=1)[0] for config in mixed]
        assert run_sweep(mixed, workers=workers) == expected


def test_run_point_bounds_and_exact_one():
    row = run_point(TrialConfig(n=10, p_fail=0.0, k=4, trials=50, seeds=(1, 2)))
    assert row.accuracy == 1.0
    row = run_point(TrialConfig(n=10, p_fail=0.35, k=4, trials=50, seeds=(1, 2)))
    assert 0.0 <= row.accuracy <= 1.0
    assert row.t == 3  # sqrt-half of 10
    assert row.seeds == 2


def test_sweep_is_reproducible():
    configs = grid((10, 20), (0.1, 0.3), (2, 4), trials=40, seeds=(1, 2))
    assert len(configs) == 8
    a = sweep_csv(run_sweep(configs))
    b = sweep_csv(run_sweep(configs))
    assert a == b


def test_sweep_csv_schema():
    rows = run_sweep(grid((9,), (1 / 3,), (2,), trials=3, seeds=(1,)))
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    fields = lines[1].split(",")
    assert fields[0] == "9"
    assert fields[1] == "0.333333"  # six significant digits
    assert fields[2] == "2"
    assert fields[8] in ("symbolic", "full")
    assert text.endswith("\n")


def test_grid_rejects_empty():
    with pytest.raises(ValueError):
        grid((), (0.1,), (2,))
    with pytest.raises(ValueError):
        run_sweep([])


def test_grid_row_order():
    configs = grid((1, 2), (0.1, 0.2), (3, 4), trials=1, seeds=(1,))
    triples = [(c.n, c.p_fail, c.k) for c in configs]
    assert triples == [
        (1, 0.1, 3), (1, 0.1, 4), (1, 0.2, 3), (1, 0.2, 4),
        (2, 0.1, 3), (2, 0.1, 4), (2, 0.2, 3), (2, 0.2, 4),
    ]


@st.composite
def small_sweeps(draw):
    """1-3 grid points; full mode only for n <= 6, so examples stay cheap."""
    configs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 12))
        configs.append(TrialConfig(
            n=n,
            p_fail=draw(st.sampled_from((0.0, 0.1, 0.3, 0.6, 1.0))),
            k=draw(st.integers(1, 6)),
            min_consistency=draw(st.integers(2, 4)),
            trials=draw(st.integers(1, 7)),
            seeds=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))),
            mode=draw(st.sampled_from(("symbolic", "full") if n <= 6 else ("symbolic",))),
            behavior=draw(st.sampled_from(("fake_share", "silent"))),
        ))
    return configs


@settings(max_examples=25, deadline=None)
@given(configs=small_sweeps())
def test_parallel_sweep_csv_equals_serial(configs):
    serial = sweep_csv(run_sweep(configs, workers=1))
    for workers in (2, 3, 5):
        assert sweep_csv(run_sweep(configs, workers=workers)) == serial, workers


@contextlib.contextmanager
def _count_forks():
    """The pids os.fork returns in this process inside the block. The sweep
    pool is closed on entry and exit, so the block forks its own workers and
    leaves none behind."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    pool._close_pool()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "fork", counting_fork)
            yield forks
    finally:
        pool._close_pool()


def test_default_workers_fork_one_child_per_extra_cpu():
    cpus = len(os.sched_getaffinity(0))
    configs = grid((10,), (0.2,), (3,), trials=cpus, seeds=(1,))
    with _count_forks() as forks:
        assert run_sweep(configs) == run_sweep(configs, workers=1)
        assert len(forks) == cpus - 1
        # the workers are kept for the next sweep of the same shape
        assert run_sweep(configs) == run_sweep(configs, workers=1)
        assert len(forks) == cpus - 1
        # capped at the trial count: a one-trial sweep never forks
        run_sweep(grid((10,), (0.2,), (3,), trials=1, seeds=(1,)), workers=4)
        assert len(forks) == cpus - 1


def test_default_workers_stay_in_process_while_other_threads_run():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    with _count_forks() as forks:
        thread.start()
        try:
            run_sweep(grid((10,), (0.2,), (3,), trials=4, seeds=(1,)))
        finally:
            release.set()
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_a_sweep_builds_each_groups_kernel_once_per_call():
    # 160 trials in 128 queue runs, so a kernel built per run would be built
    # dozens of times in the owner alone
    configs = grid((10, 20), (0.2,), (3, 5), trials=40, seeds=(1, 2))
    expected = run_sweep(configs, workers=1)
    owner, built, real_kernel = os.getpid(), Counter(), experiments._kernel

    def counting_kernel(spec):
        if os.getpid() == owner:
            built[spec] += 1
        return real_kernel(spec)

    with _count_forks() as forks, pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_kernel", counting_kernel)
        for _ in range(2):
            built.clear()
            assert run_sweep(configs, workers=1) == expected
            # two worlds of two seeds: one kernel per (world, seed) group
            assert len(built) == 2 and set(built.values()) == {2}
        for _ in range(2):  # newly forked workers, then kept ones
            built.clear()
            assert run_sweep(configs, workers=2) == expected
            assert built and max(built.values()) <= 2, built
        assert len(forks) == 1
    _assert_no_children_left()


def test_a_repeated_parallel_sweep_forks_nothing():
    configs = grid((10, 20), (0.2,), (2, 3), trials=9, seeds=(1, 2))
    expected = run_sweep(configs, workers=1)
    with _count_forks() as forks:
        for _ in range(3):
            assert run_sweep(configs, workers=2) == expected
            assert len(forks) == 1
        # another grid of the same worker count and CPUs takes the same workers
        other = grid((12,), (0.3,), (4,), trials=5, seeds=(3,))
        assert run_sweep(other, workers=2) == run_sweep(other, workers=1)
        assert len(forks) == 1 and pool._running(forks[0])
    _assert_no_children_left()


def test_each_pooled_sweep_pickles_its_job_once_for_new_and_kept_workers():
    configs = grid((10,), (0.2,), (3,), trials=8, seeds=(1,))
    expected = run_sweep(configs, workers=1)
    owner, dumped, real_dumps = os.getpid(), [], pickle.dumps

    def recording_dumps(obj, *args, **kwargs):
        if os.getpid() == owner:
            dumped.append(obj)
        return real_dumps(obj, *args, **kwargs)

    with _count_forks() as forks, pytest.MonkeyPatch.context() as patch:
        patch.setattr(pickle, "dumps", recording_dumps)
        # the call that forks three workers, then one that keeps them
        for calls in (1, 2):
            assert run_sweep(configs, workers=4) == expected
            assert len(forks) == 3 and len(dumped) == calls
        # the job is the call's (_count, (groups, starts), runs), the same for both calls
        fn, (groups, starts), runs = dumped[0]
        assert fn is experiments._count and dumped[1] == dumped[0]
        assert [seed for _, seed in groups] == [1] and starts == [0, 8]
        assert runs[0][0] == 0 and runs[-1][1] == 8
    _assert_no_children_left()


def test_a_changed_worker_count_or_affinity_forks_new_workers():
    configs = grid((10,), (0.2,), (3,), trials=8, seeds=(1,))
    expected = run_sweep(configs, workers=1)
    cpus = sorted(START_AFFINITY)
    with _count_forks() as forks:
        assert run_sweep(configs, workers=2) == expected
        assert run_sweep(configs, workers=3) == expected
        assert len(forks) == 3
        # the two-worker pool's worker was killed and reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)
        if len(cpus) > 1:
            try:
                os.sched_setaffinity(0, cpus[:1])
                assert run_sweep(configs, workers=3) == expected
                assert len(forks) == 5
            finally:
                os.sched_setaffinity(0, START_AFFINITY)
            assert run_sweep(configs, workers=3) == expected
            assert len(forks) == 7
    _assert_no_children_left()


def test_an_idle_worker_killed_from_outside_is_replaced():
    configs = grid((10,), (0.2,), (3,), trials=8, seeds=(1,))
    expected = run_sweep(configs, workers=1)
    with _count_forks() as forks:
        assert run_sweep(configs, workers=2) == expected
        os.kill(forks[0], signal.SIGKILL)
        os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        assert run_sweep(configs, workers=2) == expected
        assert len(forks) == 2 and pool._running(forks[1])
    _assert_no_children_left()


#: a hevs election whose cast and tally both go to the pool on two or more
#: CPUs once the pool is forked; a cast of 192 exps and a tally of 40
POOLED_ELECTION = ElectionConfig(protocol="hevs", n=24, k=4, p_fail=0.1, seed=3)


def _in_process(config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool, "POOL_MIN_EXPS", math.inf)
        return run_election(config)


@contextlib.contextmanager
def _pooled_calls():
    """The fn of each job this process sends to the pool inside the block."""
    calls, real_pooled = [], pool._pooled

    def recording_pooled(fn, *args):
        calls.append(fn)
        return real_pooled(fn, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool, "_pooled", recording_pooled)
        yield calls


def test_an_election_after_a_sweep_takes_the_sweeps_workers():
    cpus = len(START_AFFINITY)
    expected = _in_process(POOLED_ELECTION)
    with _count_forks() as forks, _pooled_calls() as calls:
        run_sweep(grid((10,), (0.2,), (3,), trials=cpus, seeds=(1,)))
        for _ in range(2):
            assert run_election(POOLED_ELECTION) == expected
        assert len(forks) == cpus - 1
        # the sweep's job, then each election's cast and tally
        if cpus > 1:
            assert calls == [experiments._count] + [pool._steps] * 4
    _assert_no_children_left()


def test_an_election_forks_nothing_while_other_threads_run_or_on_one_cpu(monkeypatch):
    monkeypatch.setattr(pool, "POOL_FORK_EXPS", 0)
    expected = _in_process(POOLED_ELECTION)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    with _count_forks() as forks, _pooled_calls() as calls:
        thread.start()
        try:
            assert run_election(POOLED_ELECTION) == expected
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        try:
            os.sched_setaffinity(0, sorted(START_AFFINITY)[:1])
            assert run_election(POOLED_ELECTION) == expected
        finally:
            os.sched_setaffinity(0, START_AFFINITY)
        assert forks == [] and calls == []
        # alone and on every CPU again, it takes the pool
        assert run_election(POOLED_ELECTION) == expected
        assert len(forks) == len(START_AFFINITY) - 1
    _assert_no_children_left()


@pytest.mark.skipif(len(START_AFFINITY) < 2, reason="an election forks no pool on one CPU")
def test_small_elections_fork_the_pool_once_their_phases_add_up(monkeypatch):
    expected = _in_process(POOLED_ELECTION)
    monkeypatch.setattr(pool, "_unpooled_exps", 0)
    with _count_forks() as forks:
        # each phase is below POOL_FORK_EXPS, so they run here until their
        # exps add up to it
        while pool._unpooled_exps < pool.POOL_FORK_EXPS:
            assert forks == []
            assert run_election(POOLED_ELECTION) == expected
        assert pool._unpooled_exps < pool.POOL_FORK_EXPS + 192
        assert run_election(POOLED_ELECTION) == expected
        assert len(forks) == len(START_AFFINITY) - 1
    # a phase of POOL_FORK_EXPS exps forks the pool at once
    large = ElectionConfig(protocol="hevs", n=64, k=8, seed=3)
    expected = _in_process(large)
    monkeypatch.setattr(pool, "_unpooled_exps", 0)
    with _count_forks() as forks, _pooled_calls() as calls:
        assert run_election(large) == expected
        assert len(forks) == len(START_AFFINITY) - 1 and len(calls) == 2
        assert pool._unpooled_exps == 0
    _assert_no_children_left()


def test_an_election_with_a_rebound_call_keeps_every_sample_here(monkeypatch):
    # A tracer or spy wraps what the samples call and counts the calls made in
    # this process, so none may run on a worker forked before the wrapping.
    monkeypatch.setattr(pool, "POOL_FORK_EXPS", 0)
    expected = _in_process(POOLED_ELECTION)
    n, k = POOLED_ELECTION.n, POOLED_ELECTION.k
    for owner, name in ((hevs, "encrypt_vote"), (GroupParams, "exp")):
        with _count_forks() as forks, _pooled_calls() as calls:
            assert run_election(POOLED_ELECTION) == expected
            assert len(forks) == len(START_AFFINITY) - 1
            assert len(calls) == (2 if forks else 0)
            calls.clear()
            counted = []
            real = getattr(owner, name)

            def counting(*args, real=real):
                counted.append(args)
                return real(*args)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(owner, name, counting)
                assert run_election(POOLED_ELECTION) == expected
            assert calls == []
            # every voter's ballot under every sampled key; two exps each
            assert len(counted) >= (n * k if name == "encrypt_vote" else 2 * n * k)
            # unwrapped again, the samples go back to the pool
            assert run_election(POOLED_ELECTION) == expected
            assert len(calls) == (2 if forks else 0)
    _assert_no_children_left()


def test_a_full_sweeps_trials_never_send_their_samples_to_the_pool():
    configs = [config for behavior in ("fake_share", "silent")
               for config in grid((12, 30), (0.05, 0.3), (4, 8), mode="full", trials=2,
                                  seeds=(1,), behavior=behavior)]
    expected, trial = run_sweep(configs, workers=1), run_trial(configs[0], 5)
    real_pooled = pool._pooled

    def sweep_jobs_only(fn, *args):
        assert fn is experiments._count, fn
        return real_pooled(fn, *args)

    # Workers forked in the block inherit the patch, so a trial's election
    # phase sent from a worker fails the sweep as one sent from this process.
    with _count_forks() as forks, pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool, "POOL_MIN_EXPS", 0)
        patch.setattr(pool, "POOL_FORK_EXPS", 0)
        patch.setattr(pool, "_pooled", sweep_jobs_only)
        for workers in (1, 2, None):
            assert run_sweep(configs, workers=workers) == expected
        assert run_trial(configs[0], 5) == trial
        assert forks
    _assert_no_children_left()


def test_a_worker_killed_between_two_elections_is_replaced(monkeypatch):
    monkeypatch.setattr(pool, "POOL_FORK_EXPS", 0)
    expected = _in_process(POOLED_ELECTION)
    workers = len(START_AFFINITY) - 1
    with _count_forks() as forks:
        assert run_election(POOLED_ELECTION) == expected
        assert len(forks) == workers
        for pid in forks[:1]:
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        assert run_election(POOLED_ELECTION) == expected
        assert len(forks) == 2 * workers and all(map(pool._running, forks[workers:]))
    _assert_no_children_left()


@pytest.mark.skipif(len(START_AFFINITY) < 2, reason="an election forks no pool on one CPU")
def test_a_task_that_raises_keeps_the_pool(monkeypatch):
    # every sample's column holds voter 33's vote of 2, so every task raises
    n, k = 64, 8
    votes = [1] * n
    votes[32] = 2
    roles = [VoterRole(i, True, None) for i in range(1, n + 1)]
    plan = hevs.make_sampling_plan(random.Random(1), n, k)
    params = default_group()

    def cast():
        with pytest.raises(ValueError) as caught:
            hevs.cast(params, votes, roles, plan, [random.Random(i) for i in range(n)])
        return str(caught.value)

    expected, message = _in_process(POOLED_ELECTION), cast()
    monkeypatch.setattr(pool, "POOL_FORK_EXPS", 0)
    with _count_forks() as forks, _pooled_calls() as calls:
        assert cast() == message
        kept = pool._pool
        assert calls == [pool._steps] and kept is not None
        assert len(forks) == len(START_AFFINITY) - 1
        # the same workers, with the failed phase's runs gone from the queue
        assert run_election(POOLED_ELECTION) == expected
        assert pool._pool is kept and len(forks) == len(START_AFFINITY) - 1
        assert len(calls) == 3
    _assert_no_children_left()


def test_a_one_shot_bsv_run_at_its_defaults_forks_nothing(monkeypatch, capsys):
    monkeypatch.setattr(pool, "_unpooled_exps", 0)
    with _count_forks() as forks:
        assert cli.main(["bsv-run"]) == 0
        assert forks == [] and pool._pool is None
    # five 512-bit signatures: enough for a forked pool, too few to fork one
    if len(START_AFFINITY) > 1:
        assert pool._unpooled_exps == 5 * bsv.signing_cost(512)
        assert pool.POOL_MIN_EXPS <= pool._unpooled_exps < pool.POOL_FORK_EXPS
    assert "tally" in capsys.readouterr().out


def test_a_process_forked_from_the_owner_keeps_off_its_pool():
    configs = grid((10,), (0.2,), (3,), trials=8, seeds=(1,))
    expected = run_sweep(configs, workers=1)
    with _count_forks() as forks:
        assert run_sweep(configs, workers=2) == expected
        worker = forks[0]
        # forked while the pool's lock is held, as by a sweep on another thread
        with pool._pool_lock:
            pid = os.fork()  # counted too, so forks[1] is this child
            if pid == 0:
                code = 1
                try:
                    # starts with no pool, sweeps on workers of its own, then
                    # leaves the owner's alone on exit
                    ok = pool._pool is None
                    ok = ok and run_sweep(configs, workers=2) == expected
                    ok = ok and [pid for pid, _, _ in pool._pool.workers] != [worker]
                    pool._close_pool()
                    code = 0 if ok else 2
                finally:
                    os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        assert pool._running(worker)
        assert run_sweep(configs, workers=2) == expected
        assert forks == [worker, pid]
    _assert_no_children_left()


def test_a_worker_reaped_from_outside_gets_no_signal():
    configs = grid((10,), (0.2,), (3,), trials=8, seeds=(1,))
    expected = run_sweep(configs, workers=1)
    kills, real_kill = [], os.kill

    def recording_kill(pid, sig):
        kills.append(pid)
        real_kill(pid, sig)

    with _count_forks() as forks:
        assert run_sweep(configs, workers=3) == expected
        reaped, live = forks
        os.kill(reaped, signal.SIGKILL)
        # as os.wait() or a SIGCHLD handler in the host program would: the pid
        # is free for any new process to take
        os.waitpid(reaped, 0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "kill", recording_kill)
            assert run_sweep(configs, workers=3) == expected
            assert kills == [live] and len(forks) == 4
            pool._close_pool()
            assert kills == [live, *forks[2:]]
    _assert_no_children_left()


def test_sweeps_from_more_threads_than_cpus_take_the_pool_in_turn():
    configs = grid((10, 20), (0.2,), (2, 3), trials=6, seeds=(1,))
    expected = run_sweep(configs, workers=1)
    results = []

    def sweep():
        for _ in range(5):
            results.append(run_sweep(configs, workers=2) == expected)

    threads = [threading.Thread(target=sweep, daemon=True)
               for _ in range(2 * len(START_AFFINITY) + 1)]
    with _count_forks() as forks:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        for thread in threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0))
        assert not any(thread.is_alive() for thread in threads)
        assert len(forks) == 1
    assert results == [True] * 5 * len(threads)
    _assert_no_children_left()


def test_a_killed_owner_leaves_no_worker_behind(tmp_path):
    pids = tmp_path / "pids"
    script = (
        "import os, signal, sys, time\n"
        "from votesim import experiments, pool\n"
        "configs = experiments.grid((10, 20), (0.2,), (3,), trials=12, seeds=(1,))\n"
        "expected = experiments.run_sweep(configs, workers=1)\n"
        "for _ in range(2):\n"
        "    assert experiments.run_sweep(configs, workers=3) == expected\n"
        "workers = [pid for pid, _, _ in pool._pool.workers]\n"
        "# a forked process that outlives the owner holds no job pipe of theirs\n"
        "sleeper = os.fork()\n"
        "if sleeper == 0:\n"
        "    time.sleep(60)\n"
        "    os._exit(0)\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    fh.write(' '.join(map(str, [sleeper, *workers])))\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    env = dict(os.environ)
    src = str(Path(experiments.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # no pipe to the owner, which its workers would hold open after it dies
    with open(tmp_path / "log", "w") as log:
        proc = subprocess.run([sys.executable, "-c", script, str(pids)], env=env,
                              stdout=log, stderr=subprocess.STDOUT, timeout=60)
    assert proc.returncode == -signal.SIGKILL, (tmp_path / "log").read_text()
    sleeper, *workers = [int(pid) for pid in pids.read_text().split()]
    assert len(workers) == 2

    def alive(pid):
        """Running, or stopped: neither gone nor a zombie."""
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except (FileNotFoundError, ProcessLookupError):
            return False
        return stat[stat.rindex(")") + 2] != "Z"

    try:
        deadline = time.monotonic() + 2
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(alive, workers)), workers
        assert alive(sleeper)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(sleeper, signal.SIGKILL)


@pytest.mark.parametrize("workers", [0, -1, 2.0, "2", True])
def test_workers_must_be_a_positive_int(workers):
    with pytest.raises(ValueError, match="workers"):
        run_sweep(grid((10,), (0.2,), (3,), trials=2, seeds=(1,)), workers=workers)


@contextlib.contextmanager
def _patched_trials(log, parent, child, ran_in):
    """Each trial of a sweep, the kernel's unit of work, through
    parent(trial, spec, seed) in this process and through child(...) in the
    workers forked inside the block, which inherit the patch; spec is the
    kernel's (mode, n, p_fail, t, points). Each call first appends its side to
    log; leaving the block fails unless a wrapper ran on every side named in
    ran_in."""
    real_kernel, parent_pid = experiments._kernel, os.getpid()
    log.unlink(missing_ok=True)

    def kernel(spec):
        trial = real_kernel(spec)

        def patched(seed):
            side = "parent" if os.getpid() == parent_pid else "child"
            with open(log, "a") as fh:
                fh.write(side + "\n")
            return (parent if side == "parent" else child)(trial, spec, seed)
        return patched

    # Workers run the code as it stood when they were forked: the block forks
    # its own, and none of them outlives it to run the patch later.
    pool._close_pool()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_kernel", kernel)
            yield
    finally:
        pool._close_pool()
    sides = set(log.read_text().split()) if log.exists() else set()
    assert set(ran_in) <= sides, f"no wrapper ran in the {sorted(set(ran_in) - sides)}"


def _raising(error):
    def wrapper(trial, spec, seed):
        raise error
    return wrapper


def _slow(trial, spec, seed):
    time.sleep(0.005)
    return trial(seed)


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The other worker's trials are slow, so the raising one takes a run first.
@pytest.mark.parametrize("where", ["parent", "child"])
def test_sweep_error_is_raised_with_its_type_and_children_are_reaped(tmp_path, where):
    raising = _raising(KeyError("boom"))
    wrappers = (raising, _slow) if where == "parent" else (_slow, raising)
    with _patched_trials(tmp_path / "sides", *wrappers, ran_in=(where,)):
        with pytest.raises(KeyError, match="boom"):
            run_sweep([TrialConfig(n=10, p_fail=0.2, k=3, trials=40, seeds=(7,))], workers=2)
    _assert_no_children_left()


def test_child_error_that_does_not_unpickle_becomes_runtime_error(tmp_path):
    # DiscreteLogNotFound(target, bound) cannot be rebuilt from its message alone
    raising = _raising(DiscreteLogNotFound(5, 3))
    with _patched_trials(tmp_path / "sides", _slow, raising, ran_in=("child",)):
        with pytest.raises(RuntimeError, match="DiscreteLogNotFound"):
            run_sweep([TrialConfig(n=10, p_fail=0.2, k=3, trials=40, seeds=(7,))], workers=2)
    _assert_no_children_left()


def test_a_slow_worker_takes_fewer_trials(tmp_path):
    in_parent = []

    def counted(trial, spec, seed):
        in_parent.append(seed)
        return trial(seed)

    def very_slow(trial, spec, seed):
        time.sleep(0.05)
        return trial(seed)

    configs = [TrialConfig(n=10, p_fail=0.2, k=3, trials=40, seeds=(7,))]
    with _patched_trials(tmp_path / "sides", counted, very_slow, ran_in=("parent",)):
        rows = run_sweep(configs, workers=2)
    assert rows == run_sweep(configs, workers=1)
    # a fixed deal would give each worker 20
    assert len(in_parent) >= 30
    assert len(set(in_parent)) == len(in_parent)


def test_workers_take_the_costliest_runs_first(tmp_path):
    log = tmp_path / "trials"

    def logged(delay):
        def wrapper(trial, spec, seed):
            _, n, _, _, points = spec
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {n} {max(k for k, _, _ in points)}\n")
            time.sleep(delay)
            return trial(seed)
        return wrapper

    configs = grid((6, 12), (0.3,), (2, 4), mode="full", trials=2, seeds=(7,))
    sides = tmp_path / "sides"
    # slow enough that each worker starts a run before the other ends one
    with _patched_trials(sides, logged(0.2), logged(0.2), ran_in=("parent", "child")):
        rows = run_sweep(configs, workers=2)
    firsts = {}
    for line in log.read_text().splitlines():
        pid, n, k = map(int, line.split())
        firsts.setdefault(pid, (n, k))
    # the queue starts with both trials of the costliest world, n * largest k = 48
    assert list(firsts.values()) == [(12, 4), (12, 4)]

    # one worker keeps sweep order, one world trial for both of its k
    log.unlink()
    with _patched_trials(sides, logged(0), logged(0), ran_in=("parent",)):
        assert run_sweep(configs, workers=1) == rows
    seen = [tuple(map(int, line.split()[1:])) for line in log.read_text().splitlines()]
    assert seen == [(6, 4), (6, 4), (12, 4), (12, 4)]


def test_each_worker_holds_its_own_cpu_and_the_affinity_comes_back(tmp_path):
    cpus = sorted(START_AFFINITY)

    def on_cpu(cpu):
        def wrapper(trial, spec, seed):
            assert os.sched_getaffinity(0) == {cpu}, (os.getpid(), os.sched_getaffinity(0))
            return trial(seed)
        return wrapper

    sides = tmp_path / "sides"
    with _patched_trials(sides, on_cpu(cpus[0]), _slow, ran_in=("parent",)):
        run_sweep([TrialConfig(n=10, p_fail=0.2, k=3, trials=20, seeds=(7,))], workers=2)
    with _patched_trials(sides, _slow, on_cpu(cpus[1 % len(cpus)]), ran_in=("child",)):
        run_sweep([TrialConfig(n=10, p_fail=0.2, k=3, trials=20, seeds=(7,))], workers=2)
    # also catches an earlier test's sweep that left this process pinned
    assert os.sched_getaffinity(0) == START_AFFINITY


def test_children_never_flush_the_parents_buffered_stdout():
    script = (
        "from votesim.experiments import grid, run_sweep\n"
        "print('before', end='')\n"
        "run_sweep(grid((10,), (0.2,), (3,), trials=6, seeds=(1,)), workers=3)\n"
        "print(' after')\n"
    )
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe must be block-buffered here
    src = str(Path(experiments.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before after\n"


def test_format_number_six_significant_digits():
    assert format_number(50) == "50"
    assert format_number(0.01) == "0.01"
    assert format_number(1 / 3) == "0.333333"
    assert format_number(0.0250859) == "0.0250859"


def test_accuracy_matches_analytic_prediction():
    # Monte Carlo accuracy should sit within 3 standard errors of the exact
    # value computed from the binomial model
    config = TrialConfig(n=50, p_fail=0.1, k=8, trials=500, seeds=(1, 2, 3))
    row = run_point(config)
    predicted = expected_accuracy(50, 0.1, 8, row.t, 2)
    stderr = math.sqrt(predicted * (1 - predicted) / (config.trials * len(config.seeds)))
    assert abs(row.accuracy - predicted) <= 3 * stderr + 1e-9


#: width of the accepted band around expected_accuracy, in binomial sigma
BAND_Z = 4.0
#: two-sided normal probability beyond BAND_Z sigma (6.3e-5)
BAND_ALPHA = math.erfc(BAND_Z / math.sqrt(2))


def within_band(successes: int, trials: int, p: float) -> bool:
    """Is successes/trials within BAND_Z binomial sigma of p?

    Within a few failures of p = 1 (or successes of p = 0) the count is
    Poisson-like and sigma understates its tail, so a count outside the band
    still passes when its exact binomial tail is no rarer than BAND_ALPHA / 2.
    The false-alarm rate is then BAND_ALPHA at every p.
    """
    deviation = successes / trials - p
    if abs(deviation) <= BAND_Z * math.sqrt(p * (1 - p) / trials):
        return True
    if p <= 0.0 or p >= 1.0:
        return False
    span = range(successes, trials + 1) if deviation > 0 else range(successes + 1)
    log_p, log_q, head = math.log(p), math.log1p(-p), math.lgamma(trials + 1)
    tail = sum(
        math.exp(head - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
                 + i * log_p + (trials - i) * log_q)
        for i in span
    )
    return tail >= BAND_ALPHA / 2


def test_within_band_falls_back_to_the_exact_tail():
    assert within_band(1999, 2000, 0.99999)      # 6.7 sigma, yet 1 failure in 50 runs
    assert not within_band(1996, 2000, 0.99999)
    assert not within_band(906, 2000, 0.5)       # 4.2 sigma low
    assert within_band(2000, 2000, 1.0) and not within_band(1999, 2000, 1.0)
    assert within_band(0, 2000, 0.0) and not within_band(1, 2000, 0.0)


@pytest.mark.parametrize("n, p_fail, k, min_consistency, behavior", [
    (1, 0.5, 2, 2, "silent"),
    (10, 0.0, 4, 2, "fake_share"),
    (10, 0.1, 4, 2, "silent"),
    (10, 0.3, 6, 3, "fake_share"),
    (20, 0.05, 3, 4, "fake_share"),   # min_consistency above k
    (25, 0.05, 8, 2, "silent"),
    (25, 0.2, 8, 4, "fake_share"),
    (30, 1.0, 4, 2, "silent"),
    (50, 0.1, 8, 2, "fake_share"),
    (50, 0.25, 12, 3, "silent"),
    (100, 0.02, 16, 2, "fake_share"),
    (100, 0.15, 16, 5, "silent"),
    (200, 0.05, 12, 3, "fake_share"),
    (200, 0.3, 16, 2, "silent"),
    (500, 0.01, 8, 2, "fake_share"),
    (500, 0.1, 16, 4, "silent"),
])
def test_symbolic_point_within_4_sigma_of_expected_accuracy(n, p_fail, k, min_consistency,
                                                            behavior):
    config = TrialConfig(n=n, p_fail=p_fail, k=k, min_consistency=min_consistency,
                         trials=2000, seeds=(1,), behavior=behavior)
    row = run_point(config)
    expected = expected_accuracy(n, p_fail, k, row.t, min_consistency)
    assert within_band(round(row.accuracy * config.trials), config.trials, expected), (
        row.accuracy, expected)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 500), p_fail=st.floats(0.0, 0.3), k=st.integers(2, 16),
       min_consistency=st.integers(2, 4), behavior=st.sampled_from(["fake_share", "silent"]))
def test_drawn_symbolic_point_within_band_of_expected_accuracy(n, p_fail, k, min_consistency,
                                                               behavior):
    # the fixed grid above, widened to drawn points; derandomized, so every run checks the same ones
    config = TrialConfig(n=n, p_fail=p_fail, k=k, min_consistency=min_consistency,
                         trials=1000, seeds=(1,), behavior=behavior)
    (row,) = run_sweep([config], workers=1)
    expected = expected_accuracy(n, p_fail, k, row.t, min_consistency)
    assert within_band(round(row.accuracy * config.trials), config.trials, expected), (
        row.accuracy, expected)


def test_accuracy_grows_with_k():
    low = run_point(TrialConfig(n=40, p_fail=0.1, k=2, trials=400, seeds=(1,)))
    high = run_point(TrialConfig(n=40, p_fail=0.1, k=12, trials=400, seeds=(1,)))
    assert high.accuracy >= low.accuracy - 0.05


def test_empirical_sample_reliability_matches_with_replacement():
    trials = 4000
    estimate = empirical_sample_reliability(50, 5, 25, trials, seed=3)
    expected = reliability_probability_with_replacement(50, 5, 25)
    stderr = math.sqrt(expected * (1 - expected) / trials)
    assert abs(estimate - expected) <= 3 * stderr


def test_analytic_table_values():
    rows = analytic_table((50,), (0, 5, 30), 25)
    by_m = {m: (exact, with_repl) for _, m, _, exact, with_repl in rows}
    assert by_m[0] == (1.0, 1.0)
    assert by_m[5][0] == pytest.approx(0.025, abs=0.001)
    assert by_m[30][0] == 0.0  # t > n - m
    text = analytic_csv(rows)
    assert text.splitlines()[0] == "n,m,t,reliability,reliability_with_replacement"
    assert len(text.splitlines()) == 4


def test_trial_seeds_are_stable():
    # the per-trial derivation must never change silently: pin two values
    assert derive_seed("trial", 1, 0) == derive_seed("trial", 1, 0)
    assert derive_seed("trial", 1, 0) != derive_seed("trial", 1, 1)
    assert derive_seed("trial", 1, 0) != derive_seed("trial", 2, 0)


def test_symbolic_trials_plans_and_roles_are_pinned():
    # GOLDEN_SWEEP pins averaged accuracies only; drifts that cancel show here.
    assert pinned_text() == TRIAL_PIN.read_text(encoding="utf-8")


def test_wide_symbolic_trials_plans_and_roles_are_pinned():
    assert wide_pinned_text() == WIDE_PIN.read_text(encoding="utf-8")


def test_symbolic_trials_at_each_plan_width_edge_are_pinned():
    assert edge_pinned_text() == EDGE_PIN.read_text(encoding="utf-8")
