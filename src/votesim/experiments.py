"""Monte Carlo reliability experiments for the sampled-key election.

A trial runs one election and scores it correct when the mode decision
equals the honest vote sum (disrupting voters submit 0, so that sum is well
defined). Both evaluation modes share one draw of the seeded world per trial
from its ``"world"`` stream: an honesty flag per voter, a vote per honest
voter, then the sampling plan, the words a one-call-per-value loop would
take. ``seeding.flags`` draws the flags (``random() >= p_fail``, settled on
a word's top byte but for ties). Full mode draws each vote by
``randrange(2)`` and the plan by ``make_sampling_plan``. The symbolic mode
makes neither: a ``seeding.WorldReader`` takes the rest of the stream's words
in one block, sized for the votes and the plan with a margin, and reads from
it only where the vote words end and which plan indices name a disruptor.
Drawing past the plan's last word is safe, since nothing reads the world
stream after the plan. Both rely on CPython's ``random()`` construction and
``getrandbits`` word order, which the seeded fixtures pin.

* "full" spreads the votes over the honest voters, runs the actual group
  arithmetic end to end and takes the mode decision over the decoded samples.
* "symbolic" skips the crypto and scores the trial correct iff at least
  min_consistency samples are clean, i.e. hold no disruptive voter. It only
  counts the vote words, and reads each plan index as the honesty flag of
  the voter it names (see ``WorldReader.lookup``). That is
  the mode decision once garbage elements stop colliding: a clean sample
  decodes to the true tally, a silent voter blocks its sample, and each
  fake-share sample yields its own garbage value, which never reaches a count
  of 2. The two modes agree trial-for-trial, and symbolic is what makes
  thousand-trial sweeps cheap.

Points that differ only in k, behavior and min_consistency share each
trial's world, so ``run_sweep`` scores them together, drawing the world once
for their largest k. The plan's indices are drawn in order, so a k-sample
plan is the first k * t indices of any larger one, and each point reads only
its first k samples. A symbolic verdict counts the clean samples among those
k, whatever the behavior. A full world casts its
election once with the largest k (keys, ballots, aggregates), then tallies
it per distinct behavior from the ``"crypto"`` stream's state right after the
cast. A tally draws only after every draw of the cast (a fake-share voter's
one fake exponent), so each behavior makes exactly the draws it would make
alone. A full-mode k-point trial in a sweep is thus samples 1..k of its
world's election with the largest k: its keys and nonces differ from those of
a k-sample election, but not its verdict, which takes the mode decision over
those k tallies. A clean sample decodes to the true tally, a blocked sample to
nothing, and garbage never reaches a count of 2, so none of the three depends
on the crypto stream.

A world's trials go through one kernel. ``_kernel`` builds
``trial(trial_seed) -> verdicts`` from the world's spec once per sweep job
(one worker's runs of one ``run_sweep`` call, counted by ``_count``, in this
process alone or on the worker pool of ``votesim.pool``). It does there what
no trial seed changes: t, the largest k, each point's scoring, the plan's
size. Each trial reseeds the kernel's own generator (``seeding.reseed``).
``run_trials`` is one trial of a kernel built for its configs.

Accuracy per grid point is averaged over the configured seeds, and
`expected_accuracy` provides the exact analytic value for cross-checking.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import random
import threading
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

from . import pool
from .adversary import Behavior, VoterRole
from .errors import AmbiguousMode, NoConsistentResult
from .group import default_group
from .hevs import (
    cast,
    make_sampling_plan,
    mode_decision,
    reliability_probability,
    reliability_probability_with_replacement,
    resolve_sample_size,
    tally,
)
from .seeding import WorldReader, derive_seeds, flags, reseed

TRIAL_BEHAVIORS = ("fake_share", "silent")

#: the largest n, k and t a trial or an election (``simnet.ElectionConfig``)
#: takes; a plan index is read from 16 bits
MAX_TRIAL_SIZE = 65535
#: the largest k * t a trial takes, so a symbolic trial's block of plan words
#: stays below the 2**31 bits one getrandbits call can draw
MAX_PLAN_INDICES = 2 ** 24


def bounded_sample_size(n: int, k: int, t_policy) -> int:
    """t_policy resolved at n, once n, k and t are each in [1, MAX_TRIAL_SIZE]
    and k * t is at most MAX_PLAN_INDICES; else a ValueError naming the field."""
    for name, value in (("n", n), ("k", k)):
        if not 1 <= value <= MAX_TRIAL_SIZE:
            raise ValueError(f"{name} must be at least 1 and at most {MAX_TRIAL_SIZE}, got {value}")
    t = resolve_sample_size(t_policy, n)
    if t > MAX_TRIAL_SIZE:
        raise ValueError(f"t must be at most {MAX_TRIAL_SIZE}, got {t}")
    if k * t > MAX_PLAN_INDICES:
        raise ValueError(f"k * t must be at most {MAX_PLAN_INDICES}, got k={k}, t={t}")
    return t


def format_number(value) -> str:
    """CSV number rendering: six significant digits."""
    return format(value, ".6g")


@dataclass(frozen=True)
class TrialConfig:
    """One grid point: electorate, adversary rate, sampling and scoring knobs.

    The default sample-size policy is sqrt-half (t = ceil(sqrt(n/2))): the
    mode decision needs a macroscopic fraction of clean samples, so the
    per-sample draw count must grow much slower than n. The attribute ``t``
    is t_policy resolved at n, bounded by ``bounded_sample_size``; it is
    derived, so it is no init argument and takes no part in repr or ==.
    """

    n: int
    p_fail: float
    k: int
    t_policy: str | int = "sqrt-half"
    min_consistency: int = 2
    trials: int = 1000
    seeds: tuple[int, ...] = (1, 2, 3)
    mode: str = "symbolic"
    behavior: str = "fake_share"
    t: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n", "k", "min_consistency", "trials"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if type(self.p_fail) not in (int, float):
            raise ValueError(f"p_fail must be a number, got {self.p_fail!r}")
        if type(self.seeds) is not tuple or any(type(seed) is not int for seed in self.seeds):
            raise ValueError(f"seeds must be a tuple of integers, got {self.seeds!r}")
        if not 0.0 <= self.p_fail <= 1.0:
            raise ValueError("p_fail must be in [0, 1]")
        if self.min_consistency < 2:
            raise ValueError("min_consistency must be at least 2")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.mode not in ("symbolic", "full"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.behavior not in TRIAL_BEHAVIORS:
            raise ValueError(f"trial behavior must be one of {TRIAL_BEHAVIORS}")
        object.__setattr__(self, "t", bounded_sample_size(self.n, self.k, self.t_policy))

    @property
    def world(self) -> tuple:
        """(mode, n, p_fail, t): configs equal here share each trial's seeded
        world whatever their k, as a k-sample plan starts any larger one."""
        return self.mode, self.n, self.p_fail, self.t


@dataclass(frozen=True)
class SweepRow:
    n: int
    p_fail: float
    k: int
    min_consistency: int
    t: int
    trials: int
    seeds: int
    accuracy: float
    mode: str


#: column order of the sweep CSV, SweepRow's field order; header row is mandatory
CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def _spec(configs: Sequence[TrialConfig]) -> tuple:
    """The kernel spec of configs that share a seeded world, in plain tuples:
    (mode, n, p_fail, t, points), one point (k, min_consistency, behavior)
    per config."""
    worlds = {config.world for config in configs}
    if len(worlds) != 1:
        raise ValueError("a trial takes at least one config, and its configs must share "
                         "n, p_fail, t and mode")
    return *worlds.pop(), tuple((c.k, c.min_consistency, c.behavior) for c in configs)


def _kernel(spec: tuple) -> Callable[[int], list[bool]]:
    """``trial(trial_seed)``: the verdicts of one trial of spec's world, one per
    point, as ``run_trials`` gives them. What no trial seed changes is done
    here once: the largest k, the plan's size and word estimate, each point's
    scoring and each behaviour's ``Behavior``. Each trial reseeds the
    kernel's own generators, so a kernel serves one thread.
    """
    mode, n, p_fail, t, points = spec
    largest = max(point[0] for point in points)
    # Left unseeded where the interpreter allows: each trial reseeds it first.
    world = random.Random.__new__(random.Random)
    if mode == "symbolic":
        scores = [(k, min_consistency) for k, min_consistency, _ in points]
        indices = largest * t
        samples = range(0, indices, t)
        # An index takes 2^w / n words on average for w = n.bit_length()
        # (variance at most 2), a vote 2 (variance 2).
        plan_words = (indices << n.bit_length()) // n

        def trial(trial_seed: int) -> list[bool]:
            reseed(world, trial_seed, "world")
            # The draws of assign_roles, then randrange(2) per honest voter,
            # then the plan's randrange(1, n + 1) per index.
            honest = flags(world, p_fail, n)
            # The reader's first block adds two to three standard deviations
            # to the expected words, so it seldom has to refill.
            voters = honest.count(1)
            words = 2 * voters + plan_words
            reader = WorldReader(world, words + 3 * math.isqrt(words) + 8)
            reader.skip(2, voters)
            # A sample is clean when none of its indices lands on a 0 flag.
            marks = reader.lookup(honest, indices)
            clean = [0 not in marks[i:i + t] for i in samples]
            return [clean[:k].count(True) >= min_consistency for k, min_consistency in scores]
        return trial

    crypto = random.Random.__new__(random.Random)
    group = default_group()
    # each distinct behaviour, in the points' order
    bad = {behavior: Behavior(behavior) for _, _, behavior in points}
    casting = points[0][2]

    def trial(trial_seed: int) -> list[bool]:
        reseed(world, trial_seed, "world")
        honest = flags(world, p_fail, n)
        honest_votes = [world.randrange(2) for _ in range(honest.count(1))]
        plan = make_sampling_plan(world, n, largest, t)
        drawn = iter(honest_votes)
        votes = [next(drawn) if flag else 0 for flag in honest]
        voter_rngs = [reseed(crypto, trial_seed, "crypto")] * n
        roles = {behavior: [VoterRole(i, flag == 1, None if flag else disruption)
                            for i, flag in enumerate(honest, 1)]
                 for behavior, disruption in bad.items()}
        tallies = {}
        pool._in_trial.on = True  # the election runs in this process (see pool.each_sample)
        try:
            ballots = cast(group, votes, roles[casting], plan, voter_rngs)
            # Only a second behavior's tally needs the stream set back.
            after_cast = crypto.getstate() if len(roles) > 1 else None
            for behavior, behavior_roles in roles.items():
                if tallies:
                    crypto.setstate(after_cast)
                tallies[behavior] = [r.tally for r in tally(ballots, behavior_roles, voter_rngs)]
        finally:
            pool._in_trial.on = False
        truth = sum(honest_votes)
        verdicts = []
        for k, min_consistency, behavior in points:
            try:
                decision = mode_decision(tallies[behavior][:k], min_consistency)
            except (NoConsistentResult, AmbiguousMode):
                decision = None
            verdicts.append(decision == truth)
        return verdicts
    return trial


def run_trial(config: TrialConfig, seed: int) -> bool:
    """One election; True when the mode decision equals the honest sum."""
    return run_trials((config,), seed)[0]


def run_trials(configs: Sequence[TrialConfig], seed: int) -> list[bool]:
    """[run_trial(config, seed) for config in configs], drawing and running the
    seeded world once, for the configs' largest k. The configs must share n,
    p_fail, resolved t and mode, and may differ in k, behavior and
    min_consistency; each reads only its world's first k samples (see the
    module docstring).
    """
    return _kernel(_spec(configs))(seed)


def run_point(config: TrialConfig) -> SweepRow:
    """Accuracy at one grid point, averaged over the configured seeds."""
    return run_sweep([config])[0]


def run_sweep(configs: Sequence[TrialConfig], workers: int | None = None) -> list[SweepRow]:
    """One row per grid point, using every CPU in the process's affinity set.

    Points that share a seeded world (n, p_fail, resolved t, mode, trials
    and seeds) share their trials: each trial's world is drawn and run once,
    for the largest k among them, and scored for each of them on its first k
    samples. Each (world, seed) group's trials go through one kernel
    (``_kernel``), built from the world's spec, plain tuples, by the first
    run that reaches the group in each job: once per call in this process
    and once per call in each worker that runs the group. The sweep's (world,
    seed, trial) list is cut into runs of consecutive trials for the worker
    pool (``votesim.pool``), where this process is one worker, a trial costing
    n times its world's largest k; each worker sends back its correct-trial
    counts per (world, seed), one per point. The bytes of a row cannot depend
    on ``workers`` or on who ran which trial: each trial draws only from its
    own ``derive_seed("trial", seed, index)`` stream, and a point's accuracy
    is computed from integer counts by one fixed float expression. To use
    fewer CPUs, narrow the affinity set, e.g. with ``taskset -c 0 votesim
    sweep ...``. The pool's workers are kept, so a process that makes several
    parallel sweeps, as a loop over ``run_point`` does, or elections after a
    sweep of the default worker count, forks once; a sweep's own trials never
    send their elections' samples to the pool.

    ``workers=None`` means one worker per CPU in ``os.sched_getaffinity(0)``,
    or 1 while other threads are running, since a forked child holds only the
    calling thread. The count is capped at the number of trials. ``workers=1``
    runs every trial in this process, so a patch or tracer that records state
    here sees all of them. It takes the worlds in the order each first appears
    in ``configs``, each world's seeds in order and each seed's trials in
    order, and one kernel trial scores all of a world's points: for
    configs [A_k4_fake, B_k4_fake, A_k8_fake, A_k4_silent], where A and B
    differ in n, it runs A's trials (at k = 8), then B's.

    An exception in a worker is re-raised here with its type.
    """
    if not configs:
        raise ValueError("empty sweep grid")
    if workers is None:
        workers = 1 if threading.active_count() > 1 else len(os.sched_getaffinity(0))
    elif isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an int of at least 1, got {workers!r}")
    # point positions per world; a world's configs also share trials and seeds
    worlds: dict[tuple, list[int]] = {}
    for position, config in enumerate(configs):
        worlds.setdefault((config.world, config.trials, config.seeds), []).append(position)
    members, groups, trials = [], [], []  # per (world, seed): its points' positions; (spec, seed)
    for (_, world_trials, seeds), positions in worlds.items():
        spec = _spec([configs[p] for p in positions])
        for seed in seeds:
            members.append(positions)
            groups.append((spec, seed))
            trials.append(world_trials)
    starts = list(itertools.accumulate(trials, initial=0))
    total = starts[-1]
    workers = min(workers, total)
    if workers == 1:
        counts = _count(groups, starts, [(0, total)])
    else:
        counts = _pooled_counts(groups, starts, workers)

    # each point's correct-trial counts, in its seeds' order
    correct: list[list[int]] = [[] for _ in configs]
    for positions, world_counts in zip(members, counts):
        for position, count in zip(positions, world_counts):
            correct[position].append(count)
    rows = []
    for config, point_counts in zip(configs, correct):
        per_seed = [count / config.trials for count in point_counts]
        rows.append(SweepRow(
            n=config.n,
            p_fail=config.p_fail,
            k=config.k,
            min_consistency=config.min_consistency,
            t=config.t,
            trials=config.trials,
            seeds=len(config.seeds),
            accuracy=sum(per_seed) / len(per_seed),
            mode=config.mode,
        ))
    return rows


def _count(groups, starts: list[int], runs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The correct trials at sweep positions lo..hi-1 of each (lo, hi) in runs,
    counted per (world, seed), one count per point of the world.

    Each group's trial kernel is built by the first run that reaches the
    group, so a worker builds it at most once per call.
    """
    counts = [[0] * len(spec[4]) for spec, _ in groups]
    kernels = [None] * len(groups)
    for lo, hi in runs:
        group = bisect.bisect_right(starts, lo) - 1
        while starts[group] < hi:
            spec, seed = groups[group]
            trial = kernels[group]
            if trial is None:
                trial = kernels[group] = _kernel(spec)
            world_counts = counts[group]
            start = starts[group]
            indices = range(max(lo - start, 0), min(hi, starts[group + 1]) - start)
            for trial_seed in derive_seeds(("trial", seed), indices):
                for i, verdict in enumerate(trial(trial_seed)):
                    world_counts[i] += verdict
            group += 1
    return counts


def _pooled_counts(groups, starts: list[int], workers: int) -> list[list[int]]:
    """Sum of every worker's counts; workers 1..W-1 are the pool's."""
    # A trial costs about n * k for its world's largest k: each of its n
    # voters encrypts under k keys.
    trial_costs = [spec[1] * max(k for k, _, _ in spec[4]) for spec, _ in groups]
    costs = list(itertools.accumulate(
        (cost * (end - start) for cost, start, end in zip(trial_costs, starts, starts[1:])),
        initial=0))

    def cost_before(position: int) -> int:
        group = bisect.bisect_right(starts, position, hi=len(groups)) - 1
        return costs[group] + (position - starts[group]) * trial_costs[group]

    counts = None
    for part in pool._pooled(_count, (groups, starts), starts[-1], workers, cost_before):
        counts = part if counts is None else [[a + b for a, b in zip(mine, theirs)]
                                              for mine, theirs in zip(counts, part)]
    return counts


def grid(
    ns: Iterable[int],
    p_fails: Iterable[float],
    ks: Iterable[int],
    **common,
) -> list[TrialConfig]:
    """Cartesian grid in row order: n outermost, then p_fail, then k."""
    configs = [
        TrialConfig(n=n, p_fail=p_fail, k=k, **common)
        for n in ns
        for p_fail in p_fails
        for k in ks
    ]
    if not configs:
        raise ValueError("empty sweep grid")
    return configs


def _csv(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """The header row, then each row's values: a str as it is, any other through format_number."""
    lines = [",".join(header)]
    for values in rows:
        lines.append(",".join(v if isinstance(v, str) else format_number(v) for v in values))
    return "\n".join(lines) + "\n"


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    return _csv(CSV_COLUMNS, ((getattr(row, name) for name in CSV_COLUMNS) for row in rows))


def analytic_table(ns: Iterable[int], ms: Iterable[int], t: int) -> list[tuple]:
    """Exact single-sample reliability rows (n, m, t, exact, with-replacement)."""
    rows = []
    for n in ns:
        for m in ms:
            rows.append((
                n, m, t,
                reliability_probability(n, m, t),
                reliability_probability_with_replacement(n, m, t),
            ))
    if not rows:
        raise ValueError("empty range: no (n, m) pair to tabulate")
    return rows


def analytic_csv(rows: Sequence[tuple]) -> str:
    return _csv(("n", "m", "t", "reliability", "reliability_with_replacement"), rows)


def expected_accuracy(n: int, p_fail: float, k: int, t: int, min_consistency: int) -> float:
    """Exact accuracy of the symbolic model.

    The count of disruptive voters is Binomial(n, p_fail); given that count
    M, each of the k samples is independently clean with probability
    ((n - M)/n) ** t, and the decision is correct iff at least
    min_consistency samples are clean. The binomial weights are taken in log
    space, so none overflows at large n, then divided by their sum, which
    cancels the rounding of the lgamma(n + 1) they share.
    """
    if p_fail in (0, 1):
        weights = [float(bad == n * p_fail) for bad in range(n + 1)]
    else:
        log_p, log_q = math.log(p_fail), math.log1p(-p_fail)
        weights = [math.exp(math.lgamma(n + 1) - math.lgamma(bad + 1) - math.lgamma(n - bad + 1)
                            + bad * log_p + (n - bad) * log_q) for bad in range(n + 1)]
    scale = math.fsum(weights)
    total = 0.0
    for bad, weight in enumerate(weights):
        weight /= scale
        if weight < 1e-15:
            continue
        p_clean = ((n - bad) / n) ** t
        tail = sum(
            math.comb(k, i) * p_clean ** i * (1 - p_clean) ** (k - i)
            for i in range(min_consistency, k + 1)
        )
        total += weight * tail
    return total
