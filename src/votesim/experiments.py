"""Monte Carlo reliability experiments for the sampled-key election.

A trial runs one election and scores it correct when the mode decision
equals the honest vote sum (disrupting voters submit 0, so that sum is well
defined). Both evaluation modes share one draw of the seeded world per trial:
an honesty flag per voter, a vote per honest voter, then the sampling plan.
The votes and the plan's indices are drawn in bulk by ``seeding.draws``,
which consumes the stream exactly as one ``randrange`` call per value would.

* "full" spreads the votes over the honest voters, runs the actual group
  arithmetic end to end and takes the mode decision over the decoded samples.
* "symbolic" skips the crypto and scores the trial correct iff at least
  min_consistency samples are clean, i.e. hold no disruptive voter. That is
  the mode decision once garbage elements stop colliding: a clean sample
  decodes to the true tally, a silent voter blocks its sample, and each
  fake-share sample yields its own garbage value, which never reaches a count
  of 2. The two modes agree trial-for-trial, and symbolic is what makes
  thousand-trial sweeps cheap.

Accuracy per grid point is averaged over the configured seeds, and
`expected_accuracy` provides the exact analytic value for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .adversary import Behavior, VoterRole
from .errors import AmbiguousMode, NoConsistentResult
from .group import default_group
from .hevs import (
    make_sampling_plan,
    mode_decision,
    reliability_probability,
    reliability_probability_with_replacement,
    resolve_sample_size,
    run_sampled_election,
)
from .seeding import derive_seed, draws, spawn

TRIAL_BEHAVIORS = ("fake_share", "silent")


def format_number(value) -> str:
    """CSV number rendering: six significant digits."""
    return format(value, ".6g")


@dataclass(frozen=True)
class TrialConfig:
    """One grid point: electorate, adversary rate, sampling and scoring knobs.

    The default sample-size policy is sqrt-half (t = ceil(sqrt(n/2))): the
    mode decision needs a macroscopic fraction of clean samples, so the
    per-sample draw count must grow much slower than n.
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

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be at least 1")
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
        resolve_sample_size(self.t_policy, self.n)


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


def run_trial(config: TrialConfig, seed: int) -> bool:
    """One election; True when the mode decision equals the honest sum."""
    world = spawn(seed, "world")
    p_fail = config.p_fail
    # The draws of assign_roles, then randrange(2) per honest voter; see seeding.draws.
    honest = [world.random() >= p_fail for _ in range(config.n)]
    honest_votes = draws(world, 0, 2, sum(honest))
    plan = make_sampling_plan(world, config.n, config.k, config.t_policy)

    if config.mode == "symbolic":
        bad = {i for i, flag in enumerate(honest, 1) if not flag}
        clean = sum(bad.isdisjoint(multiset) for multiset in plan.multisets)
        return clean >= config.min_consistency

    drawn = iter(honest_votes)
    votes = [next(drawn) if flag else 0 for flag in honest]
    behavior = Behavior(config.behavior)
    roles = [VoterRole(i, flag, None if flag else behavior) for i, flag in enumerate(honest, 1)]
    results = run_sampled_election(default_group(), votes, roles, plan, spawn(seed, "crypto"))
    try:
        return mode_decision(results, config.min_consistency) == sum(votes)
    except (NoConsistentResult, AmbiguousMode):
        return False


def run_point(config: TrialConfig) -> SweepRow:
    """Accuracy at one grid point, averaged over the configured seeds."""
    per_seed = []
    for seed in config.seeds:
        correct = sum(
            run_trial(config, derive_seed("trial", seed, index))
            for index in range(config.trials)
        )
        per_seed.append(correct / config.trials)
    return SweepRow(
        n=config.n,
        p_fail=config.p_fail,
        k=config.k,
        min_consistency=config.min_consistency,
        t=resolve_sample_size(config.t_policy, config.n),
        trials=config.trials,
        seeds=len(config.seeds),
        accuracy=sum(per_seed) / len(per_seed),
        mode=config.mode,
    )


def run_sweep(configs: Sequence[TrialConfig]) -> list[SweepRow]:
    if not configs:
        raise ValueError("empty sweep grid")
    return [run_point(config) for config in configs]


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


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        values = (getattr(row, name) for name in CSV_COLUMNS)
        lines.append(",".join(v if isinstance(v, str) else format_number(v) for v in values))
    return "\n".join(lines) + "\n"


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
    lines = ["n,m,t,reliability,reliability_with_replacement"]
    for n, m, t, exact, with_repl in rows:
        lines.append(",".join((
            format_number(n), format_number(m), format_number(t),
            format_number(exact), format_number(with_repl),
        )))
    return "\n".join(lines) + "\n"


def empirical_sample_reliability(n: int, m: int, t: int, trials: int, seed: int = 1) -> float:
    """Monte Carlo estimate of one sample avoiding m fixed bad voters.

    Draws t indices with replacement per trial, matching the sampling plan;
    the estimate converges on reliability_probability_with_replacement, not
    on the without-replacement formula.
    """
    rng = spawn("sample-reliability", seed)
    clean = 0
    for _ in range(trials):
        if all(rng.randrange(n) >= m for _ in range(t)):
            clean += 1
    return clean / trials


def expected_accuracy(n: int, p_fail: float, k: int, t: int, min_consistency: int) -> float:
    """Exact accuracy of the symbolic model.

    The count of disruptive voters is Binomial(n, p_fail); given that count
    M, each of the k samples is independently clean with probability
    ((n - M)/n) ** t, and the decision is correct iff at least
    min_consistency samples are clean.
    """
    total = 0.0
    for bad in range(n + 1):
        weight = math.comb(n, bad) * p_fail ** bad * (1 - p_fail) ** (n - bad)
        if weight < 1e-15:
            continue
        p_clean = ((n - bad) / n) ** t
        tail = sum(
            math.comb(k, i) * p_clean ** i * (1 - p_clean) ** (k - i)
            for i in range(min_consistency, k + 1)
        )
        total += weight * tail
    return total
