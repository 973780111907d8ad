"""Monte Carlo reliability experiments for the sampled-key election.

A trial runs one election and scores it correct when the mode decision
equals the honest vote sum (disrupting voters submit 0, so that sum is well
defined). Both evaluation modes share one draw of the seeded world per trial
from its ``"world"`` stream: an honesty flag per voter, a vote per honest
voter, then the sampling plan, the words a one-call-per-value loop would
take. ``seeding.flags`` draws the flags (``random() >= p_fail``, settled on
a word's top byte but for ties). Full mode draws the votes by
``seeding.draws`` and the plan by ``make_sampling_plan``. The symbolic mode
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
trial's world, so ``run_sweep`` scores them together through ``run_trials``,
which draws the world once for their largest k. The plan's indices are drawn
in order, so a k-sample plan is the first k * t indices of any larger one,
and each point reads only its first k samples. A symbolic verdict counts the
clean samples among those k, whatever the behavior. A full world casts its
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

Accuracy per grid point is averaged over the configured seeds, and
`expected_accuracy` provides the exact analytic value for cross-checking.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import threading
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

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
from .seeding import WorldReader, derive_seed, draws, flags, spawn

TRIAL_BEHAVIORS = ("fake_share", "silent")

#: the largest n, k and t a trial or an election (``simnet.ElectionConfig``)
#: takes; a plan index is read from 16 bits
MAX_TRIAL_SIZE = 65535
#: the largest k * t a trial takes, so a symbolic trial's block of plan words
#: stays below the 2**31 bits one getrandbits call can draw
MAX_PLAN_INDICES = 2 ** 24


def format_number(value) -> str:
    """CSV number rendering: six significant digits."""
    return format(value, ".6g")


@dataclass(frozen=True)
class TrialConfig:
    """One grid point: electorate, adversary rate, sampling and scoring knobs.

    The default sample-size policy is sqrt-half (t = ceil(sqrt(n/2))): the
    mode decision needs a macroscopic fraction of clean samples, so the
    per-sample draw count must grow much slower than n. n, k and the
    resolved t are at most ``MAX_TRIAL_SIZE``, and k * t at most
    ``MAX_PLAN_INDICES``.
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
        for name in ("n", "k", "min_consistency", "trials"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if type(self.p_fail) not in (int, float):
            raise ValueError(f"p_fail must be a number, got {self.p_fail!r}")
        if any(type(seed) is not int for seed in self.seeds):
            raise ValueError(f"seeds must be integers, got {self.seeds!r}")
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
        t = resolve_sample_size(self.t_policy, self.n)
        if max(self.n, self.k, t) > MAX_TRIAL_SIZE:
            raise ValueError(f"n, k and t must be at most {MAX_TRIAL_SIZE}, "
                             f"got n={self.n}, k={self.k}, t={t}")
        if self.k * t > MAX_PLAN_INDICES:
            raise ValueError(f"k * t must be at most {MAX_PLAN_INDICES}, "
                             f"got k={self.k}, t={t}")


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


def _world(config: TrialConfig) -> tuple:
    """What a trial's seeded world is drawn from; configs equal here share it,
    whatever their k, since a k-sample plan is the first k * t indices of any
    larger one."""
    return (config.n, config.p_fail, resolve_sample_size(config.t_policy, config.n), config.mode)


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
    if len(configs) == 1:
        k = configs[0].k
    elif len({_world(config) for config in configs}) == 1:
        k = max(config.k for config in configs)
    else:
        raise ValueError("a trial takes at least one config, and its configs must share "
                         "n, p_fail, t and mode")
    config = configs[0]
    world = spawn(seed, "world")
    # The draws of assign_roles, then randrange(2) per honest voter, then the
    # plan's randrange(1, n + 1) per index.
    honest = flags(world, config.p_fail, config.n)
    if config.mode == "symbolic":
        n = config.n
        t = resolve_sample_size(config.t_policy, n)
        # A vote takes 2 words on average (variance 2) and an index 2^w / n
        # for w = n.bit_length() (variance at most 2), so the reader's first
        # block adds two to three standard deviations to their sum and seldom
        # has to refill.
        voters = honest.count(1)
        words = 2 * voters + (k * t << n.bit_length()) // n
        reader = WorldReader(world, words + 3 * math.isqrt(words) + 8)
        reader.skip(2, voters)
        # A sample is clean when none of its indices lands on a 0 flag.
        marks = reader.lookup(honest, k * t)
        clean = [0 not in marks[i:i + t] for i in range(0, k * t, t)]
        return [clean[:other.k].count(True) >= other.min_consistency for other in configs]

    honest_votes = draws(world, 0, 2, honest.count(1))
    plan = make_sampling_plan(world, config.n, k, config.t_policy)
    drawn = iter(honest_votes)
    votes = [next(drawn) if flag else 0 for flag in honest]
    crypto = spawn(seed, "crypto")
    voter_rngs = [crypto] * config.n
    roles = {}
    for behavior in dict.fromkeys(other.behavior for other in configs):
        bad = Behavior(behavior)
        roles[behavior] = [VoterRole(i, flag == 1, None if flag else bad)
                           for i, flag in enumerate(honest, 1)]

    ballots = cast(default_group(), votes, roles[config.behavior], plan, voter_rngs)
    # Only a second behavior's tally needs the stream set back.
    after_cast = crypto.getstate() if len(roles) > 1 else None
    tallies = {}
    for behavior, behavior_roles in roles.items():
        if tallies:
            crypto.setstate(after_cast)
        tallies[behavior] = [r.tally for r in tally(ballots, behavior_roles, voter_rngs)]
    verdicts = []
    for other in configs:
        try:
            decision = mode_decision(tallies[other.behavior][:other.k], other.min_consistency)
        except (NoConsistentResult, AmbiguousMode):
            decision = None
        verdicts.append(decision == sum(votes))
    return verdicts


def run_point(config: TrialConfig) -> SweepRow:
    """Accuracy at one grid point, averaged over the configured seeds."""
    return run_sweep([config])[0]


def run_sweep(configs: Sequence[TrialConfig], workers: int | None = None) -> list[SweepRow]:
    """One row per grid point, using every CPU in the process's affinity set.

    Points that share a seeded world (n, p_fail, resolved t, mode, trials
    and seeds) share their trials: each trial's world is drawn and run once
    by ``run_trials``, for the largest k among them, and scored for each of
    them on its first k samples. The sweep's (world, seed, trial) list is cut
    into runs of consecutive trials, and the workers take runs from a shared
    queue (a pipe) until it is empty: this process is one worker and
    ``os.fork`` children are the others, each sending back its correct-trial
    counts per (world, seed), one per point. The queue holds the runs
    costliest first, a trial costing n times its world's largest k, so the
    last runs, which leave the other workers idle, are the shortest.
    Worker i is held on the set's i-th CPU (wrapping round) for the call,
    and this process gets its affinity back before returning. A worker slowed by a
    busy CPU just takes fewer runs, so the sweep's time follows the CPU time
    it gets rather than its slowest CPU. The bytes of a row cannot depend on
    ``workers`` or on who ran which trial: each trial draws only from its own
    ``derive_seed("trial", seed, index)`` stream, and a point's accuracy is
    computed from integer counts by one fixed float expression. To use fewer
    CPUs, narrow the affinity set, e.g. with ``taskset -c 0 votesim sweep ...``.

    ``workers=None`` means one worker per CPU in ``os.sched_getaffinity(0)``,
    or 1 while other threads are running, since a forked child holds only the
    calling thread. The count is capped at the number of trials. ``workers=1``
    runs every trial in this process, so a patch or tracer that records state
    here sees all of them. It takes the worlds in the order each first appears
    in ``configs``, each world's seeds in order and each seed's trials in
    order, and one ``run_trials`` call scores all of a world's points: for
    configs [A_k4_fake, B_k4_fake, A_k8_fake, A_k4_silent], where A and B
    differ in n, it runs A's trials (at k = 8), then B's.

    An exception in a child is re-raised here with its type; the children
    are killed on any error and always reaped.
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
        worlds.setdefault((_world(config), config.trials, config.seeds), []).append(position)
    members, groups = [], []  # per (world, seed): its points' positions; its configs and seed
    for positions in worlds.values():
        world = tuple(configs[p] for p in positions)
        for seed in world[0].seeds:
            members.append(positions)
            groups.append((world, seed))
    starts = list(itertools.accumulate((world[0].trials for world, _ in groups), initial=0))
    total = starts.pop()
    workers = min(workers, total)
    if workers == 1:
        counts = [[0] * len(world) for world, _ in groups]
        _add_counts(groups, starts, 0, total, counts)
    else:
        counts = _forked_counts(groups, starts, total, workers)

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
            t=resolve_sample_size(config.t_policy, config.n),
            trials=config.trials,
            seeds=len(config.seeds),
            accuracy=sum(per_seed) / len(per_seed),
            mode=config.mode,
        ))
    return rows


#: queue runs per worker: enough that the last runs even out unequal trials
_RUNS_PER_WORKER = 64
#: at most 1024 four-byte run ids, so the queue fits an empty pipe in one write
_MAX_RUNS = 1024


def _add_counts(groups, starts: list[int], lo: int, hi: int, counts: list[list[int]]) -> None:
    """Add the correct trials at sweep positions lo..hi-1 to counts per (world, seed),
    one count per config of the world."""
    group = bisect.bisect_right(starts, lo) - 1
    while group < len(groups) and starts[group] < hi:
        world, seed = groups[group]
        world_counts = counts[group]
        first = max(lo - starts[group], 0)
        for index in range(first, min(hi - starts[group], world[0].trials)):
            verdicts = run_trials(world, derive_seed("trial", seed, index))
            for i, verdict in enumerate(verdicts):
                world_counts[i] += verdict
        group += 1


def _drain(groups, starts: list[int], runs: list[tuple[int, int]], queue: int) -> list[list[int]]:
    """Run the queue's runs until it is empty; counts per (world, seed)."""
    counts = [[0] * len(world) for world, _ in groups]
    while token := os.read(queue, 4):
        _add_counts(groups, starts, *runs[int.from_bytes(token, "little")], counts)
    return counts


def _pin(cpus) -> None:
    """Keep this process on cpus. Left alone, Linux may start a forked worker
    on its parent's CPU and leave both there for hundreds of milliseconds
    while another CPU idles. Placement only, so a refusal is ignored."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _forked_counts(groups, starts: list[int], total: int, workers: int) -> list[list[int]]:
    """Sum of every worker's counts; workers 1..W-1 are forked children."""
    # Imported here, so a process that never forks a sweep does not load them.
    import pickle
    import signal

    size = min(total, _RUNS_PER_WORKER * workers, _MAX_RUNS)
    runs = [(total * i // size, total * (i + 1) // size) for i in range(size)]
    # Costliest runs first (Graham's LPT order, SIAM J. Appl. Math. 1969), so
    # the runs taken last, while other workers may sit idle, are the cheapest.
    # A trial costs about n * k for its world's largest k: each of its n
    # voters encrypts under k keys.
    trial_costs = [world[0].n * max(config.k for config in world) for world, _ in groups]
    costs = list(itertools.accumulate(
        (cost * world[0].trials for cost, (world, _) in zip(trial_costs, groups)), initial=0))

    def cost_before(position: int) -> int:
        group = bisect.bisect_right(starts, position) - 1
        return costs[group] + (position - starts[group]) * trial_costs[group]

    order = sorted(range(size), key=lambda i: cost_before(runs[i][0]) - cost_before(runs[i][1]))
    # Filled and closed before the first fork, so an empty queue reads as EOF.
    queue, feed = os.pipe()
    try:
        os.write(feed, b"".join(i.to_bytes(4, "little") for i in order))
    finally:
        os.close(feed)
    cpus = sorted(os.sched_getaffinity(0))
    children = []  # (pid, read end of the child's result pipe)
    try:
        for worker in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _child_main(groups, starts, runs, queue, write_end, cpus[worker % len(cpus)])
            os.close(write_end)
            children.append((pid, read_end))
        _pin({cpus[0]})
        counts = _drain(groups, starts, runs, queue)
        for pid, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"sweep worker {pid} exited without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            counts = [[a + b for a, b in zip(mine, theirs)]
                      for mine, theirs in zip(counts, value)]
        return counts
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _pin(cpus)
        os.close(queue)
        for pid, read_end in children:
            os.close(read_end)
            os.waitpid(pid, 0)


def _child_main(groups, starts, runs, queue: int, write_end: int, cpu: int):
    """Drain the queue in a forked child, write (ok, counts or exception), exit.

    Leaving through ``os._exit`` skips the parent's atexit handlers and never
    flushes the stdout and stderr buffers the child inherited.
    """
    import pickle

    try:
        _pin({cpu})
        try:
            payload = (True, _drain(groups, starts, runs, queue))
        except BaseException as exc:  # sent to the parent, which raises it
            payload = (False, exc)
        try:
            data = pickle.dumps(payload)
            pickle.loads(data)
        except Exception:  # an exception that cannot be rebuilt from its args
            data = pickle.dumps((False, RuntimeError(f"sweep worker failed: {payload[1]!r}")))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


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
