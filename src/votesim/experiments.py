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
(one worker's runs of one ``run_sweep`` call, counted by ``_count``, whether
the call has one worker or a pool of them). It does there what no trial
seed changes: t, the largest k, each point's scoring, the plan's size. Each
trial reseeds the kernel's own generator (``seeding.reseed``).
``run_trials`` is one trial of a kernel built for its configs.

Accuracy per grid point is averaged over the configured seeds, and
`expected_accuracy` provides the exact analytic value for cross-checking.
"""

from __future__ import annotations

import atexit
import bisect
import contextlib
import itertools
import math
import os
import random
import threading
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

from . import bsv, hevs
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
        _in_trial.on = True  # the election runs in this process (see each_sample)
        try:
            ballots = cast(group, votes, roles[casting], plan, voter_rngs)
            # Only a second behavior's tally needs the stream set back.
            after_cast = crypto.getstate() if len(roles) > 1 else None
            for behavior, behavior_roles in roles.items():
                if tallies:
                    crypto.setstate(after_cast)
                tallies[behavior] = [r.tally for r in tally(ballots, behavior_roles, voter_rngs)]
        finally:
            _in_trial.on = False
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
    seed, trial) list is cut into runs of consecutive trials, and the workers
    take runs from a shared queue (a pipe) until it is empty: this process is
    one worker and ``os.fork`` children are the others, each sending back its
    correct-trial counts per (world, seed), one per point. The queue holds the
    runs costliest first, a trial costing n times its world's largest k, so
    the last runs, which leave the other workers idle, are the shortest.
    Worker i is held on the set's i-th CPU (wrapping round), this process for
    the call only: it gets its affinity back before returning. A worker slowed by a
    busy CPU just takes fewer runs, so the sweep's time follows the CPU time
    it gets rather than its slowest CPU. The bytes of a row cannot depend on
    ``workers`` or on who ran which trial: each trial draws only from its own
    ``derive_seed("trial", seed, index)`` stream, and a point's accuracy is
    computed from integer counts by one fixed float expression. To use fewer
    CPUs, narrow the affinity set, e.g. with ``taskset -c 0 votesim sweep ...``.

    The children are forked by the first sweep that needs more than one
    worker and kept for later sweeps of this process while the worker count
    and the affinity set stay the same; a change in either, or a child found
    dead before a call, forks new ones. Every sweep, the forking one too,
    sends each child its work pickled (the groups' specs, their seeds and
    the runs). So the children run the code as it stood when they were
    forked: a patch made after that reaches this process's share of the
    trials only. Keeping them saves a fork only where a process makes
    several parallel sweeps, as a loop over ``run_point`` does.
    They are killed and reaped when this process exits (``atexit``), or at
    once if a sweep fails. Each exits by itself once this process dies,
    since only this process holds the write end of its job pipe: a process
    forked from this one by ``os.fork`` closes its copies, and never uses
    or kills the children. Sweeps from several threads take the children in
    turn. The same children serve the per-sample work of hevs elections run
    outside a sweep (``each_sample``), so an election after a sweep of the
    default worker count forks nothing; a sweep's own trials never send
    their elections' samples to them.

    ``workers=None`` means one worker per CPU in ``os.sched_getaffinity(0)``,
    or 1 while other threads are running, since a forked child holds only the
    calling thread. The count is capped at the number of trials. ``workers=1``
    runs every trial in this process, so a patch or tracer that records state
    here sees all of them. It takes the worlds in the order each first appears
    in ``configs``, each world's seeds in order and each seed's trials in
    order, and one kernel trial scores all of a world's points: for
    configs [A_k4_fake, B_k4_fake, A_k8_fake, A_k4_silent], where A and B
    differ in n, it runs A's trials (at k = 8), then B's.

    An exception in a child is re-raised here with its type; on any error
    the children are killed and reaped.
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


#: queue runs per worker: enough that the last runs even out unequal trials
_RUNS_PER_WORKER = 64
#: at most 1024 four-byte run ids, so a call's ids fit the empty queue in one write
_MAX_RUNS = 1024
#: Fewest exps of one election phase for which its samples go to the pool
#: (see each_sample), an encryption counting two and a share one. With the
#: pool's one worker already forked on 2 CPUs, a phase's round trip costs
#: about 80 us, and the pooled phase took, as a share of its in-process time
#: (medians of 300 alternating runs): casts of 4 exps 1.07, of 8 0.89 and of
#: 16 0.89-0.96; tallies of 8 exps 0.94-1.00 and of 16 0.87-0.98.
POOL_MIN_EXPS = 16
#: Fewest exps of one election phase that forks the pool when none is forked;
#: smaller phases run here until their exps add up to this many, and then the
#: next one forks it, so a process that runs one small election forks nothing.
#: One hevs election per fresh process, pooled, with the fork and the reap at
#: exit, as a share of in-process (medians of 15-20 alternating pairs on 2
#: CPUs): casts of 120 exps 1.38, of 192 1.28, of 768 1.15, of 1024 0.94 and
#: of 1536 0.88, each with its tally.
POOL_FORK_EXPS = 1024
#: exps of the election phases this process ran here while no pool was forked
_unpooled_exps = 0
#: ``on`` while this thread runs a full-mode trial's election
_in_trial = threading.local()
#: Each election task module's ``_task_calls()`` as bound when this module
#: was loaded, which loads them. A phase's tasks run in this process while
#: any of them is rebound, as by a tracer or a test's spy: such a wrapper
#: counts the calls made here, and a pool worker runs each function as it was
#: bound when the worker was forked.
_LOADED_CALLS = {calls: calls() for calls in (hevs._task_calls, bsv._task_calls)}


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


def _steps(step, shared: tuple, tasks: Sequence[tuple], runs: Iterable[tuple[int, int]]) -> dict:
    """step(*shared, *tasks[j]) by j, for the samples j of each (lo, hi) in runs."""
    return {j: step(*shared, *tasks[j]) for lo, hi in runs for j in range(lo, hi)}


def each_sample(step, shared: tuple, tasks: Sequence[tuple], costs: Sequence[int],
                calls: Callable[[], tuple]) -> list:
    """[step(*shared, *task) for task in tasks]: one election phase's work,
    one task per sample (a hevs sample's ballots or shares, a bsv voter's
    signature), costs[j] the exps of task j. calls() gives the functions
    the tasks call by name, as bound now: a hevs or bsv ``_task_calls``.

    The tasks go to the sweep pool (see ``run_sweep``), this process taking
    them from its queue as a worker does, costliest first, when there are two
    or more, they add up to at least POOL_MIN_EXPS exps, and the process's
    affinity set has two or more CPUs; else they run here, in order. While no
    pool is forked, a phase forks it only if it costs POOL_FORK_EXPS exps, or
    once the phases run here for want of it add up to that many; so a process
    that runs one small election forks nothing. The tasks also run here while
    any function calls() gives is rebound (``_LOADED_CALLS``), in a sweep's
    trial (``_kernel``), in the owner or in a worker, and while other threads
    run. An election uses the pool of a default sweep, one worker per CPU of
    the set, so sweeps and elections keep the same workers. A step and its
    arguments go through a pipe pickled: ``GroupParams`` and ``FixedBase``
    pickle without their comb tables. A task's exception is raised here once
    every worker has answered, and the workers are kept.
    """
    global _unpooled_exps
    k, cost = len(tasks), sum(costs)
    pooled = not (k < 2 or cost < POOL_MIN_EXPS or getattr(_in_trial, "on", False)
                  or calls() != _LOADED_CALLS[calls] or threading.active_count() > 1
                  or len(cpus := os.sched_getaffinity(0)) < 2)
    if pooled and _pool is None and max(cost, _unpooled_exps) < POOL_FORK_EXPS:
        _unpooled_exps += cost
        pooled = False
    if not pooled:
        results = _steps(step, shared, tasks, [(0, k)])
    else:
        before = list(itertools.accumulate(costs, initial=0))
        results = {}
        for part in _pooled(_steps, (step, shared, tasks), k, len(cpus), before.__getitem__):
            results.update(part)
    return [results[j] for j in range(k)]


def _taken(runs: list[tuple[int, int]], queue: int):
    """The runs this worker takes from the queue until it is empty.

    The queue's read end does not block, and a call writes all of its run ids
    before it sends any worker its job, so an empty queue means the call's
    runs are all taken. A read of b"" means the owner died, and ends it too.
    """
    with contextlib.suppress(BlockingIOError):
        while token := os.read(queue, 4):
            yield runs[int.from_bytes(token, "little")]


def _pin(cpus) -> None:
    """Keep this process on cpus. Left alone, Linux may start a forked worker
    on its parent's CPU and leave both there for hundreds of milliseconds
    while another CPU idles. Placement only, so a refusal is ignored."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _write(fd: int, data: bytes) -> None:
    """Write all of data to a pool pipe."""
    with open(fd, "wb", closefd=False) as pipe:
        pipe.write(data)


def _receive(fd: int):
    """The one pickled object in a pool pipe, or None once its writer has
    closed it. A pool pipe holds at most one object at a time, so the buffered
    reads take nothing that belongs to the next one, and pickle's STOP opcode
    ends each. (``multiprocessing.connection`` frames messages too, but takes
    14-19 ms to import, paid by every process's first parallel sweep.)"""
    import pickle

    with open(fd, "rb", closefd=False) as pipe:
        try:
            return pickle.load(pipe)
        except EOFError:
            return None


def _running(pid: int) -> bool:
    """Is this child alive? A dead one stays unreaped, for _Pool.close."""
    try:
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
    except ChildProcessError:  # reaped by someone else
        return False


class _Pool:
    """Forked workers, kept for the next sweep or election of the same shape.

    ``key`` is (worker count, sorted affinity CPUs); the constructor forks
    the workers, each of which waits for its first job. The queue is one pipe
    whose read end, shared by the owner and every worker, does not block;
    each worker has a pipe for its jobs and one for its results.
    """

    def __init__(self, key: tuple):
        self.key = key
        self.queue, self.feed = os.pipe()
        os.set_blocking(self.queue, False)
        self.workers: list[tuple[int, int, int]] = []  # (pid, job write end, result read end)
        workers, cpus = key
        try:
            for worker in range(1, workers):
                job_read, jobs = os.pipe()
                results, result_write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    for fd in (job_read, jobs, results, result_write):
                        os.close(fd)
                    raise
                if pid == 0:
                    # Only this worker's own ends stay open: a worker holding another's
                    # job write end would keep it alive after the owner dies.
                    for fd in (jobs, results, *self.fds()):
                        if fd != self.queue:
                            os.close(fd)
                    _work(job_read, result_write, self.queue, cpus[worker % len(cpus)])
                os.close(job_read)
                os.close(result_write)
                self.workers.append((pid, jobs, results))
        except BaseException:
            self.close()
            raise

    def fds(self) -> list[int]:
        """Every pipe end the owner holds."""
        return [self.queue, self.feed, *(fd for _, jobs, results in self.workers
                                          for fd in (jobs, results))]

    def close(self) -> None:
        """Kill and reap the workers and close the pipes.

        Only a worker that is still this process's child is signalled and
        reaped. One that someone else reaped (``os.wait()``, a SIGCHLD
        handler) has left its pid free for any new process to take.
        """
        import signal

        children = []
        for pid, _, _ in self.workers:
            with contextlib.suppress(ChildProcessError):
                if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                    os.kill(pid, signal.SIGKILL)
                children.append(pid)
        for pid in children:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        for fd in self.fds():
            os.close(fd)


#: this process's workers, forked by its first sweep or election that needs more than one
_pool: _Pool | None = None
#: held by the thread whose sweep or election uses the pool
_pool_lock = threading.Lock()


def _after_fork_in_child() -> None:
    """A forked process starts with a free lock, which another thread may
    have held, and no pool. It closes the pool pipe ends it inherited: the
    workers are the owner's, and each exits when the owner's end of its job
    pipe closes, which a copy held here would put off. (A process forked by
    another thread while a sweep forks its workers keeps the copies of that
    new pool's pipes.)"""
    global _pool, _pool_lock
    _pool_lock = threading.Lock()
    if _pool is not None:
        for fd in _pool.fds():
            os.close(fd)
        _pool = None


os.register_at_fork(after_in_child=_after_fork_in_child)


def _close_pool() -> None:
    """Kill and reap this process's pool workers and close their pipes."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.close()


atexit.register(_close_pool)


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
    for part in _pooled(_count, (groups, starts), starts[-1], workers, cost_before):
        counts = part if counts is None else [[a + b for a, b in zip(mine, theirs)]
                                              for mine, theirs in zip(counts, part)]
    return counts


def _pooled(fn, args: tuple, total: int, workers: int, cost_before: Callable[[int], int]) -> list:
    """fn(*args, runs) in this process and in each of the pool's W - 1
    workers, for W = workers: their results, this process's first.

    Positions 0..total-1 are cut into runs of consecutive positions, and each
    worker passes fn the runs it takes from the queue until it is empty.
    cost_before(position) is the cost of the positions before it; the queue
    holds the costliest runs first. The job, (fn, args, runs), is pickled once
    and written to every worker. If fn raises an ``Exception`` anywhere, every
    worker's result is still read and the queue emptied, the pool is kept,
    and the first such exception (this process's, then the workers' in
    order) is raised. A dead worker, a broken pipe or a signal closes the
    pool.
    """
    size = min(total, _RUNS_PER_WORKER * workers, _MAX_RUNS)
    bounds = [total * i // size for i in range(size + 1)]
    runs = list(zip(bounds, bounds[1:]))
    # Costliest runs first (Graham's LPT order, SIAM J. Appl. Math. 1969), so
    # the runs taken last, while other workers may sit idle, are the cheapest.
    before = [cost_before(bound) for bound in bounds]
    order = sorted(range(size), key=lambda i: before[i] - before[i + 1])
    ids = b"".join(i.to_bytes(4, "little") for i in order)
    cpus = sorted(os.sched_getaffinity(0))
    key = (workers, tuple(cpus))
    # Imported here, so a process that never forks a pool does not load
    # them, and before any fork, so that no worker has to load them.
    import pickle
    import signal  # noqa: F401 (the workers' SIGINT handler)

    job = pickle.dumps((fn, args, runs))
    errors = []
    global _pool
    with _pool_lock:
        try:
            if _pool is not None and (_pool.key != key or not all(
                    _running(pid) for pid, _, _ in _pool.workers)):
                _close_pool()
            if _pool is None:
                _pool = _Pool(key)
            os.write(_pool.feed, ids)  # before any job: see _taken
            for _, jobs, _ in _pool.workers:
                _write(jobs, job)
            _pin({cpus[0]})
            try:
                results = [fn(*args, _taken(runs, _pool.queue))]
            except Exception as exc:  # raised once every worker has answered
                errors.append(exc)
                results = []
            for pid, _, pipe in _pool.workers:
                payload = _receive(pipe)
                if payload is None:
                    raise RuntimeError(f"pool worker {pid} exited without a result")
                ok, value = payload
                (results if ok else errors).append(value)
            # the runs left once fn raised, which no one takes now
            for _ in _taken(runs, _pool.queue):
                pass
        except BaseException:
            _close_pool()
            raise
        finally:
            _pin(cpus)
    if errors:
        raise errors[0]
    return results


def _work(jobs: int, results: int, queue: int, cpu: int):
    """A pool worker: for each job read from its job pipe, a call's (fn,
    args, runs), run fn(*args, runs taken from the queue until it is empty)
    and send back (ok, result or exception); exit once the owner's end of the
    job pipe is closed.

    SIGINT is ignored, so a terminal's Ctrl-C reaches the owner alone, which
    then kills the pool. Leaving through ``os._exit`` skips the owner's atexit
    handlers and never flushes the stdout and stderr buffers the worker
    inherited.
    """
    import pickle
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        _pin({cpu})
        while (job := _receive(jobs)) is not None:
            fn, args, runs = job
            try:
                payload = (True, fn(*args, _taken(runs, queue)))
            except BaseException as exc:  # sent to the owner, which raises it
                payload = (False, exc)
            try:
                data = pickle.dumps(payload)
                pickle.loads(data)
            except Exception:  # an exception that cannot be rebuilt from its args
                data = pickle.dumps((False, RuntimeError(f"pool worker failed: {payload[1]!r}")))
            _write(results, data)
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
