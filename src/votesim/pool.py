"""Forked workers that run one call's work on every CPU of the affinity set.

``_pooled(fn, args, starts, costs, workers)`` runs fn(*args, runs) in this
process and in each of the pool's W - 1 workers, for W = workers.
Positions 0..starts[-1]-1 are cut into runs of consecutive positions, and
each worker, this process among them, passes fn the runs it takes from a
shared queue until it is empty. The queue is one pipe whose read end, shared
by all of them, does not block. It holds the runs costliest first (each
position in starts[g]..starts[g+1]-1 costs costs[g]), Graham's LPT
order (SIAM J. Appl. Math. 1969), so the runs taken last, while other
workers may sit idle, are the cheapest. Worker i is held on the set's i-th
CPU (wrapping round), this process on its first for the call only. A worker
slowed by a busy CPU just takes fewer runs, so a call's time follows the CPU
time it gets rather than its slowest CPU.

The workers are forked by the first call that needs them and kept for later
calls of the same worker count and affinity set; a change in either, or a
worker found dead before a call, forks new ones. Every call, the forking one
too, pickles its job (fn, args, runs) once and writes it to each worker's
job pipe, and reads back one (ok, result or exception) from each worker's
result pipe. So the workers run the code as it stood when they were forked:
a patch made after that reaches this process's share only. Calls from
several threads take the pool in turn.

If fn raises an ``Exception`` anywhere, every worker's result is still read
and the queue emptied, the workers are kept, and the first such exception
(this process's, then the workers' in order) is raised here with its type.
A dead worker, a broken pipe or a signal kills (SIGKILL) and reaps the
pool, as this process's exit does (``atexit``). Only a worker that is still
this process's child is signalled and reaped: one that someone else reaped
has left its pid free for any new process to take. A worker ignores SIGINT,
so a terminal's Ctrl-C reaches the owner alone, and exits by itself once the
owner dies, since only the owner holds the write end of its job pipe. A
process forked from the owner by ``os.fork`` starts with no pool and a free
lock and closes its copies of the pool's pipes: it never uses or kills the
owner's workers.

``each_sample`` runs one election phase's tasks, here or on the pool.
``pickle`` and ``signal`` are imported by the first call that reaches the
pool, so a process that never does loads neither.
"""

from __future__ import annotations

import atexit
import bisect
import contextlib
import itertools
import os
import threading
from typing import Callable, Iterable, Sequence

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
#: ``on`` while this thread runs a sweep trial's election
_in_trial = threading.local()
#: Each task module's ``_task_calls`` -> its functions as bound when the module
#: was loaded, entered by the module at the end of its import. A phase's tasks
#: run here while any of them is rebound, as by a tracer or a test's spy: such
#: a wrapper counts the calls made here, and a worker runs each function as it
#: was bound when the worker was forked.
_LOADED_CALLS: dict = {}


def _steps(step, shared: tuple, tasks: Sequence[tuple], runs: Iterable[tuple[int, int]]) -> dict:
    """step(*shared, *tasks[j]) by j, for the samples j of each (lo, hi) in runs."""
    return {j: step(*shared, *tasks[j]) for lo, hi in runs for j in range(lo, hi)}


def each_sample(step, shared: tuple, tasks: Sequence[tuple], costs: Sequence[int],
                calls: Callable[[], tuple]) -> list:
    """[step(*shared, *task) for task in tasks]: one election phase's work,
    one task per sample (a hevs sample's ballots or shares, a bsv voter's
    signature), costs[j] the exps of task j. calls() gives the functions the
    tasks call by name, as bound now: the caller's ``_task_calls``.

    The tasks go to the pool of ``width()`` workers (a sweep's default, so
    sweeps and elections keep the same workers) when there are two or more,
    they add up to at least POOL_MIN_EXPS exps and ``width()`` is two or more.
    While no pool is forked, a phase forks it only if it costs POOL_FORK_EXPS
    exps, or once the phases run here for want of it add up to that many. The
    tasks run here, in order, while any function calls() gives is rebound
    (``_LOADED_CALLS``) and in a sweep's trial (``_in_trial``). A step and its
    arguments are pickled: ``GroupParams`` and ``FixedBase`` pickle without
    their comb tables.
    """
    global _unpooled_exps
    k, cost = len(tasks), sum(costs)
    pooled = not (k < 2 or cost < POOL_MIN_EXPS or getattr(_in_trial, "on", False)
                  or calls() != _LOADED_CALLS[calls] or (workers := width()) < 2)
    if pooled and _pool is None and max(cost, _unpooled_exps) < POOL_FORK_EXPS:
        _unpooled_exps += cost
        pooled = False
    if not pooled:
        results = _steps(step, shared, tasks, [(0, k)])
    else:
        results = {}
        for part in _pooled(_steps, (step, shared, tasks), range(k + 1), costs, workers):
            results.update(part)
    return [results[j] for j in range(k)]


def width() -> int:
    """The default worker count: one per CPU of the affinity set, or 1 while
    other threads run, since a forked child holds only the calling thread."""
    return 1 if threading.active_count() > 1 else len(os.sched_getaffinity(0))


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
    """Forked workers, kept for the next call of the same ``key``, (worker
    count, sorted affinity CPUs). The constructor forks them, each waiting
    for its first job. ``queue`` and ``feed`` are the queue's ends."""

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
        """Kill and reap the workers that are still this process's children,
        and close the pipes."""
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


#: this process's workers, forked by its first call that needs more than one
_pool: _Pool | None = None
#: held by the thread whose call uses the pool
_pool_lock = threading.Lock()


def _after_fork_in_child() -> None:
    """A forked process starts with a free lock, which another thread may
    have held, and no pool. It closes the pool pipe ends it inherited, which
    would put off each worker's exit once the owner dies. (A process forked
    by another thread while a call forks its workers keeps the copies of that
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


def _pooled(fn, args: tuple, starts: Sequence[int], costs: Sequence[int], workers: int) -> list:
    """fn(*args, runs) in this process and in each of the pool's W - 1
    workers, for W = workers: their results, this process's first. See the
    module docstring for the runs, their costs, the queue and the failure rule."""
    size = min(starts[-1], _RUNS_PER_WORKER * workers, _MAX_RUNS)
    bounds = [starts[-1] * i // size for i in range(size + 1)]
    runs = list(zip(bounds, bounds[1:]))
    # the cost of the positions before each bound
    spent = list(itertools.accumulate(
        (cost * (hi - lo) for cost, lo, hi in zip(costs, starts, starts[1:])), initial=0))
    groups = [bisect.bisect_right(starts, bound, hi=len(costs)) - 1 for bound in bounds]
    before = [spent[g] + (bound - starts[g]) * costs[g] for g, bound in zip(groups, bounds)]
    order = sorted(range(size), key=lambda i: before[i] - before[i + 1])  # costliest first
    ids = b"".join(i.to_bytes(4, "little") for i in order)
    cpus = sorted(os.sched_getaffinity(0))
    key = (workers, tuple(cpus))
    # Imported before any fork, so that no worker has to load them.
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
    """A pool worker: for each job read from its job pipe, run fn(*args,
    runs taken from the queue) and send back (ok, result or exception); exit
    once the owner's end of the job pipe is closed. Leaving through
    ``os._exit`` skips the owner's atexit handlers and never flushes the
    stdout and stderr buffers the worker inherited.
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
