"""The worker pool under random interleavings of what it serves and what it
must survive, and the imports a process that never reaches it is spared."""

import functools
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from votesim import hevs, pool
from votesim.adversary import VoterRole
from votesim.experiments import grid, run_sweep
from votesim.group import default_group
from votesim.simnet import ElectionConfig, run_election

#: this process's CPU affinity before any test has changed it
START_AFFINITY = os.sched_getaffinity(0)
CPUS = len(START_AFFINITY)
#: a hevs election whose cast (192 exps) and tally (40) both go to the pool
ELECTION = ElectionConfig(protocol="hevs", n=24, k=4, p_fail=0.1, seed=3)
#: a symbolic sweep of two worlds with enough trials for every CPU
SWEEP = grid((10, 20), (0.2,), (3, 5), trials=2 * CPUS, seeds=(1,))


def _raising_cast() -> str:
    """The message of ELECTION's cast with voter 13's vote of 2, which is in
    every sample's column, so that every task raises."""
    n, k = ELECTION.n, ELECTION.k
    votes = [1] * n
    votes[12] = 2
    roles = [VoterRole(i, True, None) for i in range(1, n + 1)]
    plan = hevs.make_sampling_plan(random.Random(1), n, k)
    with pytest.raises(ValueError) as caught:
        hevs.cast(default_group(), votes, roles, plan, [random.Random(i) for i in range(n)])
    return str(caught.value)


@functools.cache
def _in_process() -> tuple:
    """The sweep's rows, the election's outcome and the raising cast's
    message, each run in this process alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool, "POOL_MIN_EXPS", math.inf)
        return run_sweep(SWEEP, workers=1), run_election(ELECTION), _raising_cast()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class PoolMachine(RuleBasedStateMachine):
    """Sweeps, elections and a raising phase, between a worker SIGKILLed
    from outside, a forked child, a running thread and a one-CPU affinity
    set. Any phase forks the pool (POOL_FORK_EXPS = 0)."""

    def __init__(self):
        super().__init__()
        self.sweep_rows, self.outcome, self.message = _in_process()
        pool._close_pool()
        self.fds = _open_fds()
        self.forks, self.jobs = [], []
        real_fork, real_pooled = os.fork, pool._pooled

        def counting_fork():
            # no more live children than CPUs, the one forked now among them
            assert sum(map(pool._running, self.forks)) < CPUS
            pid = real_fork()
            if pid:
                self.forks.append(pid)
            return pid

        def recording_pooled(fn, *args):
            self.jobs.append(fn)
            return real_pooled(fn, *args)

        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(pool, "POOL_FORK_EXPS", 0)
        self.patch.setattr(os, "fork", counting_fork)
        self.patch.setattr(pool, "_pooled", recording_pooled)

    def _runs_here(self, *runs) -> None:
        """Each run equals its in-process result, and none reaches the pool."""
        jobs = len(self.jobs)
        for run, expected in runs:
            assert run() == expected
        assert len(self.jobs) == jobs

    @rule()
    def sweep(self):
        jobs = len(self.jobs)
        assert run_sweep(SWEEP) == self.sweep_rows
        assert len(self.jobs) == jobs + (CPUS > 1)

    @rule()
    def election(self):
        jobs = len(self.jobs)
        assert run_election(ELECTION) == self.outcome
        assert len(self.jobs) == jobs + 2 * (CPUS > 1)

    @rule()
    def raising_phase(self):
        kept = pool._pool
        assert _raising_cast() == self.message
        assert kept is None or pool._pool is kept

    @precondition(lambda self: pool._pool is not None)
    @rule()
    def worker_killed_from_outside(self):
        pid = pool._pool.workers[0][0]
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        assert run_election(ELECTION) == self.outcome
        assert pid not in [worker for worker, _, _ in pool._pool.workers]

    @rule()
    def forked_child(self):
        pid = os.fork()
        if pid == 0:
            os._exit(0 if pool._pool is None else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @rule()
    def running_thread(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            self._runs_here((functools.partial(run_election, ELECTION), self.outcome),
                            (functools.partial(run_sweep, SWEEP), self.sweep_rows))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @rule()
    def one_cpu(self):
        try:
            os.sched_setaffinity(0, sorted(START_AFFINITY)[:1])
            self._runs_here((functools.partial(run_election, ELECTION), self.outcome),
                            (functools.partial(run_sweep, SWEEP), self.sweep_rows))
        finally:
            os.sched_setaffinity(0, START_AFFINITY)

    @invariant()
    def whole_pool_or_none(self):
        assert os.sched_getaffinity(0) == START_AFFINITY
        if pool._pool is not None:
            workers = [pid for pid, _, _ in pool._pool.workers]
            assert len(workers) == CPUS - 1 and all(map(pool._running, workers))

    def teardown(self):
        pool._close_pool()
        self.patch.undo()
        assert _open_fds() == self.fds
        with pytest.raises(ChildProcessError):  # no child left, live or unreaped
            os.waitpid(-1, os.WNOHANG)


TestPoolMachine = PoolMachine.TestCase
TestPoolMachine.settings = settings(max_examples=20, stateful_step_count=10, deadline=None)


def test_a_one_shot_process_loads_neither_pickle_nor_signal():
    # the pool imports them once it is reached, and a one-shot run at the
    # defaults never reaches it
    script = (
        "import contextlib, io, json, sys\n"
        "import votesim.cli\n"
        "loaded = {'import': [m for m in ('pickle', 'signal') if m in sys.modules]}\n"
        "for command in ('hevs-run', 'bsv-run'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert votesim.cli.main([command]) == 0\n"
        "    loaded[command] = [m for m in ('pickle', 'signal') if m in sys.modules]\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ)
    src = str(Path(pool.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": [], "hevs-run": [], "bsv-run": []}
