"""The benchmark's workloads: inputs made from the workload seed, the call the
closed loop times, and the checks on every output.

Each workload exposes:

* ``inputs(index)`` - the input of closed-loop call ``index``, made from the
  workload seed alone (untimed);
* ``run(inputs)`` - the timed call into votesim's public API;
* ``ops(inputs)`` - how many ops that call performs;
* ``record(index, inputs, output)`` - check one output (untimed);
* ``finish()`` - checks that need every output, returning ``(failed ops,
  detail)``;
* ``digest(output)`` - sha256 of the seeded bytes pinned in ``golden.json``;
* ``transcript_size(output)`` - transcript messages and bytes per call;
* ``trace_calls`` - how many calls, from call 0, a traced run repeats.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import replace

from votesim import experiments, simnet
from votesim.experiments import expected_accuracy, grid, sweep_csv
from votesim.group import default_group
from votesim.hevs import resolve_sample_size
from votesim.simnet import ElectionConfig

#: width of the accuracy band of a symbolic sweep point, in binomial sigma
Z = 4.0
#: two-sided normal probability beyond Z sigma (6.3e-5)
ALPHA = math.erfc(Z / math.sqrt(2))

BEHAVIORS = ("fake_share", "silent")


def bench_seed(*parts) -> int:
    """A 32-bit library seed derived from the workload seed and labels."""
    material = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "big")


def _binomial_tail(successes: int, trials: int, p: float, upper: bool) -> float:
    """P(X >= successes) if upper else P(X <= successes), X ~ Binomial(trials, p)."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(trials + 1)
    span = range(successes, trials + 1) if upper else range(successes + 1)
    return sum(
        math.exp(head - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
                 + i * log_p + (trials - i) * log_q)
        for i in span
    )


def accuracy_band(successes: int, trials: int, p: float) -> tuple[float, float, bool]:
    """(sigma, z, ok): is successes/trials within Z binomial sigma of p?

    When p is within a few failures of 1 (or 0), the count is Poisson-like
    and sigma understates its tail: a single failure at p = 0.99992 over 100
    trials is 10 sigma out, yet happens in 1 run of 120. There a count
    outside Z sigma still passes if its exact binomial tail is no rarer than
    the normal tail beyond Z sigma, so the check's false-alarm rate stays
    ALPHA for every p.
    """
    sigma = math.sqrt(p * (1.0 - p) / trials)
    measured = successes / trials
    if sigma == 0.0:
        z = 0.0 if measured == p else math.copysign(math.inf, measured - p)
    else:
        z = (measured - p) / sigma
    if abs(z) <= Z:
        return sigma, z, True
    return sigma, z, _binomial_tail(successes, trials, p, upper=z > 0) >= ALPHA / 2


class Sweep:
    """One ``run_sweep(grid(...))`` over both behaviours per call; an op is a trial."""

    #: calls that every pass of a traced run repeats
    trace_calls = 1

    def __init__(self, name, mode, ns, p_fails, ks, trials, seed):
        self.name, self.mode, self.seed, self.trials = name, mode, seed, trials
        self.axes = (ns, p_fails, ks)
        #: per grid position: [successes, trials] summed over distinct calls
        self.totals: dict[int, list[int]] = {}
        self.failures: list[str] = []
        self.failed = 0
        default_group()

    def inputs(self, index):
        library_seed = bench_seed(self.name, self.seed, index)
        return [
            config
            for behavior in BEHAVIORS
            for config in grid(*self.axes, t_policy="sqrt-half", behavior=behavior,
                               mode=self.mode, trials=self.trials, seeds=(library_seed,))
        ]

    def warmup(self) -> None:
        experiments.run_sweep([replace(self.inputs("warmup")[0], trials=1)])

    def run(self, configs):
        # Called through the module, so a traced run sees the wrapped bindings.
        return experiments.run_sweep(configs)

    def ops(self, configs) -> int:
        return sum(c.trials * len(c.seeds) for c in configs)

    def digest(self, rows) -> str:
        return hashlib.sha256(sweep_csv(rows).encode("utf-8")).hexdigest()

    def transcript_size(self, rows) -> tuple[int, int]:
        return 0, 0

    def record(self, index, configs, rows) -> None:
        if self.mode == "symbolic":
            for position, row in enumerate(rows):
                total = self.totals.setdefault(position, [0, 0])
                total[0] += round(row.accuracy * row.trials)
                total[1] += row.trials
            return
        # Full and symbolic mode agree trial for trial, so whole points agree.
        symbolic = experiments.run_sweep([replace(c, mode="symbolic") for c in configs])
        for config, full_row, sym_row in zip(configs, rows, symbolic):
            if full_row.accuracy != sym_row.accuracy:
                self.failed += config.trials
                self.failures.append(
                    f"call {index} {config}: full {full_row.accuracy} != symbolic {sym_row.accuracy}")

    def finish(self):
        detail = {"failures": self.failures}
        if self.mode == "symbolic":
            points = []
            configs = self.inputs(0)
            for position, (successes, trials) in sorted(self.totals.items()):
                c = configs[position]
                t = resolve_sample_size(c.t_policy, c.n)
                analytic = expected_accuracy(c.n, c.p_fail, c.k, t, c.min_consistency)
                sigma, z, ok = accuracy_band(successes, trials, analytic)
                points.append({"n": c.n, "p_fail": c.p_fail, "k": c.k, "t": t,
                               "behavior": c.behavior, "trials": trials,
                               "measured": successes / trials, "analytic": analytic,
                               "sigma": sigma, "z": z, "ok": ok})
                if not ok:
                    self.failed += trials
                    self.failures.append(f"{c.behavior} n={c.n} p={c.p_fail} k={c.k} outside band")
            detail["points"] = points
        return self.failed, detail


class Elections:
    """run_election -> transcript_lines -> replay round trips of one protocol.

    Votes are drawn by the benchmark and passed in, so every count can be
    checked against intents the library never chose. An op is a round trip.
    """

    trace_calls = 6

    def __init__(self, name, seed, **config):
        self.name, self.seed, self.config = name, seed, config
        self.failures: list[str] = []
        self.failed = 0
        self.outcomes: Counter = Counter()
        default_group()

    def inputs(self, index):
        rng = random.Random(bench_seed(self.name, self.seed, index))
        n = self.config["n"]
        if self.config["protocol"] == "bsv":
            votes = tuple(rng.choice(ElectionConfig.candidates) for _ in range(n))
        else:
            votes = tuple(rng.randrange(2) for _ in range(n))
        return ElectionConfig(seed=rng.getrandbits(32), votes=votes, **self.config)

    def warmup(self) -> None:
        self.run(self.inputs("warmup"))

    def run(self, config):
        outcome = simnet.run_election(config)
        lines = simnet.transcript_lines(outcome)
        return outcome, lines, simnet.replay(lines)

    def ops(self, config) -> int:
        return 1

    def digest(self, output) -> str:
        text = "".join(line + "\n" for line in output[1])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def transcript_size(self, output) -> tuple[int, int]:
        outcome, lines, _ = output
        return len(outcome.transcript), sum(len(line.encode("utf-8")) + 1 for line in lines)

    def record(self, index, config, output) -> None:
        outcome, _, replayed = output
        if replayed != outcome:
            problem = "replay outcome differs from the original"
        else:
            problem = getattr(self, f"_check_{config.protocol}")(config, outcome)
        self.outcomes[outcome.error or "ok"] += 1
        if problem:
            self.failed += 1
            self.failures.append(f"op {index} seed {config.seed}: {problem}")

    @staticmethod
    def _check_hev(config, outcome):
        if not outcome.ok or outcome.tally != sum(config.votes) or outcome.true_tally != outcome.tally:
            return f"hev tally {outcome.tally} (error {outcome.error}) != votes {sum(config.votes)}"
        return None

    @staticmethod
    def _check_hevs(config, outcome):
        truth = outcome.true_tally
        if outcome.ok:
            return None if outcome.decision == truth else f"decision {outcome.decision} != {truth}"
        # Too few clean samples is a correct refusal, not a wrong answer.
        clean = outcome.sample_tallies.count(truth)
        if outcome.error == "no_consistent_result" and clean < config.min_consistency:
            return None
        return f"hevs failed with {outcome.error} and {clean} clean samples"

    @staticmethod
    def _check_bsv(config, outcome):
        intents = Counter(config.votes)
        want = {c: intents.get(c, 0) for c in config.candidates}
        if not outcome.ok or outcome.counts != want:
            return f"bsv counts {outcome.counts} != intents {want}"
        rejected = [m.payload["reason"] for m in outcome.transcript
                    if m.phase == "post" and not m.payload["accepted"]]
        if rejected != ["duplicate_nonce"] * len(config.replay_voters):
            return f"bsv rejections {rejected} for replayed voters {config.replay_voters}"
        if len(outcome.ledger_dump) != config.n:
            return f"bsv ledger holds {len(outcome.ledger_dump)} ballots for {config.n} voters"
        return None

    def finish(self):
        return self.failed, {"failures": self.failures, "outcomes": dict(self.outcomes)}


WORKLOADS = {
    # Accuracy curves as they are produced: no group arithmetic at all.
    "sweep-symbolic": lambda seed: Sweep(
        "sweep-symbolic", "symbolic", (50, 200, 500), (0.01, 0.1), (8, 16), 50, seed),
    # Small electorates, so per-key set-up is amortised over the fewest
    # encryptions; p_fail = 0.3 makes garbage and blocked samples common.
    "sweep-full": lambda seed: Sweep(
        "sweep-full", "full", (12, 30), (0.05, 0.3), (4, 8), 1, seed),
    "elections-hev": lambda seed: Elections("elections-hev", seed, protocol="hev", n=32),
    "elections-hevs": lambda seed: Elections(
        "elections-hevs", seed, protocol="hevs", n=24, k=4, p_fail=0.1, behavior="fake_share"),
    "elections-bsv": lambda seed: Elections(
        "elections-bsv", seed, protocol="bsv", n=32, rsa_bits=512, replay_voters=(1, 2)),
}
