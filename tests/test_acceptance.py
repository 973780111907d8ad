"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see them).
Tolerances are pinned here and nowhere else.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from votesim.adversary import Behavior, VoterRole
from votesim.bsv import (
    Ballot,
    Ledger,
    RejectReason,
    SignerRegistry,
    blind,
    make_ballot,
    sign_blinded,
    signer_keygen,
    unblind,
    verify_ballot,
)
from votesim.errors import AlreadySigned
from votesim.experiments import (
    TrialConfig,
    grid,
    run_sweep,
    run_trial,
)
from votesim.group import TINY_GROUP, default_group
from votesim.hev import (
    Ciphertext,
    KeyShare,
    aggregate,
    decryption_share,
    encrypt_value,
    encrypt_vote,
    keygen_share,
)
from votesim.hevs import (
    SamplingPlan,
    combine_sampled_decrypt,
    combine_sampled_public_key,
    make_sampling_plan,
    reliability_probability,
    run_sampled_election,
)
from votesim.cli import main as cli_main

from reference import empirical_sample_reliability


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} {status} {description}{suffix}", flush=True)
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_honest_elections_recover_exact_sum():
    params = default_group()
    rng = random.Random(20260808)
    failures = 0
    for _ in range(500):
        n = rng.randint(1, 100)
        votes = [rng.randrange(2) for _ in range(n)]
        # plain HEV: one sample holding every voter once, every draw from rng
        roles = [VoterRole(i, honest=True) for i in range(1, n + 1)]
        plan = SamplingPlan(n, (tuple(range(1, n + 1)),))
        (result,) = run_sampled_election(params, votes, roles, plan, rng)
        if result.tally != sum(votes):
            failures += 1
    report(1, "500 random honest elections decode the exact sum",
           failures == 0, f"failures={failures}")


def test_criterion_02_worked_trace():
    tiny = TINY_GROUP
    secrets, votes, nonces = (3, 5, 2), (1, 0, 1), (4, 6, 2)
    pieces = [tiny.exp(tiny.generator, s) for s in secrets]
    plan = SamplingPlan(3, ((1, 2, 3),))
    pk = combine_sampled_public_key(tiny, dict(enumerate(pieces, 1)), plan, 0)
    cts = [encrypt_vote(tiny, pk, v, nonce=r) for v, r in zip(votes, nonces)]
    agg = aggregate(tiny, cts)
    partials = [tiny.exp(agg.c1, s) for s in secrets]
    mask = 1
    for value in partials:
        mask = tiny.mul(mask, value)
    shares = {i + 1: decryption_share(tiny, KeyShare(i + 1, s, pieces[i]), agg)
              for i, s in enumerate(secrets)}
    result = combine_sampled_decrypt(tiny, shares, plan, 0, agg, 3)
    encoded, tally = result.element, result.tally
    ok = (agg == Ciphertext(2, 2) and mask == 12 and encoded == 4 and tally == 2)
    report(2, "hand-worked mod-23 trace reproduces (2,2), W=12, o=4, tally=2",
           ok, f"agg=({agg.c1},{agg.c2}) W={mask} o={encoded} tally={tally}")


def test_criterion_03_analytic_instance():
    value = reliability_probability(50, 5, 25)
    report(3, "single-sample reliability(50,5,25) = 0.025 within 0.001",
           abs(value - 0.025) <= 0.001, f"value={value:.6f}")


def _sweep_extremes(ns, p_fail, ks, min_consistency=2):
    rows = run_sweep(grid(ns, (p_fail,), ks, min_consistency=min_consistency,
                          trials=1000, seeds=(1, 2, 3)))
    worst = min(rows, key=lambda r: r.accuracy)
    best = max(rows, key=lambda r: r.accuracy)
    return rows, worst, best


def test_criterion_04_low_failure_rate_high_accuracy():
    rows, worst, _ = _sweep_extremes((50, 100, 200, 500), 0.01, (6, 8, 12, 16))
    report(4, "p_fail=0.01, k>=6: accuracy >= 0.95 at every point",
           all(r.accuracy >= 0.95 for r in rows),
           f"worst={worst.accuracy:.4f} at n={worst.n}, k={worst.k}")


def test_criterion_05_moderate_failure_rate():
    rows, worst, _ = _sweep_extremes((50, 100, 200), 0.1, (16, 20, 24, 32))
    report(5, "p_fail=0.1, k>=16: accuracy >= 0.9 at every point",
           all(r.accuracy >= 0.9 for r in rows),
           f"worst={worst.accuracy:.4f} at n={worst.n}, k={worst.k}")


def test_criterion_06_majority_malicious_defeats_protocol():
    rows, _, best = _sweep_extremes((100,), 0.6, (1, 2, 4, 8, 16, 32))
    report(6, "p_fail=0.6, any k<=32: accuracy <= 0.5",
           all(r.accuracy <= 0.5 for r in rows),
           f"best={best.accuracy:.4f} at k={best.k}")


def test_criterion_07_single_sample_baseline():
    trials = 10_000
    estimate = empirical_sample_reliability(50, 5, 25, trials, seed=7)
    expected = (45 / 50) ** 25
    stderr = math.sqrt(expected * (1 - expected) / trials)
    printed_formula = reliability_probability(50, 5, 25)
    report(7, "empirical sample reliability matches ((n-m)/n)**t within 3 SE",
           abs(estimate - expected) <= 3 * stderr,
           f"empirical={estimate:.4f} with-replacement={expected:.4f} "
           f"without-replacement={printed_formula:.4f}")


def test_criterion_08_disrupted_samples_stay_distinct():
    params = default_group()
    rng = random.Random(88)
    trials = 10_000
    distinct = 0
    roles = [VoterRole(1, False, Behavior.FAKE_SHARE), VoterRole(2, True), VoterRole(3, True)]
    for _ in range(trials):
        plan = SamplingPlan(population=3, multisets=(
            (1, rng.randint(1, 3)), (1, rng.randint(1, 3))))
        results = run_sampled_election(params, [0, 1, 0], roles, plan, rng)
        if results[0].element != results[1].element:
            distinct += 1
    report(8, "two disrupted samples with one shared fake exponent differ",
           distinct / trials >= 0.999, f"distinct={distinct}/{trials}")


def test_criterion_09_bsv_property_suite():
    rng = random.Random(909)
    keys = signer_keygen(rng, bits=512)
    pub = keys.public
    sign_window, post_window = (1, 3), (3, 5)
    ledger = Ledger(pub, sign_window, post_window)
    count = 1000
    registry = SignerRegistry(range(1, count + 1))
    ballots = []
    parts = {}

    # (a) full round trips all accepted
    accepted = 0
    for voter_id in range(1, count + 1):
        ballot = make_ballot("for" if voter_id % 3 else "against", rng)
        state = blind(ballot, pub, rng)
        signed = sign_blinded(keys, state.blinded, voter_id, registry)
        ballot = ballot.with_signature(unblind(signed, state, pub))
        ballots.append(ballot)
        if ledger.submit(ballot, post_window[0]).accepted:
            accepted += 1
    parts["a"] = accepted == count

    # (b) every replay rejected as a duplicate nonce
    replays = [ledger.submit(b, post_window[0]) for b in ballots]
    parts["b"] = all(not r.accepted and r.reason is RejectReason.DUPLICATE_NONCE
                     for r in replays)

    # (c) every tampered ballot rejected as a bad signature
    tampered = [ledger.submit(Ballot("write-in", b.nonce, b.signature), post_window[0])
                for b in ballots]
    parts["c"] = all(not r.accepted and r.reason is RejectReason.BAD_SIGNATURE
                     for r in tampered)

    # (d) interleaved second requests never yield a second signature
    double_denied = 0
    for voter_id in rng.sample(range(1, count + 1), 200):
        ballot = make_ballot("for", rng)
        state = blind(ballot, pub, rng)
        try:
            sign_blinded(keys, state.blinded, voter_id, registry)
        except AlreadySigned:
            double_denied += 1
    parts["d"] = double_denied == 200 and len(registry.served) == count

    # (e) nothing is accepted during the signing window
    fresh_ledger = Ledger(pub, sign_window, post_window)
    during = [fresh_ledger.submit(b, sign_window[0]) for b in ballots[:100]]
    parts["e"] = all(not r.accepted and r.reason is RejectReason.OUTSIDE_POSTING_WINDOW
                     for r in during) and not fresh_ledger.ballots

    report(9, "blind-signature suite: roundtrip/replay/tamper/once-only/window",
           all(parts.values()),
           " ".join(f"{key}={'ok' if ok else 'FAIL'}" for key, ok in sorted(parts.items())))


def test_criterion_10_extra_vote_dominates():
    params = default_group()
    rng = random.Random(10)
    shares = [keygen_share(rng, params, i + 1) for i in range(3)]
    plan = SamplingPlan(3, ((1, 2, 3),))
    pk = combine_sampled_public_key(params, {s.voter_id: s.public_piece for s in shares}, plan, 0)
    cts = [
        encrypt_vote(params, pk, 0, rng),
        encrypt_vote(params, pk, 0, rng),
        encrypt_value(params, pk, 3, rng),
    ]
    agg = aggregate(params, cts)
    dshares = {s.voter_id: decryption_share(params, s, agg) for s in shares}
    tally = combine_sampled_decrypt(params, dshares, plan, 0, agg, 3).tally
    report(10, "extra-vote cheater turns two against-votes into a 3",
           tally == 3, f"tally={tally}")


def test_criterion_11_determinism(capsys):
    invocations = [
        ["hevs-run", "--n", "8", "--k", "4", "--p-fail", "0.3", "--seed", "5"],
        ["hev-run", "--n", "4", "--seed", "9"],
        ["analytic", "--n", "50", "--m", "5", "--t", "25"],
        ["sweep", "--n", "10", "--p-fail", "0.2", "--k", "3", "--trials", "30", "--seeds", "1,2"],
        ["bsv-run", "--n", "3", "--seed", "2", "--rsa-bits", "256"],
    ]
    cli_ok = True
    for argv in invocations:
        code_a = cli_main(argv)
        first = capsys.readouterr()
        code_b = cli_main(argv)
        second = capsys.readouterr()
        if (code_a, first.out, first.err) != (code_b, second.out, second.err):
            cli_ok = False

    disagreements = 0
    checked = 0
    for n in range(1, 7):
        for k in range(1, 5):
            for p_fail in (0.0, 0.3, 0.7, 1.0):
                symbolic = TrialConfig(n=n, p_fail=p_fail, k=k, mode="symbolic")
                full = TrialConfig(n=n, p_fail=p_fail, k=k, mode="full")
                for seed in (101, 102):
                    checked += 1
                    if run_trial(symbolic, seed) != run_trial(full, seed):
                        disagreements += 1

    with capsys.disabled():
        report(11, "CLI byte-determinism and full==symbolic on exhaustive instances",
               cli_ok and disagreements == 0,
               f"cli={'ok' if cli_ok else 'FAIL'} mode_pairs={checked - disagreements}/{checked}")


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 6), p_fail=st.floats(0.0, 1.0),
       min_consistency=st.integers(2, 4), behavior=st.sampled_from(["fake_share", "silent"]),
       seed=st.integers(0, 2**32 - 1))
def test_symbolic_equals_full_trial_for_trial(n, k, p_fail, min_consistency, behavior, seed):
    """Criterion 11's agreement over random instances rather than a fixed grid."""
    common = dict(n=n, p_fail=p_fail, k=k, min_consistency=min_consistency, behavior=behavior)
    symbolic = TrialConfig(mode="symbolic", **common)
    full = TrialConfig(mode="full", **common)
    assert run_trial(symbolic, seed) == run_trial(full, seed)
