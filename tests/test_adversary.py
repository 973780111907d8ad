import random

import pytest

from votesim.adversary import (
    Behavior,
    VoterRole,
    assign_roles,
    draw_fake_exponent,
    fake_decryption_share,
)
from votesim.errors import DiscreteLogNotFound
from votesim.group import discrete_log_bounded
from votesim.hev import (
    Ciphertext,
    aggregate,
    combine_decrypt,
    decryption_share,
    encrypt_value,
    encrypt_vote,
    keygen_share,
)
from votesim.hevs import (
    SamplingPlan,
    combine_sampled_public_key,
    make_sampling_plan,
    run_sampled_election,
)

#: plain HEV over voters 1-3: one sample holding each voter once
EVERY_VOTER_ONCE = SamplingPlan(3, ((1, 2, 3),))


def election_key(params, shares):
    pieces = {s.voter_id: s.public_piece for s in shares}
    return combine_sampled_public_key(params, pieces, EVERY_VOTER_ONCE, 0)


def unmask(params, partials, agg):
    """partials: voter id -> partial"""
    return combine_decrypt(params, partials, agg, EVERY_VOTER_ONCE.multiplicity(0))


class ScriptedRng:
    """Returns a fixed sequence from randrange, for forcing redraw paths."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)


def test_assign_roles_validates_probability(rng):
    assign_roles(rng, 3, 0.0)
    assign_roles(rng, 3, 1.0)
    with pytest.raises(ValueError):
        assign_roles(rng, 3, 1.5)
    with pytest.raises(ValueError):
        assign_roles(rng, 3, -0.1)


def test_assign_roles_extremes(rng):
    all_honest = assign_roles(rng, 50, 0.0)
    assert all(role.honest and role.behavior is None for role in all_honest)
    all_bad = assign_roles(rng, 50, 1.0, Behavior.SILENT)
    assert all(not role.honest and role.behavior is Behavior.SILENT for role in all_bad)
    assert [role.voter_id for role in all_bad] == list(range(1, 51))


def test_assign_roles_concentration():
    roles = assign_roles(random.Random(123), 10_000, 0.1)
    fraction = sum(not role.honest for role in roles) / len(roles)
    assert abs(fraction - 0.1) < 0.01


def test_assign_roles_deterministic_per_seed():
    a = assign_roles(random.Random(7), 100, 0.3)
    b = assign_roles(random.Random(7), 100, 0.3)
    assert a == b


def test_fake_share_redraws_true_secret(tiny):
    # draws colliding with the true secret are rejected until one differs
    for script in ([5, 9], [5, 5, 9]):
        exponent = draw_fake_exponent(ScriptedRng(script), tiny, true_secret=5)
        assert fake_decryption_share(tiny, aggregate_c1=2, exponent=exponent) == tiny.exp(2, 9)


def test_fake_share_uses_pinned_exponent(tiny):
    assert fake_decryption_share(tiny, 2, exponent=3) == 8


def test_fake_share_corrupts_decryption(big, rng):
    votes = [1, 0, 1]
    shares = [keygen_share(rng, big, i + 1) for i in range(3)]
    pk = election_key(big, shares)
    agg = aggregate(big, [encrypt_vote(big, pk, v, rng) for v in votes])
    partials = {s.voter_id: decryption_share(big, s, agg) for s in shares[:2]}
    exponent = draw_fake_exponent(rng, big, shares[2].secret_key)
    partials[3] = fake_decryption_share(big, agg.c1, exponent)
    encoded = unmask(big, partials, agg)
    with pytest.raises(DiscreteLogNotFound):
        discrete_log_bounded(big, encoded, 3)


def test_extra_vote_dominates_tally(big, rng):
    # two honest against-voters plus one cheater encrypting 3
    shares = [keygen_share(rng, big, i + 1) for i in range(3)]
    pk = election_key(big, shares)
    cts = [
        encrypt_vote(big, pk, 0, rng),
        encrypt_vote(big, pk, 0, rng),
        encrypt_value(big, pk, 3, rng),
    ]
    agg = aggregate(big, cts)
    partials = {s.voter_id: decryption_share(big, s, agg) for s in shares}
    encoded = unmask(big, partials, agg)
    assert discrete_log_bounded(big, encoded, 3) == 3


def test_extra_vote_value_one_is_honest(big, rng):
    secret = 42
    pk = big.exp(big.generator, secret)
    ct = encrypt_value(big, pk, 1, rng)
    encoded = big.mul(ct.c2, big.inv(big.exp(ct.c1, secret)))
    assert discrete_log_bounded(big, encoded, 1) == 1


def test_extra_vote_beyond_bound_is_undecodable(big, rng):
    n = 3
    secret = 42
    pk = big.exp(big.generator, secret)
    ct = encrypt_value(big, pk, n + 5, rng)
    encoded = big.mul(ct.c2, big.inv(big.exp(ct.c1, secret)))
    with pytest.raises(DiscreteLogNotFound):
        discrete_log_bounded(big, encoded, n)


def test_degenerate_adversary_reproduces_honest_tally(big):
    rng = random.Random(55)
    roles = assign_roles(rng, 6, 0.0)
    votes = [rng.randrange(2) for _ in range(6)]
    plan = make_sampling_plan(rng, 6, 5)
    results = run_sampled_election(big, votes, roles, plan, rng)
    assert [r.tally for r in results] == [sum(votes)] * 5


def test_sample_reliable_iff_no_malicious_sampled(big):
    # exhaustive over every role pattern for small electorates
    for n in (2, 3, 4, 5, 6):
        for pattern in range(2 ** n):
            if pattern == 0:
                continue
            roles = [
                VoterRole(i + 1, honest=not (pattern >> i) & 1,
                          behavior=Behavior.FAKE_SHARE if (pattern >> i) & 1 else None)
                for i in range(n)
            ]
            rng = random.Random(pattern * 31 + n)
            votes = [rng.randrange(2) if role.honest else 0 for role in roles]
            plan = make_sampling_plan(rng, n, 2)
            results = run_sampled_election(big, votes, roles, plan, rng)
            for result, multiset in zip(results, plan.multisets):
                clean = all(roles[i - 1].honest for i in multiset)
                if clean:
                    assert result.tally == sum(votes)
                else:
                    assert result.tally != sum(votes)
