import random

import pytest
from hypothesis import given, settings, strategies as st

from votesim.adversary import VoterRole
from votesim.errors import (
    DiscreteLogNotFound,
    EmptyBallotSet,
    MissingShares,
    RefuseSingletonAggregate,
)
from votesim.group import discrete_log_bounded
from votesim.hev import (
    Ciphertext,
    KeyShare,
    aggregate,
    combine_decrypt,
    decryption_share,
    encrypt_vote,
    keygen_share,
)
from votesim.hevs import SamplingPlan, combine_sampled_public_key, run_sampled_election


def make_share(params, voter_id, secret):
    return KeyShare(voter_id, secret, params.exp(params.generator, secret))


def every_voter_once(n):
    """Plain HEV's plan: one sample holding every voter once."""
    return SamplingPlan(n, (tuple(range(1, n + 1)),))


def honest_tally(params, votes, rng):
    """The tally of one honest plain-HEV election, every draw from the one rng."""
    roles = [VoterRole(i, honest=True) for i in range(1, len(votes) + 1)]
    (result,) = run_sampled_election(params, votes, roles, every_voter_once(len(votes)), rng)
    return result.tally


# Hand-worked trace in the mod-23 group: secrets (3, 5, 2), votes (1, 0, 1),
# nonces (4, 6, 2). Every intermediate value below was derived by direct
# modular arithmetic.


def test_key_pieces_from_known_secrets(tiny):
    assert make_share(tiny, 1, 3).public_piece == 8
    assert make_share(tiny, 2, 5).public_piece == 9   # 32 mod 23
    assert make_share(tiny, 3, 2).public_piece == 4


def test_combine_public_key_worked_value(tiny):
    plan = every_voter_once(3)
    assert combine_sampled_public_key(tiny, {1: 8, 2: 9, 3: 4}, plan, 0) == 12  # 288 mod 23 = g**10
    assert combine_sampled_public_key(tiny, {1: 9}, every_voter_once(1), 0) == 9
    assert combine_sampled_public_key(tiny, {1: 1, 2: 1, 3: 1}, plan, 0) == 1


def test_encrypt_vote_worked_values(tiny):
    pk = 12
    assert encrypt_vote(tiny, pk, 1, nonce=4) == Ciphertext(16, 3)
    assert encrypt_vote(tiny, pk, 0, nonce=6) == Ciphertext(18, 9)
    assert encrypt_vote(tiny, pk, 1, nonce=2) == Ciphertext(4, 12)


def test_encrypt_vote_validates_inputs(tiny, rng):
    with pytest.raises(ValueError):
        encrypt_vote(tiny, 12, 2, rng)
    with pytest.raises(ValueError):
        encrypt_vote(tiny, 7, 1, rng)  # 7 is outside the subgroup
    with pytest.raises(ValueError):
        encrypt_vote(tiny, 12, 1)  # neither rng nor nonce


def test_aggregate_worked_value(tiny):
    cts = [Ciphertext(16, 3), Ciphertext(18, 9), Ciphertext(4, 12)]
    assert aggregate(tiny, cts) == Ciphertext(2, 2)
    assert aggregate(tiny, cts[:1]) == cts[0]


def test_aggregate_is_order_independent(tiny, rng):
    cts = [encrypt_vote(tiny, 12, rng.randrange(2), rng) for _ in range(6)]
    expected = aggregate(tiny, cts)
    for _ in range(10):
        rng.shuffle(cts)
        assert aggregate(tiny, cts) == expected


def test_aggregate_rejects_empty(tiny):
    with pytest.raises(EmptyBallotSet):
        aggregate(tiny, [])


def test_decryption_share_worked_values(tiny):
    agg = Ciphertext(2, 2)
    assert decryption_share(tiny, make_share(tiny, 1, 3), agg) == 8
    assert decryption_share(tiny, make_share(tiny, 2, 5), agg) == 9


def test_decryption_share_refuses_own_aggregate(tiny):
    own = Ciphertext(16, 3)
    with pytest.raises(RefuseSingletonAggregate):
        decryption_share(tiny, make_share(tiny, 1, 3), own, own_ciphertext=own)
    # without the own-ciphertext check the share is produced
    assert decryption_share(tiny, make_share(tiny, 1, 3), own) == tiny.exp(16, 3)


ONCE_EACH = {1: 1, 2: 1, 3: 1}


def test_combine_decrypt_worked_value(tiny):
    partials = {1: 8, 2: 9, 3: 4}
    encoded = combine_decrypt(tiny, partials, Ciphertext(2, 2), ONCE_EACH)
    assert encoded == 4  # 2 * inv(12) = 2 * 2
    # a partial from a voter outside the key is ignored
    partials[9] = 5
    assert combine_decrypt(tiny, partials, Ciphertext(2, 2), ONCE_EACH) == 4


def test_combine_decrypt_is_share_order_independent(tiny, rng):
    partials = [(1, 8), (2, 9), (3, 4)]
    expected = combine_decrypt(tiny, dict(partials), Ciphertext(2, 2), ONCE_EACH)
    for _ in range(5):
        rng.shuffle(partials)
        assert combine_decrypt(tiny, dict(partials), Ciphertext(2, 2), ONCE_EACH) == expected


def test_combine_decrypt_reports_missing_voters(tiny):
    with pytest.raises(MissingShares) as excinfo:
        combine_decrypt(tiny, {1: 8}, Ciphertext(2, 2), ONCE_EACH)
    assert excinfo.value.missing_ids == (2, 3)


def test_recover_tally_examples(tiny):
    assert discrete_log_bounded(tiny, 4, 3) == 2
    assert discrete_log_bounded(tiny, 1, 3) == 0
    with pytest.raises(DiscreteLogNotFound):
        discrete_log_bounded(tiny, 7, 3)


def test_full_worked_trace(tiny):
    secrets = (3, 5, 2)
    votes = (1, 0, 1)
    nonces = (4, 6, 2)
    shares = [make_share(tiny, i + 1, s) for i, s in enumerate(secrets)]
    pk = combine_sampled_public_key(tiny, {s.voter_id: s.public_piece for s in shares},
                                    every_voter_once(3), 0)
    cts = [encrypt_vote(tiny, pk, v, nonce=r) for v, r in zip(votes, nonces)]
    agg = aggregate(tiny, cts)
    assert agg == Ciphertext(2, 2)
    partials = {s.voter_id: decryption_share(tiny, s, agg) for s in shares}
    assert partials == {1: 8, 2: 9, 3: 4}
    encoded = combine_decrypt(tiny, partials, agg, ONCE_EACH)
    assert encoded == 4
    assert discrete_log_bounded(tiny, encoded, 3) == 2


def test_keygen_share_invariants(tiny):
    rng = random.Random(3)
    for _ in range(100):
        share = keygen_share(rng, tiny, 1)
        assert 1 <= share.secret_key <= tiny.order - 1
        assert share.public_piece == tiny.exp(tiny.generator, share.secret_key)


def test_homomorphism_all_vote_pairs(tiny):
    # single key holder, secret known: unmask by hand and compare with the sum
    secret = 7
    pk = tiny.exp(tiny.generator, secret)
    for v1 in (0, 1):
        for v2 in (0, 1):
            rng = random.Random(v1 * 2 + v2)
            agg = aggregate(tiny, [encrypt_vote(tiny, pk, v1, rng),
                                   encrypt_vote(tiny, pk, v2, rng)])
            encoded = tiny.mul(agg.c2, tiny.inv(tiny.exp(agg.c1, secret)))
            assert discrete_log_bounded(tiny, encoded, 2) == v1 + v2


# The tiny 11-element group is unusable here: an honest aggregate collides
# with some voter's own ciphertext about once per dozen runs and triggers the
# privacy refusal, so the end-to-end property runs in the realistic group.
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_honest_election_recovers_exact_sum(big, data):
    n = data.draw(st.integers(1, 10))
    votes = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 2**32))
    assert honest_tally(big, votes, random.Random(seed)) == sum(votes)


def test_honest_election_big_group(big):
    rng = random.Random(99)
    votes = [rng.randrange(2) for _ in range(25)]
    assert honest_tally(big, votes, rng) == sum(votes)


def test_single_voter_election_succeeds(big):
    # the privacy refusal must not deadlock the degenerate election
    for vote in (0, 1):
        assert honest_tally(big, [vote], random.Random(vote)) == vote


def test_reencryption_freshness(big, rng):
    pk = big.exp(big.generator, 12345)
    differing = 0
    for _ in range(200):
        a = encrypt_vote(big, pk, 1, rng)
        b = encrypt_vote(big, pk, 1, rng)
        if a.c1 != b.c1 and a.c2 != b.c2:
            differing += 1
    assert differing >= 198  # >= 99% of re-encryptions differ in both parts
