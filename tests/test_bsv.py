import math
import random
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from votesim.bsv import (
    TEST_SIGNER_KEYS,
    Ballot,
    Ledger,
    RejectReason,
    SignerKeys,
    SignerRegistry,
    ballot_digest,
    blind,
    make_ballot,
    sign_blinded,
    signer_keygen,
    unblind,
    verify_ballot,
)
from votesim.errors import AlreadySigned, IneligibleVoter, PhaseError
from votesim.group import is_probable_prime

SIGN_WINDOW = (1, 3)
POST_WINDOW = (3, 5)
POST = POST_WINDOW[0]


@pytest.fixture(scope="module")
def keys():
    return signer_keygen(random.Random(2024), bits=512)


def issue(keys, content, rng, registry=None, voter_id=1):
    registry = registry or SignerRegistry([voter_id])
    ballot = make_ballot(content, rng)
    state = blind(ballot, keys.public, rng)
    blind_sig = sign_blinded(keys, state.blinded, voter_id, registry)
    return ballot.with_signature(unblind(blind_sig, state, keys.public))


def test_test_keys_satisfy_rsa_equation():
    lam = math.lcm(60, 52)  # 3233 = 61 * 53
    assert lam == 780
    assert TEST_SIGNER_KEYS.public_exponent * TEST_SIGNER_KEYS.private_exponent % lam == 1
    assert 17 * 2753 == 46801 == 60 * 780 + 1


def test_test_keys_roundtrip():
    rng = random.Random(0)
    for _ in range(50):
        x = rng.randrange(1, 3233)
        signed = pow(x, 2753, 3233)
        assert pow(signed, 17, 3233) == x


def test_keygen_structure_and_determinism():
    a = signer_keygen(random.Random(5), bits=128)
    b = signer_keygen(random.Random(5), bits=128)
    assert a == b
    c = signer_keygen(random.Random(6), bits=128)
    assert a != c
    assert a.modulus.bit_length() in (127, 128)
    with pytest.raises(ValueError):
        signer_keygen(random.Random(1), bits=8)


def test_keygen_keeps_its_primes():
    assert (TEST_SIGNER_KEYS.p, TEST_SIGNER_KEYS.q) == (61, 53)
    for bits in (16, 17, 33, 128):
        keys = signer_keygen(random.Random(bits), bits)
        assert keys.p * keys.q == keys.modulus
        assert keys.p != keys.q
        assert is_probable_prime(keys.p) and is_probable_prime(keys.q)


def test_signer_keys_reject_bad_factors():
    with pytest.raises(ValueError):
        SignerKeys(modulus=3233, public_exponent=17, private_exponent=2753, p=61, q=59)
    with pytest.raises(ValueError):
        SignerKeys(modulus=3234, public_exponent=17, private_exponent=2753, p=61, q=53)
    # a factor of 1 or 2 would leave no CRT exponent or a zero one
    with pytest.raises(ValueError):
        SignerKeys(modulus=3233, public_exponent=17, private_exponent=2753, p=1, q=3233)
    with pytest.raises(ValueError):
        SignerKeys(modulus=6466, public_exponent=17, private_exponent=2753, p=2, q=3233)


def test_crt_parameters_stay_out_of_eq_and_repr():
    keys = signer_keygen(random.Random(5), bits=128)
    assert repr(keys) == (f"SignerKeys(modulus={keys.modulus}, public_exponent={keys.public_exponent}, "
                          f"private_exponent={keys.private_exponent}, p={keys.p}, q={keys.q})")
    same = SignerKeys(keys.modulus, keys.public_exponent, keys.private_exponent, keys.p, keys.q)
    assert same == keys and hash(same) == hash(keys)


def plain_signature(keys, blinded):
    return pow(blinded, keys.private_exponent, keys.modulus)


def crt_signature(keys, blinded):
    return sign_blinded(keys, blinded, 1, SignerRegistry([1]))


def edge_inputs(keys):
    """0, 1, the primes and their multiples, N - 1, N, values above N and negatives."""
    n, p, q = keys.modulus, keys.p, keys.q
    edges = [0, 1, 2, p, q, 2 * p, 3 * q, (q - 1) * p, (p - 1) * q, n - 1, n, n + 1, n + p,
             2 * n, 5 * n + q, n * n, -1, -p, -q, -n, -n - 1, -(n * n) + 3]
    return edges + [-x for x in edges]


def test_crt_signature_matches_plain_rsa_on_every_test_key_input():
    n = TEST_SIGNER_KEYS.modulus
    for blinded in [*range(-n - 5, 2 * n + 5), *edge_inputs(TEST_SIGNER_KEYS)]:
        assert crt_signature(TEST_SIGNER_KEYS, blinded) == plain_signature(TEST_SIGNER_KEYS, blinded)


@settings(max_examples=150, deadline=None)
@given(bits=st.integers(16, 128), seed=st.integers(0, 2 ** 32), data=st.data())
def test_crt_signature_matches_plain_rsa(bits, seed, data):
    keys = signer_keygen(random.Random(seed), bits)
    n = keys.modulus
    blinded = data.draw(st.one_of(st.integers(-3 * n, 3 * n),
                                  st.builds(lambda k: k * keys.p, st.integers(-2 * keys.q, 2 * keys.q)),
                                  st.builds(lambda k: k * keys.q, st.integers(-2 * keys.p, 2 * keys.p))))
    assert crt_signature(keys, blinded) == plain_signature(keys, blinded)
    for edge in edge_inputs(keys):
        assert crt_signature(keys, edge) == plain_signature(keys, edge)


SMALL_KEYS = {"3233": TEST_SIGNER_KEYS} | {
    f"{bits} bits, seed {seed}": signer_keygen(random.Random(seed), bits)
    for bits in (16, 18, 20) for seed in (1, 2)}


@pytest.mark.parametrize("signer", SMALL_KEYS.values(), ids=SMALL_KEYS)
def test_public_exponent_permutes_the_residues(signer):
    """x -> x**e mod n is a bijection of [0, n), so a blind signature is the
    one value in [0, n) that the public exponent raises to the blinded value."""
    n = signer.modulus
    assert len(set(map(pow, range(n), repeat(signer.public_exponent), repeat(n)))) == n


def ballot_with_digest(digest, modulus):
    """A ballot whose digest mod `modulus` is `digest`, by searching nonces."""
    return next(Ballot("for", nonce) for nonce in range(100 * modulus)
                if ballot_digest("for", nonce, modulus) == digest)


def test_public_check_accepts_only_the_signature(keys, rng):
    """verify_ballot takes only the unblinded signature s, whose product with
    the blinding factor is the blind signature; s + 1 and s + n fail."""
    for signer in (TEST_SIGNER_KEYS, keys, signer_keygen(random.Random(3), 64)):
        pub, n = signer.public, signer.modulus
        ballots = [make_ballot("for", rng) for _ in range(100)]
        if signer is TEST_SIGNER_KEYS:
            ballots += [ballot_with_digest(digest, n) for digest in (0, 1, n - 1)]
        for ballot in ballots:
            state = blind(ballot, pub, rng)
            blind_sig = crt_signature(signer, state.blinded)
            value = unblind(blind_sig, state, pub)
            assert value * state.factor % n == blind_sig
            assert verify_ballot(pub, ballot.with_signature(value))
            assert not verify_ballot(pub, ballot.with_signature(value + 1))
            assert not verify_ballot(pub, ballot.with_signature(value + n))


def test_make_ballot_nonce_width(rng):
    ballot = make_ballot("for", rng)
    assert 0 <= ballot.nonce < 2 ** 256
    assert ballot.signature is None
    with pytest.raises(ValueError):
        make_ballot("a\tb", rng)
    with pytest.raises(ValueError):
        make_ballot("", rng)


def test_digest_is_stable_and_reduced():
    d1 = ballot_digest("for", 12345, 3233)
    assert d1 == ballot_digest("for", 12345, 3233)
    assert 0 <= d1 < 3233
    assert d1 != ballot_digest("against", 12345, 3233)
    assert d1 != ballot_digest("for", 12346, 3233)


def test_identity_blinding(rng):
    ballot = make_ballot("for", rng)
    state = blind(ballot, TEST_SIGNER_KEYS.public, factor=1)
    assert state.blinded == ballot_digest("for", ballot.nonce, 3233)


def test_blind_redraws_shared_divisors():
    class Scripted:
        def __init__(self, values):
            self.values = list(values)
        def randrange(self, *args):
            return self.values.pop(0)

    ballot = Ballot("for", 777)
    state = blind(ballot, TEST_SIGNER_KEYS.public, Scripted([61, 53, 7]))
    assert state.factor == 7  # 61 and 53 divide the modulus and are rejected


def test_blind_rejects_bad_explicit_factor(rng):
    ballot = make_ballot("for", rng)
    with pytest.raises(ValueError):
        blind(ballot, TEST_SIGNER_KEYS.public, factor=61)


def test_blinded_values_cover_units_exactly():
    # blindness: for any digest, {digest * b**e} over all units IS the unit
    # set, so the signer's view carries no information about the digest
    N, e = TEST_SIGNER_KEYS.modulus, TEST_SIGNER_KEYS.public_exponent
    units = {b for b in range(1, N) if math.gcd(b, N) == 1}
    for content in ("for", "against"):
        digest = ballot_digest(content, 99, N)
        assert math.gcd(digest, N) == 1
        image = {digest * pow(b, e, N) % N for b in units}
        assert image == units


def test_blinded_distribution_chi_square():
    # the blinding map digest * b**e over uniform unit b is uniform on units
    # (b is drawn over the whole unit group here; the production draw skips
    # b=1, whose image is a vanishing fraction at real modulus sizes)
    N, e = 33, 3  # lambda(33) = 10, gcd(3, 10) = 1
    units = sorted(b for b in range(1, N) if math.gcd(b, N) == 1)
    digest = 7
    rng = random.Random(12)
    draws_per_unit = 200
    counts = {u: 0 for u in units}
    for _ in range(draws_per_unit * len(units)):
        while True:
            b = rng.randrange(1, N)
            if math.gcd(b, N) == 1:
                break
        counts[digest * pow(b, e, N) % N] += 1
    stat = sum((c - draws_per_unit) ** 2 / draws_per_unit for c in counts.values())
    # chi-square critical value at alpha = 0.001 with df = 19
    assert stat < 43.82


def test_sign_blinded_registry_rules(keys, rng):
    registry = SignerRegistry([1, 2])
    ballot = make_ballot("for", rng)
    state = blind(ballot, keys.public, rng)
    sign_blinded(keys, state.blinded, 1, registry)
    with pytest.raises(AlreadySigned):
        sign_blinded(keys, state.blinded, 1, registry)
    with pytest.raises(IneligibleVoter):
        sign_blinded(keys, state.blinded, 99, registry)
    sign_blinded(keys, state.blinded, 2, registry)


def test_one_signature_per_voter_under_interleaving(keys, rng):
    voters = list(range(1, 11))
    registry = SignerRegistry(voters)
    requests = voters * 3
    rng.shuffle(requests)
    issued = []
    for voter_id in requests:
        ballot = make_ballot("for", rng)
        state = blind(ballot, keys.public, rng)
        try:
            sign_blinded(keys, state.blinded, voter_id, registry)
            issued.append(voter_id)
        except AlreadySigned:
            pass
    assert sorted(issued) == voters


def test_roundtrip_and_tamper(keys, rng):
    for _ in range(50):
        ballot = issue(keys, "for", rng)
        assert verify_ballot(keys.public, ballot)
        tampered = Ballot("against", ballot.nonce, ballot.signature)
        assert not verify_ballot(keys.public, tampered)


def test_wrong_blinding_factor_breaks_verification(keys, rng):
    ballot = make_ballot("for", rng)
    state = blind(ballot, keys.public, rng)
    registry = SignerRegistry([1])
    blind_sig = sign_blinded(keys, state.blinded, 1, registry)
    wrong = type(state)(state.factor + 1, state.blinded)
    assert not verify_ballot(keys.public, ballot.with_signature(unblind(blind_sig, wrong, keys.public)))


def test_unforgeable_against_random_signatures(keys, rng):
    for _ in range(300):
        ballot = make_ballot("for", rng)
        forged = ballot.with_signature(rng.randrange(1, keys.modulus))
        assert not verify_ballot(keys.public, forged)


def test_ledger_accepts_and_replays(keys, rng):
    ledger = Ledger(keys.public, SIGN_WINDOW, POST_WINDOW)
    ballot = issue(keys, "for", rng)
    assert ledger.submit(ballot, POST).accepted
    second = ledger.submit(ballot, POST)
    assert not second.accepted and second.reason is RejectReason.DUPLICATE_NONCE
    assert ledger.tally(POST_WINDOW[1]) == {"for": 1}


def test_ledger_rejects_bad_signature(keys, rng):
    ledger = Ledger(keys.public, SIGN_WINDOW, POST_WINDOW)
    ballot = issue(keys, "for", rng)
    tampered = Ballot("against", ballot.nonce, ballot.signature)
    result = ledger.submit(tampered, POST)
    assert not result.accepted and result.reason is RejectReason.BAD_SIGNATURE
    unsigned = Ballot("for", ballot.nonce)
    assert ledger.submit(unsigned, POST).reason is RejectReason.BAD_SIGNATURE
    widened = ballot.with_signature(ballot.signature + keys.modulus)
    assert ledger.submit(widened, POST).reason is RejectReason.BAD_SIGNATURE
    assert ledger.submit(ballot, POST).accepted


def test_ledger_rejects_outside_posting_window(keys, rng):
    ledger = Ledger(keys.public, SIGN_WINDOW, POST_WINDOW)
    ballot = issue(keys, "for", rng)
    during_signing = ledger.submit(ballot, SIGN_WINDOW[0])
    assert during_signing.reason is RejectReason.OUTSIDE_POSTING_WINDOW
    after_close = ledger.submit(ballot, POST_WINDOW[1])
    assert after_close.reason is RejectReason.OUTSIDE_POSTING_WINDOW
    assert ledger.tally(POST_WINDOW[1]).total() == 0


def test_ledger_tally_requires_closed_window(keys, rng):
    ledger = Ledger(keys.public, SIGN_WINDOW, POST_WINDOW)
    ledger.submit(issue(keys, "for", rng), POST)
    with pytest.raises(PhaseError):
        ledger.tally(POST)


def test_ledger_rejects_overlapping_windows(keys):
    with pytest.raises(ValueError):
        Ledger(keys.public, (1, 4), (3, 5))
    with pytest.raises(ValueError):
        Ledger(keys.public, (2, 2), (3, 5))


def test_ledger_dump_format(keys, rng):
    ledger = Ledger(keys.public, SIGN_WINDOW, POST_WINDOW)
    registry = SignerRegistry([1, 2, 3])
    for voter_id, content in ((1, "for"), (2, "against"), (3, "for")):
        ballot = issue(keys, content, rng, registry, voter_id)
        assert ledger.submit(ballot, POST).accepted
    lines = ledger.dump_lines()
    assert len(lines) == 3
    for order, line in enumerate(lines):
        content, nonce_hex, sig_hex, index = line.split("\t")
        assert content in ("for", "against")
        assert len(nonce_hex) == 64 and nonce_hex == nonce_hex.lower()
        int(nonce_hex, 16)
        int(sig_hex, 16)
        assert int(index) == order
    assert ledger.tally(POST_WINDOW[1]) == {"for": 2, "against": 1}
