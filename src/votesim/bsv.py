"""Blind-signature voting over textbook RSA.

The government signs blinded ballot digests after an eligibility check, so
it certifies one ballot per voter without seeing any content. Voters unblind
and post (content, nonce, signature) to an append-only ledger - a stand-in
for the bulletin-board blockchain - which accepts a ballot iff the signature
verifies and the nonce has never been seen, and only inside the posting
window.

Digests are hashed rather than signed raw: multiplying two raw RSA
signatures would forge a third, and the unforgeability tests rely on the
hash breaking that structure.

The signer signs by the Chinese Remainder Theorem (Quisquater and Couvreur,
1982): two half-width exponentiations, mod p and mod q, recombined by
Garner's formula. That gives the same signature as pow(blinded, d, modulus)
in under half the time. Key generation tests each random candidate with the
Baillie-PSW test of ``group.is_probable_prime``; ``tests/data/rsa_keys.json``
pins the keys it returns for fixed seeds.

Anyone holding only the public key can confirm a ballot signature exactly.
With distinct primes p, q and gcd(e, lambda(n)) = 1, x -> x**e mod n is a
permutation of [0, n): from s**e = b (mod p) and e * d_p = 1 (mod p - 1),
Fermat gives s = b**d_p (mod p), even when p divides s, and likewise mod q.
So ``verify_ballot`` accepts only the s that ``unblind`` returns, and since
(s * r)**e = digest * r**e, s * r mod n is what ``sign_blinded`` returned.
``simnet.replay`` relies on this: it re-derives the key, the blinding and the
ledger from the seed, but takes each posted signature once ``verify_ballot``
confirms it, one pow to e and a multiplication in place of two half-width
private pows and an inverse.

The signer answers an election's blind requests in one phase,
``sign_requests``: it marks every voter served in voter order first, then
answers each request as one task of ``pool.each_sample``, which runs it on
the worker pool of ``votesim.pool`` or here. A signature draws no
randomness, so the answers are the same wherever they ran.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from . import pool
from .errors import AlreadySigned, GroupGenerationError, IneligibleVoter, PhaseError
from .group import is_probable_prime

NONCE_BYTES = 32

#: smallest modulus signer_keygen accepts
MIN_RSA_BITS = 16
#: largest modulus an ElectionConfig asks signer_keygen for
MAX_RSA_BITS = 4096


@dataclass(frozen=True)
class RsaPublicKey:
    modulus: int
    exponent: int


@dataclass(frozen=True)
class SignerKeys:
    """An RSA keypair that keeps its primes, as a PKCS#1 private key does.

    p and q are taken to be distinct odd primes; only their size and their
    product are checked. The CRT exponents d mod (p-1), d mod (q-1) and the coefficient
    q^-1 mod p are computed once here and play no part in == or repr.
    """

    modulus: int
    public_exponent: int
    private_exponent: int
    p: int
    q: int
    _dp: int = field(init=False, compare=False, repr=False)
    _dq: int = field(init=False, compare=False, repr=False)
    _q_inv: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if min(self.p, self.q) < 3 or self.p * self.q != self.modulus:
            raise ValueError("p and q must be odd primes whose product is the modulus")
        object.__setattr__(self, "_dp", self.private_exponent % (self.p - 1))
        object.__setattr__(self, "_dq", self.private_exponent % (self.q - 1))
        object.__setattr__(self, "_q_inv", pow(self.q, -1, self.p))

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.modulus, self.public_exponent)


#: Classic tiny RSA textbook key (61 * 53), for hand-checkable unit tests only.
TEST_SIGNER_KEYS = SignerKeys(modulus=3233, public_exponent=17, private_exponent=2753, p=61, q=53)


@dataclass(frozen=True)
class Ballot:
    """A vote string, a wide random nonce, and (once issued) the signature."""

    content: str
    nonce: int
    signature: int | None = None

    def with_signature(self, signature: int) -> "Ballot":
        return Ballot(self.content, self.nonce, signature)


@dataclass(frozen=True)
class BlindingState:
    """The secret blinding factor and the blinded digest sent for signing."""

    factor: int
    blinded: int


def _random_prime(rng: random.Random, bits: int, attempts: int = 100_000) -> int:
    for _ in range(attempts):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate
    raise GroupGenerationError(f"no {bits}-bit prime found in {attempts} attempts")


def signer_keygen(rng: random.Random, bits: int) -> SignerKeys:
    """Generate an RSA keypair with a modulus of roughly `bits` bits."""
    if bits < MIN_RSA_BITS:
        raise ValueError(f"modulus below {MIN_RSA_BITS} bits leaves no room for digests")
    half = bits // 2
    while True:
        p = _random_prime(rng, half)
        q = _random_prime(rng, bits - half)
        if p == q:
            continue
        lam = math.lcm(p - 1, q - 1)
        for e in (65537, 257, 17, 7, 5, 3):
            if e < lam and math.gcd(e, lam) == 1:
                return SignerKeys(p * q, e, pow(e, -1, lam), p, q)


def is_ballot_content(content) -> bool:
    """Ballot content is a nonempty string without tabs or newlines."""
    return isinstance(content, str) and content != "" and not any(c in content for c in "\t\n\r")


def make_ballot(content: str, rng: random.Random) -> Ballot:
    """Pair the vote content with a fresh 32-byte nonce."""
    if not is_ballot_content(content):
        raise ValueError("ballot content must be nonempty, without tabs or newlines")
    return Ballot(content, int.from_bytes(rng.randbytes(NONCE_BYTES), "big"))


def ballot_digest(content: str, nonce: int, modulus: int) -> int:
    """Hash the canonical (content, nonce) encoding down to a signable integer."""
    raw = content.encode("utf-8")
    h = hashlib.sha256()
    h.update(b"ballot.v1")
    h.update(len(raw).to_bytes(4, "big"))
    h.update(raw)
    h.update(nonce.to_bytes(NONCE_BYTES, "big"))
    return int.from_bytes(h.digest(), "big") % modulus


def blind(
    ballot: Ballot,
    pub: RsaPublicKey,
    rng: random.Random | None = None,
    factor: int | None = None,
) -> BlindingState:
    """Hide the ballot digest behind digest * factor**e.

    A fresh factor is drawn coprime to the modulus (redrawing on a common
    divisor); an explicit factor of 1 gives the identity blinding used in
    unit tests. Over a uniform factor the blinded value is uniform over the
    units, so the signer learns nothing about the digest.
    """
    if factor is None:
        if rng is None:
            raise ValueError("either rng or an explicit factor is required")
        while True:
            factor = rng.randrange(2, pub.modulus)
            if math.gcd(factor, pub.modulus) == 1:
                break
    elif math.gcd(factor, pub.modulus) != 1:
        raise ValueError("blinding factor shares a divisor with the modulus")
    digest = ballot_digest(ballot.content, ballot.nonce, pub.modulus)
    return BlindingState(factor, digest * pow(factor, pub.exponent, pub.modulus) % pub.modulus)


class SignerRegistry:
    """Eligibility list plus the served-set enforcing one signature per voter."""

    def __init__(self, eligible_ids):
        self.eligible = frozenset(eligible_ids)
        self.served: set = set()

    def check_and_mark(self, voter_id) -> None:
        if voter_id not in self.eligible:
            raise IneligibleVoter(f"voter {voter_id} is not registered")
        if voter_id in self.served:
            raise AlreadySigned(f"voter {voter_id} already received a signature")
        self.served.add(voter_id)


def crt_sign(keys: SignerKeys, blinded: int) -> int:
    """pow(blinded, d, modulus) by the CRT: one half-width pow per prime,
    recombined by Garner's formula. The two agree for every integer, because
    e * d = 1 mod (p-1) keeps d mod (p-1) above 0, and likewise for q."""
    p, q = keys.p, keys.q
    s_q = pow(blinded, keys._dq, q)
    return s_q + (pow(blinded, keys._dp, p) - s_q) * keys._q_inv % p * q


def sign_blinded(keys: SignerKeys, blinded: int, voter_id, registry: SignerRegistry) -> int:
    """Issue the blind signature (``crt_sign``) after the eligibility and
    once-only checks."""
    registry.check_and_mark(voter_id)
    return crt_sign(keys, blinded)


def signing_cost(bits: int) -> int:
    """One signature and its unblinding under a `bits`-bit key, in the
    worker pool's unit (``pool.each_sample``), where one hevs
    encryption counts as 2. Measured on a 2-vCPU x86-64 host, CPython
    3.11, in those units (best of 5 loops, against a 64-use fixed-base
    encryption): 1.4 at 128 bits, 3.8 at 256, 12.4 at 512, 61 at 1024 and
    328 at 2048; (bits / 128)**2 follows it up to 512 bits and falls short
    above, where a phase of any size is long enough to pool."""
    return max(1, bits * bits >> 14)


def sign_requests(keys: SignerKeys, registry: SignerRegistry,
                  requests: Sequence[tuple[int, Ballot, BlindingState]],
                  claims: Mapping[int, int]) -> list[tuple[int, int]]:
    """The signing phase: (blind signature, unblinded signature) for each
    (voter id, ballot, blinding) request, in order, each request one task
    (see the module docstring). A signature in `claims` under the ballot's
    nonce that verifies stands in for signing and unblinding, times the
    blinding factor for the blind signature; any other request is signed
    and unblinded."""
    for voter_id, _, _ in requests:
        registry.check_and_mark(voter_id)
    sign = signing_cost(keys.modulus.bit_length())
    tasks = [(ballot, state, claims.get(ballot.nonce)) for _, ballot, state in requests]
    # A claim costs one public pow and a digest: about a sixteenth of a
    # signature at 512 bits, and nothing in the pool's unit below that.
    costs = [sign if claim is None else sign >> 4 for _, _, claim in tasks]
    return pool.each_sample(_answer, (keys,), tasks, costs, _task_calls)


def _answer(keys: SignerKeys, ballot: Ballot, state: BlindingState,
            claim: int | None) -> tuple[int, int]:
    """The signer's answer to one blind request and the ballot's signature:
    the claim s and s * r mod n if the claim verifies, else a fresh
    signature on the blinded digest and its unblinding."""
    pub = keys.public
    if claim is not None and verify_ballot(pub, ballot.with_signature(claim)):
        return claim * state.factor % pub.modulus, claim
    blind_sig = crt_sign(keys, state.blinded)
    return blind_sig, unblind(blind_sig, state, pub)


def unblind(signed_blind: int, state: BlindingState, pub: RsaPublicKey) -> int:
    """Divide out the blinding factor, leaving a signature on the digest."""
    return signed_blind * pow(state.factor, -1, pub.modulus) % pub.modulus


def verify_ballot(pub: RsaPublicKey, ballot: Ballot) -> bool:
    """True iff the signature is in [0, n), as PKCS #1's RSAVP1 requires, and
    e raises it to the digest: only the signer's signature passes, not s + n."""
    if ballot.signature is None or not 0 <= ballot.signature < pub.modulus:
        return False
    expected = ballot_digest(ballot.content, ballot.nonce, pub.modulus)
    return pow(ballot.signature, pub.exponent, pub.modulus) == expected


def _task_calls() -> tuple:
    """The functions the signing tasks call by name, as bound now (see
    ``pool.each_sample``)."""
    return crt_sign, unblind, verify_ballot, ballot_digest


# In the pool's dict, not as aliases here, which a tracer would rebind too.
pool._LOADED_CALLS[_task_calls] = _task_calls()


class RejectReason(Enum):
    BAD_SIGNATURE = "bad_signature"
    DUPLICATE_NONCE = "duplicate_nonce"
    OUTSIDE_POSTING_WINDOW = "outside_posting_window"


@dataclass(frozen=True)
class SubmitResult:
    accepted: bool
    reason: RejectReason | None = None


class Ledger:
    """Append-only ballot store with the two-condition acceptance rule.

    Ballots are accepted only inside the posting window, which must start
    after the signing window ends - the gap is what breaks the
    timing-correlation between requesting a signature and posting.
    """

    def __init__(self, pub: RsaPublicKey, sign_window: tuple[int, int], post_window: tuple[int, int]):
        if sign_window[0] >= sign_window[1] or post_window[0] >= post_window[1]:
            raise ValueError("phase windows must be nonempty (start < end)")
        if sign_window[1] > post_window[0]:
            raise ValueError("signing and posting windows must not overlap")
        self.pub = pub
        self.sign_window = sign_window
        self.post_window = post_window
        self.ballots: list[Ballot] = []
        self.seen_nonces: set[int] = set()

    def submit(self, ballot: Ballot, now: int) -> SubmitResult:
        """Accept iff inside the posting window, signature valid, nonce fresh."""
        if not self.post_window[0] <= now < self.post_window[1]:
            return SubmitResult(False, RejectReason.OUTSIDE_POSTING_WINDOW)
        if not verify_ballot(self.pub, ballot):
            return SubmitResult(False, RejectReason.BAD_SIGNATURE)
        if ballot.nonce in self.seen_nonces:
            return SubmitResult(False, RejectReason.DUPLICATE_NONCE)
        self.ballots.append(ballot)
        self.seen_nonces.add(ballot.nonce)
        return SubmitResult(True)

    def tally(self, now: int) -> Counter:
        """Per-candidate counts over accepted ballots, once posting has closed."""
        if now < self.post_window[1]:
            raise PhaseError("cannot tally while the posting window is open")
        return Counter(ballot.content for ballot in self.ballots)

    def dump_lines(self) -> list[str]:
        """Accepted ballots as `content<TAB>nonce-hex<TAB>sig-hex<TAB>order` lines."""
        return [
            f"{b.content}\t{b.nonce:0{2 * NONCE_BYTES}x}\t{b.signature:x}\t{i}"
            for i, b in enumerate(self.ballots)
        ]
