"""Homomorphic-encryption voting with threshold decryption.

Every voter contributes a key piece g**sk_i; the election public key is the
product of all pieces, so decryption needs a contribution from every key
holder. Votes are 0/1 encoded in the exponent, ciphertexts multiply to an
encryption of the sum, and the tally comes back out through a bounded
discrete log.

Free functions implement the individual protocol steps; :class:`Voter` and
:class:`Government` wrap them in explicit state machines so out-of-phase
messages fail loudly. ``votesim.simnet`` instead runs plain HEV as the k = 1,
every-voter-once case of the sampled-key pipeline in ``votesim.hevs``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    EmptyBallotSet,
    EmptyShareSet,
    MissingShares,
    PhaseError,
    RefuseSingletonAggregate,
)
from .group import GroupParams, discrete_log_bounded


@dataclass(frozen=True)
class KeyShare:
    """One voter's key material: secret exponent and public piece g**secret."""

    voter_id: int
    secret_key: int
    public_piece: int


@dataclass(frozen=True)
class Ciphertext:
    """ElGamal-style pair: c1 = g**r, c2 = pk**r * g**vote."""

    c1: int
    c2: int


@dataclass(frozen=True)
class DecryptionShare:
    """A voter's threshold-decryption contribution: aggregate c1 ** secret_key."""

    voter_id: int
    partial: int


@dataclass(frozen=True)
class DecryptionRequest:
    """The aggregate forwarded for decryption, with the action-pending marker."""

    aggregate: Ciphertext
    pending: bool = True


def keygen_share(rng: random.Random, params: GroupParams, voter_id: int) -> KeyShare:
    """Draw a secret key uniformly from {1, ..., order-1} and derive its piece."""
    secret = params.random_scalar(rng)
    return KeyShare(voter_id, secret, params.exp(params.generator, secret))


def combine_public_key(params: GroupParams, pieces: Iterable[int]) -> int:
    """Multiply all key pieces into the election public key g**(sum of secrets)."""
    result = None
    for piece in pieces:
        result = piece if result is None else params.mul(result, piece)
    if result is None:
        raise EmptyShareSet("cannot combine an empty set of key pieces")
    return result


def encrypt_vote(
    params: GroupParams,
    public_key: int,
    vote: int,
    rng: random.Random | None = None,
    nonce: int | None = None,
) -> Ciphertext:
    """Encrypt a 0/1 vote under the combined public key.

    The nonce may be pinned for reproducing hand-worked traces; otherwise it
    is drawn fresh from the injected rng.
    """
    if vote not in (0, 1):
        raise ValueError(f"honest votes are 0 or 1, got {vote!r}")
    if not params.is_element(public_key):
        raise ValueError("public key is not a group element")
    return encrypt_value(params, public_key, vote, rng, nonce)


def encrypt_value(
    params: GroupParams,
    public_key: int,
    value: int,
    rng: random.Random | None = None,
    nonce: int | None = None,
) -> Ciphertext:
    """Encrypt g**value with no range or membership check on the inputs."""
    if nonce is None:
        if rng is None:
            raise ValueError("either rng or an explicit nonce is required")
        nonce = params.random_nonce(rng)
    c1 = params.exp(params.generator, nonce)
    c2 = params.mul(params.exp(public_key, nonce), params.exp(params.generator, value))
    return Ciphertext(c1, c2)


def aggregate(params: GroupParams, ciphertexts: Sequence[Ciphertext]) -> Ciphertext:
    """Componentwise product of all ciphertexts; order-independent."""
    if not ciphertexts:
        raise EmptyBallotSet("cannot aggregate an empty ballot set")
    c1, c2 = 1, 1
    for ct in ciphertexts:
        c1 = params.mul(c1, ct.c1)
        c2 = params.mul(c2, ct.c2)
    return Ciphertext(c1, c2)


def decryption_share(
    params: GroupParams,
    share: KeyShare,
    request: DecryptionRequest,
    own_ciphertext: Ciphertext | None = None,
) -> DecryptionShare:
    """Raise the aggregate's first component to the voter's secret key.

    When the voter's own ciphertext is supplied, a request whose aggregate
    equals it is refused: decrypting it would reveal that single vote.
    """
    if own_ciphertext is not None and request.aggregate == own_ciphertext:
        raise RefuseSingletonAggregate(
            f"voter {share.voter_id} refused: aggregate equals own ciphertext"
        )
    return DecryptionShare(share.voter_id, params.exp(request.aggregate.c1, share.secret_key))


def combine_decrypt(
    params: GroupParams,
    shares: Iterable[DecryptionShare],
    aggregate_ct: Ciphertext,
    voter_ids: Iterable[int],
) -> int:
    """Combine one share per voter and unmask the encoded sum.

    Returns o = c2_aggregate / (product of partials) = g**(sum of votes).
    Raises MissingShares naming every voter who never responded; this is the
    surface a cooperation-interrupting adversary attacks.
    """
    expected = set(voter_ids)
    by_voter: dict[int, int] = {}
    for share in shares:
        if share.voter_id not in expected:
            raise ValueError(f"share from unknown voter {share.voter_id}")
        if share.voter_id in by_voter:
            raise ValueError(f"duplicate share from voter {share.voter_id}")
        by_voter[share.voter_id] = share.partial
    missing = expected - by_voter.keys()
    if missing:
        raise MissingShares(missing)
    if not expected:
        raise EmptyShareSet("no voters in the key set")
    mask = 1
    for partial in by_voter.values():
        mask = params.mul(mask, partial)
    return params.mul(aggregate_ct.c2, params.inv(mask))


def recover_tally(
    params: GroupParams,
    encoded_sum: int,
    n: int,
    table: dict[int, int] | None = None,
) -> int:
    """Decode g**tally into the tally; the tally is bounded by the electorate."""
    if n < 1:
        raise ValueError("electorate size must be at least 1")
    return discrete_log_bounded(params, encoded_sum, n, table=table)


class VoterPhase(Enum):
    INIT = "init"
    KEYED = "keyed"
    VOTED = "voted"
    DECRYPTED = "decrypted"


class GovernmentPhase(Enum):
    COLLECTING_KEYS = "collecting_keys"
    COLLECTING_VOTES = "collecting_votes"
    AGGREGATED = "aggregated"
    COLLECTING_SHARES = "collecting_shares"
    DONE = "done"


class Voter:
    """Single-threaded voter state machine: init -> keyed -> voted -> decrypted."""

    def __init__(self, voter_id: int, params: GroupParams, n_voters: int, rng: random.Random):
        self.voter_id = voter_id
        self.params = params
        self.n_voters = n_voters
        self.rng = rng
        self.phase = VoterPhase.INIT
        self.key_share: KeyShare | None = None
        self.public_key: int | None = None
        self.ciphertext: Ciphertext | None = None

    def _require(self, phase: VoterPhase) -> None:
        if self.phase is not phase:
            raise PhaseError(f"voter {self.voter_id} is in {self.phase.value}, not {phase.value}")

    def make_key_piece(self) -> int:
        self._require(VoterPhase.INIT)
        self.key_share = keygen_share(self.rng, self.params, self.voter_id)
        self.phase = VoterPhase.KEYED
        return self.key_share.public_piece

    def receive_public_key(self, public_key: int) -> None:
        self._require(VoterPhase.KEYED)
        self.public_key = public_key

    def cast_vote(self, vote: int) -> Ciphertext:
        self._require(VoterPhase.KEYED)
        if self.public_key is None:
            raise PhaseError(f"voter {self.voter_id} has no public key to encrypt under")
        self.ciphertext = encrypt_vote(self.params, self.public_key, vote, self.rng)
        self.phase = VoterPhase.VOTED
        return self.ciphertext

    def handle_decryption_request(self, request: DecryptionRequest) -> DecryptionShare:
        self._require(VoterPhase.VOTED)
        # In a single-voter election the aggregate necessarily equals the own
        # ciphertext and the sum is that vote by definition, so the privacy
        # refusal only applies when there is someone to hide among.
        own = self.ciphertext if self.n_voters > 1 else None
        share = decryption_share(self.params, self.key_share, request, own)
        self.phase = VoterPhase.DECRYPTED
        return share


class Government:
    """Government state machine: collect keys, broadcast, collect votes,
    aggregate exactly n of them, collect shares, decode."""

    def __init__(self, params: GroupParams, n_voters: int):
        if n_voters < 1:
            raise ValueError("need at least one voter")
        self.params = params
        self.n_voters = n_voters
        self.phase = GovernmentPhase.COLLECTING_KEYS
        self.pieces: dict[int, int] = {}
        self.public_key: int | None = None
        self.ciphertexts: dict[int, Ciphertext] = {}
        self.aggregate_ct: Ciphertext | None = None
        self.shares: list[DecryptionShare] = []

    def _require(self, phase: GovernmentPhase) -> None:
        if self.phase is not phase:
            raise PhaseError(f"government is in {self.phase.value}, not {phase.value}")

    def receive_key_piece(self, voter_id: int, piece: int) -> None:
        self._require(GovernmentPhase.COLLECTING_KEYS)
        if voter_id in self.pieces:
            raise PhaseError(f"duplicate key piece from voter {voter_id}")
        self.pieces[voter_id] = piece

    def broadcast_public_key(self) -> int:
        self._require(GovernmentPhase.COLLECTING_KEYS)
        if len(self.pieces) != self.n_voters:
            raise PhaseError(f"have {len(self.pieces)} key pieces, need {self.n_voters}")
        # Every voter raises the key once, to its nonce.
        key = combine_public_key(self.params, self.pieces.values())
        self.public_key = self.params.fixed_base(key, self.n_voters)
        self.phase = GovernmentPhase.COLLECTING_VOTES
        return self.public_key

    def receive_ciphertext(self, voter_id: int, ciphertext: Ciphertext) -> None:
        self._require(GovernmentPhase.COLLECTING_VOTES)
        if voter_id in self.ciphertexts:
            raise PhaseError(f"duplicate ciphertext from voter {voter_id}")
        self.ciphertexts[voter_id] = ciphertext

    def aggregate_votes(self) -> Ciphertext:
        self._require(GovernmentPhase.COLLECTING_VOTES)
        # Partial turnout is rejected outright: the unmasking algebra only
        # cancels when every key holder's vote is in the product.
        if len(self.ciphertexts) != self.n_voters:
            raise PhaseError(
                f"have {len(self.ciphertexts)} ciphertexts, need all {self.n_voters}"
            )
        self.aggregate_ct = aggregate(self.params, list(self.ciphertexts.values()))
        self.phase = GovernmentPhase.AGGREGATED
        return self.aggregate_ct

    def decryption_request(self) -> DecryptionRequest:
        self._require(GovernmentPhase.AGGREGATED)
        self.phase = GovernmentPhase.COLLECTING_SHARES
        # Every voter raises c1 once, to its secret key.
        c1, c2 = self.aggregate_ct.c1, self.aggregate_ct.c2
        return DecryptionRequest(Ciphertext(self.params.fixed_base(c1, self.n_voters), c2))

    def receive_share(self, share: DecryptionShare) -> None:
        self._require(GovernmentPhase.COLLECTING_SHARES)
        self.shares.append(share)

    def decrypt_tally(self, table: dict[int, int] | None = None) -> int:
        self._require(GovernmentPhase.COLLECTING_SHARES)
        encoded = combine_decrypt(self.params, self.shares, self.aggregate_ct, self.pieces.keys())
        tally = recover_tally(self.params, encoded, self.n_voters, table=table)
        self.phase = GovernmentPhase.DONE
        return tally


def run_hev(params: GroupParams, votes: Sequence[int], rng: random.Random) -> int:
    """Drive a full honest election over the given votes and return the tally."""
    n = len(votes)
    government = Government(params, n)
    voters = [Voter(i + 1, params, n, rng) for i in range(n)]
    for voter in voters:
        government.receive_key_piece(voter.voter_id, voter.make_key_piece())
    public_key = government.broadcast_public_key()
    for voter, vote in zip(voters, votes):
        voter.receive_public_key(public_key)
        government.receive_ciphertext(voter.voter_id, voter.cast_vote(vote))
    government.aggregate_votes()
    request = government.decryption_request()
    for voter in voters:
        government.receive_share(voter.handle_decryption_request(request))
    return government.decrypt_tally()
