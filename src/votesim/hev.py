"""Homomorphic-encryption voting with threshold decryption.

Every voter contributes a key piece g**sk_i; the election public key is the
product of all pieces, so decryption needs a contribution from every key
holder. Votes are 0/1 encoded in the exponent, ciphertexts multiply to an
encryption of the sum, and the tally comes back out through a bounded
discrete log.

Free functions implement the protocol steps over plain values: group
elements as ints, Ciphertext pairs, and voter id -> partial mappings, each
partial the decryption share c1 ** secret_key. The one unmask step,
:func:`combine_decrypt`, raises each partial to its voter's multiplicity in
the key. Whole elections run through the pipeline in ``votesim.hevs``: plain
HEV is its k = 1 case, one sample holding every voter once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import EmptyBallotSet, MissingShares, RefuseSingletonAggregate
from .group import GroupParams


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


def keygen_share(rng: random.Random, params: GroupParams, voter_id: int) -> KeyShare:
    """Draw a secret key uniformly from {1, ..., order-1} and derive its piece."""
    secret = params.random_scalar(rng)
    return KeyShare(voter_id, secret, params.exp(params.generator, secret))


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
    aggregate_ct: Ciphertext,
    own_ciphertext: Ciphertext | None = None,
) -> int:
    """The voter's partial: the forwarded aggregate's c1 raised to its secret key.

    When the voter's own ciphertext is supplied, an aggregate equal to it is
    refused: decrypting it would reveal that single vote.
    """
    if own_ciphertext is not None and aggregate_ct == own_ciphertext:
        raise RefuseSingletonAggregate(
            f"voter {share.voter_id} refused: aggregate equals own ciphertext"
        )
    return params.exp(aggregate_ct.c1, share.secret_key)


def combine_decrypt(
    params: GroupParams,
    partials: Mapping[int, int],
    aggregate_ct: Ciphertext,
    multiplicity: Mapping[int, int],
) -> int:
    """Unmask o = c2_aggregate / (product of partial**count) = g**(sum of votes).

    multiplicity counts how often each voter's piece went into the key (once
    each in plain HEV); partials of voters it does not list are ignored. Raises
    MissingShares naming every listed voter who never responded; this is the
    surface a cooperation-interrupting adversary attacks.
    """
    missing = [i for i in multiplicity if i not in partials]
    if missing:
        raise MissingShares(missing)
    mask = 1
    for voter_id, count in multiplicity.items():
        # A partial counted once goes in as is: plain HEV then pays no modexp here.
        partial = partials[voter_id]
        mask = params.mul(mask, partial if count == 1 else params.exp(partial, count))
    return params.mul(aggregate_ct.c2, params.inv(mask))
