"""Malicious-voter behaviors injected into the homomorphic elections.

The modeled adversary votes against (0) like an honest voter, then disrupts
threshold decryption: either by answering with a random exponent instead of
the real secret key, or by going silent. A third behavior encrypts an
out-of-range vote value to inflate the tally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .group import GroupParams
from .hev import DecryptionShare, encrypt_value


class Behavior(Enum):
    FAKE_SHARE = "fake_share"
    SILENT = "silent"
    EXTRA_VOTE = "extra_vote"


@dataclass(frozen=True)
class AdversaryConfig:
    """Per-voter malice probability and the behavior malicious voters adopt."""

    p_fail: float
    behavior: Behavior = Behavior.FAKE_SHARE

    def __post_init__(self):
        if not 0.0 <= self.p_fail <= 1.0:
            raise ValueError(f"p_fail must be in [0, 1], got {self.p_fail}")


@dataclass(frozen=True)
class VoterRole:
    voter_id: int
    honest: bool
    behavior: Behavior | None = None


def assign_roles(rng: random.Random, n: int, config: AdversaryConfig) -> list[VoterRole]:
    """Draw each voter malicious independently with probability p_fail."""
    roles = []
    for i in range(1, n + 1):
        malicious = rng.random() < config.p_fail
        roles.append(VoterRole(i, honest=not malicious, behavior=config.behavior if malicious else None))
    return roles


def draw_fake_exponent(rng: random.Random, params: GroupParams, true_secret: int | None) -> int:
    """A random secret-key-domain exponent, redrawn while it equals the true
    secret so that a share raised to it is genuinely wrong."""
    exponent = params.random_scalar(rng)
    while exponent == true_secret:
        exponent = params.random_scalar(rng)
    return exponent


def fake_decryption_share(
    rng: random.Random,
    params: GroupParams,
    aggregate_c1: int,
    voter_id: int,
    true_secret: int | None = None,
    exponent: int | None = None,
) -> DecryptionShare:
    """A cooperation-interrupting response: the aggregate raised to a random
    exponent rather than the voter's secret key.

    An explicit exponent lets a voter reuse the same fake value across
    several sampled keys; otherwise one is drawn by draw_fake_exponent.
    """
    if exponent is None:
        exponent = draw_fake_exponent(rng, params, true_secret)
    return DecryptionShare(voter_id, params.exp(aggregate_c1, exponent))


#: Encrypts an arbitrary integer vote, bypassing the 0/1 check. The ciphertext
#: is indistinguishable from an honest one; only the decoded tally (or a failed
#: decode when the bound is exceeded) betrays it.
extra_vote_ciphertext = encrypt_value
