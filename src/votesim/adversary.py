"""Malicious-voter behaviors injected into the homomorphic elections.

``assign_roles`` makes each voter malicious with probability p_fail. The
modeled adversary votes against (0) like an honest voter, then disrupts
threshold decryption: either by answering with a random exponent instead of
the real secret key, or by going silent. A third behavior encrypts an
out-of-range vote value with ``hev.encrypt_value`` to inflate the tally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .group import GroupParams
from .seeding import flags


class Behavior(Enum):
    FAKE_SHARE = "fake_share"
    SILENT = "silent"
    EXTRA_VOTE = "extra_vote"


@dataclass(frozen=True)
class VoterRole:
    voter_id: int
    honest: bool
    behavior: Behavior | None = None


def assign_roles(
    rng: random.Random, n: int, p_fail: float, behavior: Behavior = Behavior.FAKE_SHARE
) -> list[VoterRole]:
    """Make each voter malicious with probability p_fail, independently, adopting behavior.

    Voter i is malicious when the i-th ``rng.random()`` is below p_fail. The
    draws are taken in bulk by ``seeding.flags``, which returns the negated
    test and consumes the same Mersenne Twister words as that loop.
    """
    if not 0.0 <= p_fail <= 1.0:
        raise ValueError(f"p_fail must be in [0, 1], got {p_fail}")
    return [VoterRole(i, honest=flag == 1, behavior=None if flag else behavior)
            for i, flag in enumerate(flags(rng, p_fail, n), 1)]


def draw_fake_exponent(rng: random.Random, params: GroupParams, true_secret: int) -> int:
    """A random secret-key-domain exponent, redrawn while it equals the true
    secret so that a share raised to it is genuinely wrong."""
    exponent = params.random_scalar(rng)
    while exponent == true_secret:
        exponent = params.random_scalar(rng)
    return exponent


def fake_decryption_share(params: GroupParams, aggregate_c1: int, exponent: int) -> int:
    """A cooperation-interrupting partial: the aggregate raised to a random
    exponent from draw_fake_exponent rather than the voter's secret key.

    A voter reuses its one exponent across every sampled key it is in.
    """
    return params.exp(aggregate_c1, exponent)
