"""Sampled-key hardening for the homomorphic election.

Instead of one public key built from every voter's piece, the government
draws k multisets of key pieces (with replacement), builds one sampled key
per multiset, and runs the whole vote/aggregate/decrypt pipeline once per
sample. A sample decodes to the true tally whenever every sampled voter
cooperates honestly; disrupted samples land on effectively unique garbage
elements, so the most frequent decoded tally - the mode - is the reliable
result once it reaches a small consistency count.

Plain HEV is the special case k = 1 with one sample holding every voter
once, so the simulator runs both protocols through this one pipeline, and
``hev.combine_decrypt`` unmasks every sample. The pipeline reports plain
values to its recorder; ``votesim.simnet`` alone owns the transcript: its
record tags, hex strings and party names. The pipeline runs in two phases:
:func:`cast` up to the decryption request, and :func:`tally` from there, so
a sweep can tally one cast election under each behaviour that shares it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .adversary import Behavior, VoterRole, draw_fake_exponent, fake_decryption_share
from .errors import AmbiguousMode, DiscreteLogNotFound, MissingShares, NoConsistentResult
from .group import GroupParams, discrete_log_bounded
from .hev import (
    Ciphertext,
    KeyShare,
    aggregate,
    combine_decrypt,
    decryption_share,
    encrypt_value,
    encrypt_vote,
    keygen_share,
)

#: recorder callback: (phase, voter id or None for the government, value) -> None
Recorder = Callable[[str, int | None, object], None]


@dataclass(frozen=True)
class SamplingPlan:
    """k multisets of voter indices, drawn with replacement from [1, n]."""

    population: int
    multisets: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.multisets)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(ms) for ms in self.multisets)

    def multiplicity(self, sample_index: int) -> Counter:
        return Counter(self.multisets[sample_index])


@dataclass(frozen=True)
class SampleResult:
    """Outcome of one sample: the unmasked element and its decoded tally.

    The tally is None when the element decodes to nothing within the bound,
    which marks the sample as unreliable.
    """

    sample_index: int
    element: int | None
    tally: int | None


def _ceil_sqrt(n: int) -> int:
    root = math.isqrt(n)
    return root if root * root == n else root + 1


def resolve_sample_size(policy, n: int) -> int:
    """Turn a size policy into a concrete per-sample draw count.

    None or "half" gives ceil(n/2); "sqrt" gives ceil(sqrt(n)); "sqrt-half"
    gives ceil(sqrt(ceil(n/2))); an integer is used as-is.
    """
    if policy is None or policy == "half":
        return (n + 1) // 2
    if policy == "sqrt":
        return _ceil_sqrt(n)
    if policy == "sqrt-half":
        return _ceil_sqrt((n + 1) // 2)
    if isinstance(policy, int) and not isinstance(policy, bool):
        if policy < 1:
            raise ValueError("sample size must be at least 1")
        return policy
    raise ValueError(f"unknown sample-size policy {policy!r}")


def make_sampling_plan(rng: random.Random, n: int, k: int, t_policy=None) -> SamplingPlan:
    """Draw k multisets of size t uniformly with replacement from [1, n].

    The indices are drawn in order, one ``rng.randrange(1, n + 1)`` each.
    """
    if n < 1:
        raise ValueError("population must be at least 1")
    if k < 1:
        raise ValueError("need at least one sampling")
    if isinstance(t_policy, (list, tuple)):
        sizes = [resolve_sample_size(t, n) for t in t_policy]
        if len(sizes) != k:
            raise ValueError(f"got {len(sizes)} sample sizes for k={k}")
    else:
        sizes = [resolve_sample_size(t_policy, n)] * k
    multisets = tuple(tuple(rng.randrange(1, n + 1) for _ in range(size)) for size in sizes)
    return SamplingPlan(population=n, multisets=multisets)


def combine_sampled_public_key(
    params: GroupParams, pieces: Mapping[int, int], plan: SamplingPlan, sample_index: int
) -> int:
    """Multiply the sampled pieces, counting repeats, into the j-th key."""
    mult = plan.multiplicity(sample_index)
    missing = [i for i in mult if i not in pieces]
    if missing:
        raise ValueError(f"no key piece for sampled voters {sorted(missing)}")
    key = 1
    for voter_id, count in mult.items():
        # A piece sampled once goes in as is: plain HEV then pays no modexp here.
        piece = pieces[voter_id]
        key = params.mul(key, piece if count == 1 else params.exp(piece, count))
    return key


def combine_sampled_decrypt(
    params: GroupParams,
    partials: Mapping[int, int],
    plan: SamplingPlan,
    sample_index: int,
    aggregate_ct: Ciphertext,
    bound: int,
) -> SampleResult:
    """Unmask one sample with combine_decrypt and decode it within the bound.

    Raises MissingShares when a sampled voter never responded.
    """
    element = combine_decrypt(params, partials, aggregate_ct, plan.multiplicity(sample_index))
    try:
        tally = discrete_log_bounded(params, element, bound)
    except DiscreteLogNotFound:
        tally = None
    return SampleResult(sample_index, element, tally)


def mode_decision(tallies: Iterable[int | None], min_consistency: int = 2) -> int:
    """Pick the most frequent of the samples' decoded tallies.

    Undecodable samples (None) never become candidates. The winner must
    reach min_consistency occurrences and be the unique maximum; otherwise
    the decision fails closed with NoConsistentResult or AmbiguousMode.
    """
    if min_consistency < 2:
        raise ValueError("min_consistency below 2 cannot distinguish garbage from truth")
    counts = Counter(tally for tally in tallies if tally is not None)
    if not counts:
        raise NoConsistentResult("no sample decoded to a tally at all")
    top_count = max(counts.values())
    if top_count < min_consistency:
        raise NoConsistentResult(
            f"best consistency is {top_count}, below the required {min_consistency}"
        )
    winners = [value for value, count in counts.items() if count == top_count]
    if len(winners) > 1:
        raise AmbiguousMode(f"tallies {sorted(winners)} tie at {top_count} occurrences")
    return winners[0]


def reliability_probability(n: int, m: int, t: int) -> float:
    """Chance that a without-replacement draw of t pieces avoids all m
    uncooperative voters: C(n-m, t) / C(n, t)."""
    if n < 1 or m < 0 or t < 0 or m > n or t > n:
        raise ValueError(f"bad domain: n={n}, m={m}, t={t}")
    if t > n - m:
        return 0.0
    return math.comb(n - m, t) / math.comb(n, t)


def reliability_probability_with_replacement(n: int, m: int, t: int) -> float:
    """With-replacement counterpart: ((n-m)/n) ** t, matching how the
    sampling plan actually draws."""
    if n < 1 or m < 0 or t < 0 or m > n:
        raise ValueError(f"bad domain: n={n}, m={m}, t={t}")
    return ((n - m) / n) ** t


def run_sampled_election(
    params: GroupParams,
    votes: Sequence[int],
    roles: Sequence[VoterRole],
    plan: SamplingPlan,
    rng: random.Random,
    recorder: Recorder | None = None,
) -> list[SampleResult]:
    """run_pipeline with every voter drawing from the one rng, in voter order."""
    return run_pipeline(params, votes, roles, plan, [rng] * len(votes), recorder)


def run_pipeline(
    params: GroupParams,
    votes: Sequence[int],
    roles: Sequence[VoterRole],
    plan: SamplingPlan,
    voter_rngs: Sequence[random.Random],
    recorder: Recorder | None = None,
) -> list[SampleResult]:
    """Run the full k-sample pipeline over the given votes and roles.

    `votes` holds the plaintext each voter actually encrypts (an extra-vote
    cheater's inflated value included); `roles` controls decryption behavior.
    Voter i + 1 draws its secret key, its nonces and any fake exponent from
    voter_rngs[i]. Fake-share voters reuse one random exponent across every
    sample they appear in. Samples blocked by silent voters come back with
    element and tally None. The caller applies mode_decision to the tallies.

    A recorder hears of each step as it completes, as (phase, voter id or
    None, value): every voter's key piece, the sampled keys, every voter's
    ciphertext row, the aggregates, each answering voter's {sample: partial}
    once all its partials are made, and the results. The pipeline is
    :func:`cast` up to the decryption request, then :func:`tally`.
    """
    return tally(cast(params, votes, roles, plan, voter_rngs, recorder), roles, voter_rngs,
                 recorder)


@dataclass(frozen=True)
class Cast:
    """An election up to its decryption request, as :func:`cast` leaves it."""

    params: GroupParams
    plan: SamplingPlan
    #: each sample's voter id -> count, plan.multiplicity(j)
    mults: list[Counter]
    key_shares: list[KeyShare]
    #: ciphertexts[i][j]: voter i + 1's ballot under sample j's key
    ciphertexts: list[list[Ciphertext]]
    #: each sample's aggregate as sent for decryption, its c1 a FixedBase
    requests: list[Ciphertext]


def cast(
    params: GroupParams,
    votes: Sequence[int],
    roles: Sequence[VoterRole],
    plan: SamplingPlan,
    voter_rngs: Sequence[random.Random],
    recorder: Recorder | None = None,
) -> Cast:
    """The pipeline's first phase: key pieces, sampled keys, ballots and aggregates.

    Voter i + 1 draws its secret key, then its nonces, from voter_rngs[i].
    The roles matter here only through which voters are extra-vote cheaters,
    who encrypt their value with no 0/1 check; a voter's decryption behavior
    acts in :func:`tally` alone. The recorder hears the key, broadcast, vote
    and decrypt_request steps.
    """
    n = plan.population
    if len(votes) != n or len(roles) != n or len(voter_rngs) != n:
        raise ValueError("votes, roles, voter streams, and plan population must agree")

    key_shares = [keygen_share(voter_rngs[i], params, i + 1) for i in range(n)]
    pieces = {share.voter_id: share.public_piece for share in key_shares}
    if recorder:
        for voter_id, piece in pieces.items():
            recorder("key", voter_id, piece)

    mults = [plan.multiplicity(j) for j in range(plan.k)]
    sampled_keys = [combine_sampled_public_key(params, pieces, plan, j) for j in range(plan.k)]
    # Every voter raises every sampled key once, to its nonce.
    keys = [params.fixed_base(key, n) for key in sampled_keys]
    if recorder:
        recorder("broadcast", None, sampled_keys)

    ciphertexts: list[list[Ciphertext]] = []
    for i in range(n):
        # an extra-vote cheater encrypts its value with no 0/1 check
        encrypt = encrypt_value if roles[i].behavior is Behavior.EXTRA_VOTE else encrypt_vote
        row = [encrypt(params, key, votes[i], voter_rngs[i]) for key in keys]
        ciphertexts.append(row)
        if recorder:
            recorder("vote", i + 1, row)

    aggregates = [aggregate(params, [ciphertexts[i][j] for i in range(n)]) for j in range(plan.k)]
    if recorder:
        recorder("decrypt_request", None, aggregates)

    # Each distinct voter sampled in j raises the j-th aggregate's c1 once.
    requests = [Ciphertext(params.fixed_base(ct.c1, len(mult)), ct.c2)
                for ct, mult in zip(aggregates, mults)]
    return Cast(params, plan, mults, key_shares, ciphertexts, requests)


def tally(
    ballots: Cast,
    roles: Sequence[VoterRole],
    voter_rngs: Sequence[random.Random],
    recorder: Recorder | None = None,
) -> list[SampleResult]:
    """The pipeline's second phase: every role's shares, then each sample unmasked and decoded.

    A fake-share voter draws its one fake exponent from its stream here, after
    every draw of :func:`cast`; no other role draws. The same ``Cast`` may be
    tallied under several roles: set the streams back to their state after
    the cast before each, and each tally draws what it would have drawn
    alone. The recorder hears the decrypt_share and result steps.
    """
    params, plan, mults = ballots.params, ballots.plan, ballots.mults
    key_shares, ciphertexts, requests = ballots.key_shares, ballots.ciphertexts, ballots.requests
    n = plan.population
    if len(roles) != n or len(voter_rngs) != n:
        raise ValueError("roles, voter streams, and plan population must agree")
    # responses[j] maps voter_id -> partial, for the voters sampled in j
    responses: list[dict[int, int]] = [{} for _ in range(plan.k)]
    for i in range(n):
        role = roles[i]
        voter_id = i + 1
        if role.behavior is Behavior.SILENT:
            continue
        fake_exponent = None
        if role.behavior is Behavior.FAKE_SHARE:
            fake_exponent = draw_fake_exponent(voter_rngs[i], params, key_shares[i].secret_key)
        answered = [j for j in range(plan.k) if voter_id in mults[j]]
        for j in answered:
            if fake_exponent is not None:
                partial = fake_decryption_share(params, requests[j].c1, fake_exponent)
            else:
                # With n = 1 the aggregate is the own ciphertext and the sum is
                # that vote by definition, so only n > 1 is worth refusing.
                own = ciphertexts[i][j] if role.honest and n > 1 else None
                partial = decryption_share(params, key_shares[i], requests[j], own)
            responses[j][voter_id] = partial
        if recorder and answered:
            recorder("decrypt_share", voter_id, {j: responses[j][voter_id] for j in answered})

    results = []
    for j in range(plan.k):
        try:
            result = combine_sampled_decrypt(params, responses[j], plan, j, requests[j], n)
        except MissingShares:
            result = SampleResult(j, None, None)
        results.append(result)
    if recorder:
        recorder("result", None, results)
    return results
