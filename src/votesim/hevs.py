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
Each phase makes every draw first, in the order of the voters acting in
turn, and then one task per sample, which may run on the worker pool of
``votesim.experiments``; so its results do not depend on where they ran.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .adversary import Behavior, VoterRole, draw_fake_exponent, fake_decryption_share
from .errors import (
    AmbiguousMode,
    DiscreteLogNotFound,
    MissingShares,
    NoConsistentResult,
    RefuseSingletonAggregate,
)
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
    uncooperative voters: C(n-m, t) / C(n, t).

    That ratio is perm(n-t, m) / perm(n, m), and perm(n-m, t) / perm(n, t),
    so it is taken over min(m, t) factors a side; int / int rounds the exact
    rational once, so the float is that of the two binomials.
    """
    if n < 1 or m < 0 or t < 0 or m > n or t > n:
        raise ValueError(f"bad domain: n={n}, m={m}, t={t}")
    if t > n - m:
        return 0.0
    if m <= t:
        return math.perm(n - t, m) / math.perm(n, m)
    return math.perm(n - m, t) / math.perm(n, t)


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
    """run_pipeline with every voter drawing from the one rng, in voter order:
    each voter's key, then each voter's nonces, then each fake-share voter's
    exponent, all in this process, whether the samples' work then runs here
    or on the pool's workers."""
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
    (up to a refusing voter), and the results. The pipeline is :func:`cast`
    up to the decryption request, then :func:`tally`.
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

    Voter i + 1 draws its secret key, then its nonces, one per sample in
    sample order, from voter_rngs[i]; every draw is made here, before any
    ballot. Each sample's column of ballots is then one task
    (``experiments.each_sample``), run on the sweep pool's workers when the
    election is large enough and no function the task calls is rebound,
    else here. The roles matter here only through which voters are
    extra-vote cheaters, who encrypt their value with no 0/1 check; a
    voter's decryption behavior acts in :func:`tally` alone. The recorder
    hears the key, broadcast, vote and decrypt_request steps.
    """
    from .experiments import each_sample  # which imports this module

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

    nonces = [[params.random_nonce(voter_rngs[i]) for _ in range(plan.k)] for i in range(n)]
    cheats = [role.behavior is Behavior.EXTRA_VOTE for role in roles]
    # An encryption costs two exps: the generator and the sampled key, to the nonce.
    columns = each_sample(_encrypt_column, (params, votes, cheats),
                          list(zip(keys, zip(*nonces))), [2 * n] * plan.k, _task_calls)
    ciphertexts = [list(row) for row in zip(*columns)]
    if recorder:
        for voter_id, row in enumerate(ciphertexts, 1):
            recorder("vote", voter_id, row)

    aggregates = [aggregate(params, column) for column in columns]
    if recorder:
        recorder("decrypt_request", None, aggregates)

    # Each distinct voter sampled in j raises the j-th aggregate's c1 once.
    requests = [Ciphertext(params.fixed_base(ct.c1, len(mult)), ct.c2)
                for ct, mult in zip(aggregates, mults)]
    return Cast(params, plan, mults, key_shares, ciphertexts, requests)


def _encrypt_column(params: GroupParams, votes: Sequence[int], cheats: Sequence[bool], key: int,
                    nonces: Sequence[int]) -> list[Ciphertext]:
    """One sample's ballots: voter i + 1's vote under the sample's key, to
    nonces[i]; a cheater (cheats[i]) encrypts its value with no 0/1 check."""
    return [(encrypt_value if cheat else encrypt_vote)(params, key, vote, None, nonce)
            for vote, cheat, nonce in zip(votes, cheats, nonces)]


def tally(
    ballots: Cast,
    roles: Sequence[VoterRole],
    voter_rngs: Sequence[random.Random],
    recorder: Recorder | None = None,
) -> list[SampleResult]:
    """The pipeline's second phase: every role's shares, then each sample unmasked and decoded.

    A fake-share voter draws its one fake exponent from its stream here, in
    voter order, after every draw of :func:`cast` and before any share; no
    other role draws. Each sample's shares are then one task
    (``experiments.each_sample``), run on the sweep pool's workers when the
    election is large enough and no function the task calls is rebound,
    else here. Every share is the one the voters would make one after
    another, and the first refusal in voter order stops
    the tally as it would there: the voters before the refusing one answer
    and are recorded, and it raises. The same ``Cast`` may be tallied under
    several roles: set the streams back to their state after the cast before
    each, and each tally draws what it would have drawn alone. The recorder
    hears the decrypt_share and result steps.
    """
    from .experiments import each_sample  # which imports this module

    params, plan, mults = ballots.params, ballots.plan, ballots.mults
    key_shares, ciphertexts, requests = ballots.key_shares, ballots.ciphertexts, ballots.requests
    n = plan.population
    if len(roles) != n or len(voter_rngs) != n:
        raise ValueError("roles, voter streams, and plan population must agree")
    fakes = {i + 1: draw_fake_exponent(voter_rngs[i], params, key_shares[i].secret_key)
             for i in range(n) if roles[i].behavior is Behavior.FAKE_SHARE}
    # Sample j's answering voters in voter order: each with its key share, its
    # fake exponent or None, and the own ballot an honest voter refuses to see
    # decrypted alone. With n = 1 the aggregate is the own ciphertext and the
    # sum is that vote by definition, so only n > 1 is worth refusing.
    holders = [[(key_shares[voter_id - 1], fakes.get(voter_id),
                 ciphertexts[voter_id - 1][j] if roles[voter_id - 1].honest and n > 1 else None)
                for voter_id in sorted(mult) if roles[voter_id - 1].behavior is not Behavior.SILENT]
               for j, mult in enumerate(mults)]
    answers = each_sample(_decryption_shares, (params,), list(zip(requests, holders)),
                          [len(answering) for answering in holders], _task_calls)
    # responses[j] maps voter_id -> partial, for the voters sampled in j
    responses = [partials for partials, _ in answers]
    # the first refusing voter, and the voters before it, who answered in full
    stop, refusal = min((refusal for _, refusal in answers if refusal is not None),
                        key=lambda item: item[0], default=(n + 1, None))
    if recorder:
        for voter_id in range(1, stop):
            answered = {j: partials[voter_id] for j, partials in enumerate(responses)
                        if voter_id in partials}
            if answered:
                recorder("decrypt_share", voter_id, answered)
    if refusal is not None:
        raise refusal

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


def _decryption_shares(params: GroupParams, request: Ciphertext,
                       holders: Sequence[tuple]) -> tuple[dict[int, int], tuple | None]:
    """One sample's partials by voter id, made in the holders' order up to
    the first refusal, and (refusing voter id, its refusal) or None."""
    partials = {}
    for share, fake_exponent, own in holders:
        try:
            partials[share.voter_id] = (
                decryption_share(params, share, request, own) if fake_exponent is None
                else fake_decryption_share(params, request.c1, fake_exponent))
        except RefuseSingletonAggregate as refused:
            return partials, (share.voter_id, refused)
    return partials, None


def _task_calls() -> tuple:
    """The functions the sample tasks call by name, as bound now (see
    ``experiments.each_sample``)."""
    return (encrypt_vote, encrypt_value, decryption_share, fake_decryption_share,
            GroupParams.exp, GroupParams.is_element)
