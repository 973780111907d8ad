"""Plain references the tests compare votesim with: one call per drawn value."""

from votesim.adversary import Behavior, draw_fake_exponent, fake_decryption_share
from votesim.errors import MissingShares
from votesim.experiments import TrialConfig
from votesim.hev import aggregate, decryption_share, encrypt_value, encrypt_vote, keygen_share
from votesim.hevs import (
    SampleResult,
    combine_sampled_decrypt,
    combine_sampled_public_key,
    resolve_sample_size,
)
from votesim.seeding import spawn


def empirical_sample_reliability(n: int, m: int, t: int, trials: int, seed: int = 1) -> float:
    """Monte Carlo estimate of one sample avoiding m fixed bad voters.

    Draws t indices with replacement per trial, matching the sampling plan;
    the estimate converges on reliability_probability_with_replacement, not
    on the without-replacement formula.
    """
    rng = spawn("sample-reliability", seed)
    clean = 0
    for _ in range(trials):
        if all(rng.randrange(n) >= m for _ in range(t)):
            clean += 1
    return clean / trials


def symbolic_trial(config: TrialConfig, seed: int) -> bool:
    """The symbolic verdict of ``run_trial(config, seed)``, drawn value by value:
    an honesty flag per voter, a vote per honest voter, then the plan."""
    world = spawn(seed, "world")
    honest = [world.random() >= config.p_fail for _ in range(config.n)]
    for _ in range(sum(honest)):
        world.randrange(2)
    bad = {voter for voter, flag in enumerate(honest, 1) if not flag}
    t = resolve_sample_size(config.t_policy, config.n)
    samples = [[world.randrange(1, config.n + 1) for _ in range(t)] for _ in range(config.k)]
    return sum(bad.isdisjoint(sample) for sample in samples) >= config.min_consistency


def sampled_pipeline(params, votes, roles, plan, voter_rngs, recorder=None):
    """``hevs.run_pipeline`` with the voters acting one after another: each
    draws its key, then encrypts under every sampled key in turn, drawing
    each nonce as it goes; later each draws any fake exponent and answers
    every sample it is in, and the first refusal stops the election."""
    n = plan.population
    shares = [keygen_share(voter_rngs[i], params, i + 1) for i in range(n)]
    pieces = {share.voter_id: share.public_piece for share in shares}
    keys = [combine_sampled_public_key(params, pieces, plan, j) for j in range(plan.k)]
    ciphertexts = []
    for i in range(n):
        encrypt = encrypt_value if roles[i].behavior is Behavior.EXTRA_VOTE else encrypt_vote
        ciphertexts.append([encrypt(params, key, votes[i], voter_rngs[i]) for key in keys])
    aggregates = [aggregate(params, [row[j] for row in ciphertexts]) for j in range(plan.k)]
    if recorder:
        for voter_id, piece in pieces.items():
            recorder("key", voter_id, piece)
        recorder("broadcast", None, keys)
        for voter_id, row in enumerate(ciphertexts, 1):
            recorder("vote", voter_id, row)
        recorder("decrypt_request", None, aggregates)
    responses = [{} for _ in range(plan.k)]
    for i, role in enumerate(roles):
        if role.behavior is Behavior.SILENT:
            continue
        fake = None
        if role.behavior is Behavior.FAKE_SHARE:
            fake = draw_fake_exponent(voter_rngs[i], params, shares[i].secret_key)
        answered = {}
        for j, request in enumerate(aggregates):
            if i + 1 in plan.multisets[j]:
                own = ciphertexts[i][j] if role.honest and n > 1 else None
                answered[j] = (decryption_share(params, shares[i], request, own) if fake is None
                               else fake_decryption_share(params, request.c1, fake))
        for j, partial in answered.items():
            responses[j][i + 1] = partial
        if recorder and answered:
            recorder("decrypt_share", i + 1, answered)
    results = []
    for j, request in enumerate(aggregates):
        try:
            results.append(combine_sampled_decrypt(params, responses[j], plan, j, request, n))
        except MissingShares:
            results.append(SampleResult(j, None, None))
    if recorder:
        recorder("result", None, results)
    return results
