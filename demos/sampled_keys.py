"""Why one public key fails under disruption, and how k sampled keys fix it.

A fifth of the voters here answer threshold-decryption requests with random
exponents. With the single all-voter key the tally is unrecoverable; with k
sampled keys, samples that dodge the disruptors decode to the true tally and
agree, while every disrupted sample lands on its own garbage value. The mode
of the decoded tallies is the answer.
"""

import random

from votesim.adversary import Behavior, assign_roles
from votesim.errors import NoConsistentResult
from votesim.group import default_group
from votesim.hevs import make_sampling_plan, mode_decision, run_sampled_election

params = default_group()
rng = random.Random(2)
n, k = 20, 8

roles = assign_roles(rng, n, p_fail=0.2, behavior=Behavior.FAKE_SHARE)
disruptors = [role.voter_id for role in roles if not role.honest]
votes = [rng.randrange(2) if role.honest else 0 for role in roles]
print(f"{n} voters, disruptors: {disruptors}, honest vote sum: {sum(votes)}")

# sample size ceil(sqrt(n/2)) keeps a solid fraction of samples clean
plan = make_sampling_plan(rng, n, k, t_policy="sqrt-half")
print(f"{k} samples of {plan.sizes[0]} key pieces each (drawn with replacement)")

results = run_sampled_election(params, votes, roles, plan, rng)
for result, multiset in zip(results, plan.multisets):
    hit = sorted(set(multiset) & set(disruptors))
    note = f"disrupted by {hit}" if hit else "clean"
    print(f"  sample {result.sample_index}: decoded tally = {result.tally} ({note})")

try:
    decision = mode_decision([r.tally for r in results], min_consistency=2)
    print(f"mode decision: {decision} (true sum {sum(votes)})")
except NoConsistentResult:
    print("mode decision: no two samples agreed; rerun with a larger k")
