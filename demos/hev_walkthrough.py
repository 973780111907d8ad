"""Step-by-step homomorphic election in a group small enough to read.

Three voters, votes (1, 0, 1), everything printed: key pieces, the combined
public key, each ciphertext, the running aggregate, the threshold-decryption
shares, and the decoded tally.
"""

from votesim.group import TINY_GROUP
from votesim.hev import KeyShare, aggregate, decryption_share, encrypt_vote
from votesim.hevs import SamplingPlan, combine_sampled_decrypt, combine_sampled_public_key

params = TINY_GROUP
print(f"group: order-{params.order} subgroup mod {params.modulus}, generator {params.generator}")

# --- key generation: each voter keeps a secret and publishes g**secret
secrets = (3, 5, 2)
shares = [KeyShare(i + 1, s, params.exp(params.generator, s)) for i, s in enumerate(secrets)]
for share in shares:
    print(f"voter {share.voter_id}: secret {share.secret_key} -> piece {share.public_piece}")

# plain HEV is the sampled-key pipeline with one sample holding every voter once
plan = SamplingPlan(3, ((1, 2, 3),))
public_key = combine_sampled_public_key(params, {s.voter_id: s.public_piece for s in shares},
                                        plan, 0)
print(f"election public key (product of pieces): {public_key}")

# --- voting: 0/1 in the exponent, fresh nonce per ballot
votes = (1, 0, 1)
nonces = (4, 6, 2)
ciphertexts = [encrypt_vote(params, public_key, v, nonce=r) for v, r in zip(votes, nonces)]
for i, ct in enumerate(ciphertexts):
    print(f"voter {i + 1} encrypts {votes[i]} with nonce {nonces[i]}: ({ct.c1}, {ct.c2})")

# --- aggregation: multiplying ciphertexts adds the votes underneath
total = aggregate(params, ciphertexts)
print(f"aggregate ciphertext: ({total.c1}, {total.c2})")

# --- threshold decryption: every key holder must contribute
partials = {share.voter_id: decryption_share(params, share, total) for share in shares}
print("decryption shares:", list(partials.values()))

result = combine_sampled_decrypt(params, partials, plan, 0, total, len(votes))
print(f"unmasked element: {result.element} = generator**{result.tally}")
print(f"tally: {result.tally} (votes were {votes})")
