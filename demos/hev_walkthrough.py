"""Step-by-step homomorphic election in a group small enough to read.

Three voters, votes (1, 0, 1), everything printed: key pieces, the combined
public key, each ciphertext, the running aggregate, the threshold-decryption
shares, and the decoded tally.
"""

from votesim.group import TINY_GROUP
from votesim.hev import (
    KeyShare,
    aggregate,
    combine_decrypt,
    combine_public_key,
    decryption_share,
    encrypt_vote,
    recover_tally,
)

params = TINY_GROUP
print(f"group: order-{params.order} subgroup mod {params.modulus}, generator {params.generator}")

# --- key generation: each voter keeps a secret and publishes g**secret
secrets = (3, 5, 2)
shares = [KeyShare(i + 1, s, params.exp(params.generator, s)) for i, s in enumerate(secrets)]
for share in shares:
    print(f"voter {share.voter_id}: secret {share.secret_key} -> piece {share.public_piece}")

public_key = combine_public_key(params, [s.public_piece for s in shares])
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
responses = [decryption_share(params, share, total) for share in shares]
print("decryption shares:", [r.partial for r in responses])

encoded = combine_decrypt(params, responses, total, [1, 2, 3])
tally = recover_tally(params, encoded, len(votes))
print(f"unmasked element: {encoded} = generator**{tally}")
print(f"tally: {tally} (votes were {votes})")
