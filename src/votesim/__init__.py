"""Simulators for two privacy-preserving voting protocols.

* blind-signature voting: RSA blind signatures plus an append-only ledger
  enforcing signature validity and nonce freshness
* homomorphic-encryption voting: threshold ElGamal-style tallying, with a
  k-sampled-key hardening against voters who disrupt threshold decryption

plus the adversary model, a deterministic election simulator with replayable
transcripts, and a Monte Carlo harness for reliability sweeps.
"""

from .adversary import Behavior, VoterRole, assign_roles
from .errors import (
    AmbiguousMode,
    ConfigError,
    CorruptTranscript,
    DiscreteLogNotFound,
    MissingShares,
    NoConsistentResult,
    PhaseError,
    ProtocolError,
    RefuseSingletonAggregate,
    VotesimError,
)
from .group import (
    TINY_GROUP,
    GroupParams,
    default_group,
    discrete_log_bounded,
    generate_group,
)
from .hev import (
    Ciphertext,
    KeyShare,
    aggregate,
    combine_decrypt,
    decryption_share,
    encrypt_vote,
    keygen_share,
)
from .hevs import (
    SampleResult,
    SamplingPlan,
    combine_sampled_decrypt,
    combine_sampled_public_key,
    make_sampling_plan,
    mode_decision,
    reliability_probability,
    reliability_probability_with_replacement,
    run_sampled_election,
)
from .simnet import ElectionConfig, ElectionOutcome, Message, Schedule, replay, run_election

__version__ = "0.1.0"
