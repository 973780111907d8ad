"""Exception types shared across the votesim protocol modules."""


class VotesimError(Exception):
    """Base class for all library errors."""


class ConfigError(VotesimError):
    """Invalid election or experiment configuration."""


class GroupGenerationError(VotesimError):
    """Parameter generation failed within the attempt budget."""


class ProtocolError(VotesimError):
    """A party observed a protocol violation or unrecoverable failure."""


class PhaseError(ProtocolError):
    """A message or action arrived outside its protocol phase."""


class DiscreteLogNotFound(ProtocolError):
    """No exponent within the search bound maps to the target element."""

    def __init__(self, target: int, bound: int):
        super().__init__(f"no exponent in [0, {bound}] matches element {target:#x}")
        self.target = target
        self.bound = bound


class EmptyBallotSet(VotesimError):
    """Ciphertext aggregation requires at least one ballot."""


class RefuseSingletonAggregate(ProtocolError):
    """A voter refused to help decrypt an aggregate equal to their own ciphertext."""


class MissingShares(ProtocolError):
    """Threshold decryption is blocked because some voters never responded."""

    def __init__(self, missing_ids):
        self.missing_ids = tuple(sorted(missing_ids))
        super().__init__(f"missing decryption shares from voters {list(self.missing_ids)}")


class NoConsistentResult(ProtocolError):
    """No decoded sample tally reached the required consistency count."""


class AmbiguousMode(ProtocolError):
    """Two or more decoded tallies tie for the maximum consistency count."""


class IneligibleVoter(ProtocolError):
    """Signature requested by a voter outside the eligibility registry."""


class AlreadySigned(ProtocolError):
    """A registered voter requested a second blind signature."""


class CorruptTranscript(VotesimError):
    """A transcript failed parsing or did not match its deterministic re-run."""
