"""Deterministic in-memory elections with replayable transcripts.

run_election drives every party of the chosen protocol to completion (or to
a structured protocol error), recording one Message per exchanged protocol
message. A transcript file is the JSON config header followed by each
message's tab-separated line, so any election can be re-run bit-for-bit
from its transcript alone.

This module alone owns the record format: tags, hex strings and party
names. Both HEV protocols run through the sampled-key pipeline in
``votesim.hevs`` (plain HEV as its k = 1, every-voter-once case), which
reports plain values; ``_RECORDS`` renders them in each protocol's shapes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from . import bsv
from .adversary import Behavior, assign_roles
from .errors import ConfigError, CorruptTranscript, DiscreteLogNotFound, MissingShares, ProtocolError
from .group import MAX_GROUP_BITS, MIN_GROUP_BITS, default_group, generate_group
from .hevs import (
    Recorder,
    SamplingPlan,
    bounded_sample_size,
    make_sampling_plan,
    mode_decision,
    run_pipeline,
    run_sampled_election,
)
from .seeding import spawn

TRANSCRIPT_MAGIC = "votesim-transcript 1"
#: renders every transcript record and header: sorted keys, no spaces
_TRANSCRIPT_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

_HEV_PHASES = ("key", "broadcast", "vote", "decrypt_request", "decrypt_share", "result")
PHASE_ORDER = {"hev": _HEV_PHASES, "hevs": _HEV_PHASES,
               "bsv": ("signer_key", "blind_request", "signed_blind", "post", "result")}

PROTOCOLS = tuple(PHASE_ORDER)


@dataclass(frozen=True)
class Message:
    """One protocol message; ``line`` is its transcript record."""

    phase: str
    sender: str
    receiver: str
    payload: dict

    def line(self, blob: str | None = None) -> str:
        """The record; `blob` is this payload's encoding when the caller has it."""
        if blob is None:
            blob = _TRANSCRIPT_JSON.encode(self.payload).encode("utf-8").hex()
        return f"{self.phase}\t{self.sender}\t{self.receiver}\t{blob}"


@dataclass(frozen=True)
class Schedule:
    """Round boundaries for the timed phases plus delivery behavior.

    The signing and posting windows must be disjoint; the gap is the
    modeled random delay between obtaining a signature and casting.
    """

    sign_window: tuple[int, int] = (1, 3)
    post_window: tuple[int, int] = (3, 5)
    anonymize: bool = True
    delivery_salt: int = 0

    def __post_init__(self):
        for window in (self.sign_window, self.post_window):
            if type(window) is not tuple or len(window) != 2 or any(type(r) is not int for r in window):
                raise ConfigError(f"phase windows must be pairs of integers, got {window!r}")
        if type(self.anonymize) is not bool or type(self.delivery_salt) is not int:
            raise ConfigError("anonymize must be a bool and delivery_salt an integer")
        if self.sign_window[0] >= self.sign_window[1] or self.post_window[0] >= self.post_window[1]:
            raise ConfigError("phase windows must satisfy start < end")
        if self.sign_window[1] > self.post_window[0]:
            raise ConfigError("signing window must close before posting opens")


#: ElectionConfig field -> its type (an int is no bool) and its name in errors;
#: votes and group_bits may also be None
_FIELD_TYPES = {
    "schedule": (Schedule, "a Schedule"),
    **dict.fromkeys(("n", "seed", "k", "min_consistency", "extra_vote_value", "group_bits",
                     "rsa_bits"), (int, "an integer")),
    **dict.fromkeys(("votes", "candidates", "replay_voters"), (tuple, "a tuple")),
}


def _decoded(cls, data) -> dict:
    """data's values, each list made a tuple, once data is a dict whose keys
    are exactly the field names of cls, as ``to_dict`` writes them."""
    names = {f.name for f in fields(cls)}
    if type(data) is not dict:
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
    if set(data) != names:
        raise ConfigError(f"{cls.__name__} keys missing {sorted(names - set(data))}, "
                          f"unknown {sorted(set(data) - names)}")
    return {name: tuple(value) if type(value) is list else value for name, value in data.items()}


@dataclass(frozen=True)
class ElectionConfig:
    """Everything a run needs; fully determines the transcript via the seed.

    Every field's rule holds for every protocol, checked before any work: its
    type, n, k and t_policy within the bounds of ``hevs.bounded_sample_size``,
    2 <= min_consistency <= k, the ``group`` and ``bsv`` size bounds, nonempty
    candidates, ``replay_voters`` in [1, n], two rounds to sign. Only hev and
    hevs votes (0 or 1), bsv votes (candidates) and bsv's p_fail (0) depend on
    the protocol. A broken rule is a ``ConfigError``, and so an unreadable
    header in ``replay``. ``votes``, ``candidates`` and ``replay_voters`` are
    tuples, so a config hashes and its transcript replays to an equal one.
    """

    protocol: str
    n: int
    seed: int = 1
    votes: tuple | None = None
    candidates: tuple[str, ...] = ("for", "against")
    k: int = 4
    t_policy: str | int | None = None
    min_consistency: int = 2
    p_fail: float = 0.0
    behavior: str = "fake_share"
    extra_vote_value: int = 2
    group_bits: int | None = None
    rsa_bits: int = 512
    replay_voters: tuple[int, ...] = ()
    schedule: Schedule = Schedule()

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        for name, (kind, called) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if type(value) is not kind and not (value is None and name in ("votes", "group_bits")):
                raise ConfigError(f"{name} must be {called}, got {value!r}")
        try:
            bounded_sample_size(self.n, self.k, self.t_policy)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 2 <= self.min_consistency <= self.k:
            raise ConfigError(f"min_consistency must be between 2 and k={self.k}")
        if self.group_bits is not None and not MIN_GROUP_BITS <= self.group_bits <= MAX_GROUP_BITS:
            raise ConfigError(f"group_bits must be between {MIN_GROUP_BITS} and {MAX_GROUP_BITS}, "
                              f"got {self.group_bits}")
        if not bsv.MIN_RSA_BITS <= self.rsa_bits <= bsv.MAX_RSA_BITS:
            raise ConfigError(f"rsa_bits must be between {bsv.MIN_RSA_BITS} and "
                              f"{bsv.MAX_RSA_BITS}, got {self.rsa_bits}")
        if type(self.p_fail) not in (int, float) or not 0.0 <= self.p_fail <= 1.0:
            raise ConfigError(f"p_fail must be a number in [0, 1], got {self.p_fail!r}")
        try:
            Behavior(self.behavior)
        except ValueError:
            raise ConfigError(f"unknown behavior {self.behavior!r}") from None
        if not self.candidates or not all(map(bsv.is_ballot_content, self.candidates)):
            raise ConfigError("candidates must be one or more nonempty names without tabs or newlines")
        if any(type(v) is not int or not 1 <= v <= self.n for v in self.replay_voters):
            raise ConfigError("replay_voters must be voter ids in [1, n]")
        if self.schedule.sign_window[1] - self.schedule.sign_window[0] < 2:
            raise ConfigError("signing window needs at least two rounds (request, response)")
        if self.votes is not None:
            if len(self.votes) != self.n:
                raise ConfigError(f"got {len(self.votes)} votes for n={self.n}")
            if self.protocol == "bsv" and any(v not in self.candidates for v in self.votes):
                raise ConfigError(f"bsv votes must be among the candidates {list(self.candidates)}")
            if self.protocol != "bsv" and not all(type(v) is int and v in (0, 1) for v in self.votes):
                raise ConfigError("hev/hevs votes must be 0 or 1")
        if self.protocol == "bsv" and self.p_fail:
            raise ConfigError("bsv does not model p_fail; use replay_voters")

    def to_dict(self) -> dict:
        """Every field, the schedule as a nested dict; JSON renders tuples as lists."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["schedule"] = {f.name: getattr(self.schedule, f.name) for f in fields(Schedule)}
        return data

    @classmethod
    def from_dict(cls, data) -> "ElectionConfig":
        """The config whose ``to_dict`` is data, as a transcript header decodes:
        a JSON object with exactly ``to_dict``'s keys, at the top level and in
        ``schedule``, each list standing for a tuple. Else a ConfigError."""
        values = _decoded(cls, data)
        values["schedule"] = Schedule(**_decoded(Schedule, data["schedule"]))
        return cls(**values)


@dataclass
class ElectionOutcome:
    config: ElectionConfig
    ok: bool
    tally: int | None = None
    decision: int | None = None
    counts: dict[str, int] | None = None
    sample_tallies: tuple | None = None
    true_tally: int | None = None
    error: str | None = None
    error_detail: str | None = None
    ledger_dump: tuple[str, ...] | None = None
    transcript: tuple[Message, ...] = ()


def _error_code(exc: Exception) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


def run_election(config: ElectionConfig, *, _signatures: dict | None = None) -> ElectionOutcome:
    """Run one election; protocol failures become structured outcomes.

    A hevs election of k >= 2 samples runs each sample's ballots, then each
    sample's decryption shares, and a bsv election runs each voter's blind
    signature, on every CPU of the affinity set through the worker pool
    when the phase is large enough (see ``votesim.pool.each_sample``);
    every draw is made in this process first, so the outcome and transcript
    bytes are the same on one CPU or many. Plain hev runs in this process.

    ``_signatures`` is for ``replay`` alone: a transcript's claimed bsv ballot
    signatures by nonce, each checked before use (see ``_run_bsv``).
    """
    outcome = ElectionOutcome(config=config, ok=False)
    messages: list[Message] = []
    try:
        if config.protocol == "bsv":
            _run_bsv(config, outcome, messages, _signatures or {})
        else:
            _run_hev(config, outcome, messages)
        outcome.ok = True
    except ProtocolError as exc:
        outcome.error, outcome.error_detail = _error_code(exc), str(exc)
    outcome.transcript = tuple(messages)
    return outcome


def _hex(value: int) -> str:
    return format(value, "x")


#: phase -> the record of the value that ``run_pipeline`` reports for a voter
#: id (None for the government), or None for no record; one table per protocol
_HEVS_RECORDS = {
    "key": lambda i, piece: {"tag": "key_piece", "voter_id": i, "piece": _hex(piece)},
    "broadcast": lambda _, keys: {"tag": "sampled_keys", "keys": [_hex(k) for k in keys]},
    "vote": lambda i, row: {"tag": "ciphertexts", "voter_id": i,
                            "pairs": [[_hex(ct.c1), _hex(ct.c2)] for ct in row]},
    "decrypt_request": lambda _, cts: {"tag": "decrypt_request", "pending": True,
                                       "aggregates": [[_hex(ct.c1), _hex(ct.c2)] for ct in cts]},
    "decrypt_share": lambda i, partials: {
        "tag": "decryption_shares", "voter_id": i,
        "partials": {str(j): _hex(p) for j, p in partials.items()}},
    "result": lambda _, results: {"tag": "sample_results", "tallies": [r.tally for r in results]},
}
_RECORDS = {
    "hevs": _HEVS_RECORDS,
    # Plain HEV's records hold its one sample's entry under the plain tags.
    "hev": {
        **_HEVS_RECORDS,
        "broadcast": lambda _, keys: {"tag": "public_key", "key": _hex(keys[0])},
        "vote": lambda i, row: {"tag": "ciphertext", "voter_id": i,
                                "c1": _hex(row[0].c1), "c2": _hex(row[0].c2)},
        "decrypt_request": lambda _, cts: {"tag": "decrypt_request", "pending": True,
                                           "c1": _hex(cts[0].c1), "c2": _hex(cts[0].c2)},
        "decrypt_share": lambda i, partials: {"tag": "decryption_share", "voter_id": i,
                                              "partial": _hex(partials[0])},
        # A blocked or undecodable sample publishes no tally.
        "result": lambda _, results: None if results[0].tally is None else {
            "tag": "tally", "tally": results[0].tally},
    },
}


def _recorder(messages: list[Message], protocol: str, n: int) -> Recorder:
    """Render each reported value as its records: a voter's goes to the
    government, the result to the public, and any other government value
    to every voter."""
    render = _RECORDS[protocol]

    def record(phase, voter_id, value):
        payload = render[phase](voter_id, value)
        if payload is None:
            return
        if voter_id is not None:
            messages.append(Message(phase, f"voter:{voter_id}", "government", payload))
        elif phase == "result":
            messages.append(Message(phase, "government", "public", payload))
        else:
            messages.extend(Message(phase, "government", f"voter:{i}", payload)
                            for i in range(1, n + 1))

    return record


def _run_hev(config: ElectionConfig, outcome: ElectionOutcome, messages: list[Message]) -> None:
    """Both HEV protocols through the one pipeline. Plain HEV is one sample
    holding every voter once, each voter drawing from its own stream, and
    takes that sample's tally; hevs draws its plan, runs every voter from one
    crypto stream and takes the mode of its samples."""
    params = default_group() if config.group_bits is None else generate_group(
        config.group_bits, spawn(config.seed, "group"))
    n = config.n
    roles = assign_roles(spawn(config.seed, "roles"), n, config.p_fail, Behavior(config.behavior))
    vote_rng = spawn(config.seed, "votes")
    submitted = []  # the plaintext each voter encrypts
    for i, role in enumerate(roles):
        intent = config.votes[i] if config.votes is not None else vote_rng.randrange(2)
        if role.honest:
            submitted.append(intent)
        elif role.behavior is Behavior.EXTRA_VOTE:
            submitted.append(config.extra_vote_value)
        else:
            submitted.append(0)
    outcome.true_tally = sum(v for role, v in zip(roles, submitted) if role.honest)
    recorder = _recorder(messages, config.protocol, n)
    if config.protocol == "hevs":
        plan = make_sampling_plan(spawn(config.seed, "plan"), n, config.k, config.t_policy)
        results = run_sampled_election(params, submitted, roles, plan,
                                       spawn(config.seed, "crypto"), recorder)
        outcome.sample_tallies = tuple(r.tally for r in results)
        outcome.decision = mode_decision(outcome.sample_tallies, config.min_consistency)
        return
    plan = SamplingPlan(n, (tuple(range(1, n + 1)),))
    voter_rngs = [spawn(config.seed, "voter", i) for i in range(1, n + 1)]
    (result,) = run_pipeline(params, submitted, roles, plan, voter_rngs, recorder)
    if result.element is None:
        raise MissingShares(role.voter_id for role in roles if role.behavior is Behavior.SILENT)
    if result.tally is None:
        raise DiscreteLogNotFound(result.element, n)
    outcome.tally = result.tally


def _run_bsv(config: ElectionConfig, outcome: ElectionOutcome, messages: list[Message],
             claimed: dict) -> None:
    """The bsv election. ``bsv.sign_requests`` answers every blind request,
    taking a signature in `claimed` under the ballot's nonce if it verifies."""
    schedule = config.schedule
    vote_rng = spawn(config.seed, "votes")
    choices = config.votes if config.votes is not None else [
        vote_rng.choice(config.candidates) for _ in range(config.n)]
    keys = bsv.signer_keygen(spawn(config.seed, "rsa"), config.rsa_bits)
    pub = keys.public
    ledger = bsv.Ledger(pub, schedule.sign_window, schedule.post_window)
    registry = bsv.SignerRegistry(range(1, config.n + 1))

    messages.append(Message("signer_key", "government", "public", {
        "tag": "signer_key", "modulus": _hex(pub.modulus), "exponent": _hex(pub.exponent)}))

    requests: list[tuple[int, bsv.Ballot, bsv.BlindingState]] = []
    for i in range(1, config.n + 1):
        rng = spawn(config.seed, "voter", i)
        ballot = bsv.make_ballot(choices[i - 1], rng)
        state = bsv.blind(ballot, pub, rng)
        requests.append((i, ballot, state))
        messages.append(Message("blind_request", f"voter:{i}", "government", {
            "tag": "blind_request", "voter_id": i, "blinded": _hex(state.blinded)}))
    signed: list[bsv.Ballot] = []
    answers = bsv.sign_requests(keys, registry, requests, claimed)
    for (i, ballot, _), (blind_sig, signature) in zip(requests, answers):
        messages.append(Message("signed_blind", "government", f"voter:{i}", {
            "tag": "signed_blind", "voter_id": i, "value": _hex(blind_sig)}))
        signed.append(ballot.with_signature(signature))

    pool = [(i + 1, ballot) for i, ballot in enumerate(signed)]
    pool.extend((voter_id, signed[voter_id - 1]) for voter_id in config.replay_voters)
    spawn(config.seed, "delivery", schedule.delivery_salt).shuffle(pool)

    for voter_id, ballot in pool:
        sender = "anon" if schedule.anonymize else f"voter:{voter_id}"
        result = ledger.submit(ballot, now=schedule.post_window[0])
        messages.append(Message("post", sender, "ledger", {
            "tag": "ballot", "content": ballot.content,
            "nonce": _hex(ballot.nonce), "signature": _hex(ballot.signature),
            "accepted": result.accepted, "reason": result.reason.value if result.reason else None}))

    counts = ledger.tally(now=schedule.post_window[1])
    counts_dict = {name: counts.get(name, 0) for name in sorted(set(counts) | set(config.candidates))}
    messages.append(Message("result", "ledger", "public", {"tag": "counts", "counts": counts_dict}))
    outcome.counts, outcome.ledger_dump = counts_dict, tuple(ledger.dump_lines())


def transcript_lines(outcome: ElectionOutcome) -> list[str]:
    """The header, then one record per message. A government broadcast sends
    one payload to every voter, so a payload is encoded once for its run of
    consecutive messages."""
    lines = [f"{TRANSCRIPT_MAGIC} {_TRANSCRIPT_JSON.encode(outcome.config.to_dict())}"]
    payload = blob = None
    for message in outcome.transcript:
        if message.payload is not payload:
            payload = message.payload
            blob = _TRANSCRIPT_JSON.encode(payload).encode("utf-8").hex()
        lines.append(message.line(blob))
    return lines


def write_transcript(outcome: ElectionOutcome, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in transcript_lines(outcome):
            fh.write(line + "\n")


def _claimed_signatures(lines: Sequence[str]) -> dict:
    """Nonce -> signature of each ``post`` record that parses; the last
    record for a nonce wins, and the re-run checks every value it uses."""
    claimed = {}
    for line in lines:
        if not line.startswith("post\t"):
            continue
        try:
            payload = json.loads(bytes.fromhex(line.rpartition("\t")[2]))
            claimed[int(payload["nonce"], 16)] = int(payload["signature"], 16)
        except (ValueError, LookupError, TypeError, RecursionError):
            continue
    return claimed


def replay(lines: Iterable[str]) -> ElectionOutcome:
    """Re-run the election encoded in a transcript and check it matches.

    Any divergence - truncation, edits, reordering, a malformed header -
    raises CorruptTranscript. On success the freshly computed outcome is
    returned.

    Every value is re-derived from the header's seed - keys, votes, nonces,
    blinding factors, ciphertexts, shares and the ledger's verdicts - except
    the bsv ballot signatures, each read from a ``post`` record by its nonce.
    ``bsv.verify_ballot`` checks each, 0 <= s < n and s**e = digest mod n,
    and the blind signature is then s * r mod n for the blinding factor r; a
    claim that fails or does not parse is signed again. The check is exact,
    as s -> s**e mod n permutes [0, n) for an RSA key (see ``votesim.bsv``),
    so the re-derived records, and the line named for any corrupt
    transcript, are those of a full re-run.
    """
    lines = [line.rstrip("\n") for line in lines]
    if not lines or not lines[0].startswith(TRANSCRIPT_MAGIC + " "):
        raise CorruptTranscript("missing transcript header")
    try:
        config = ElectionConfig.from_dict(json.loads(lines[0][len(TRANSCRIPT_MAGIC) + 1:]))
    except (ValueError, LookupError, TypeError, RecursionError, ConfigError) as exc:
        raise CorruptTranscript(f"unreadable header: {exc}") from exc
    claimed = _claimed_signatures(lines) if config.protocol == "bsv" else None
    outcome = run_election(config, _signatures=claimed)
    expected = transcript_lines(outcome)
    if len(lines) != len(expected):
        raise CorruptTranscript(
            f"transcript has {len(lines)} lines, deterministic re-run has {len(expected)}"
        )
    for index, (got, want) in enumerate(zip(lines, expected)):
        if got != want:
            raise CorruptTranscript(f"transcript diverges from re-run at line {index + 1}")
    return outcome
