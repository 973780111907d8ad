import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from votesim import bsv, hevs, pool, simnet
from votesim.adversary import Behavior
from votesim.errors import ConfigError, CorruptTranscript
from votesim.simnet import (
    PHASE_ORDER,
    TRANSCRIPT_MAGIC,
    ElectionConfig,
    ElectionOutcome,
    Message,
    Schedule,
    replay,
    run_election,
    transcript_lines,
)

from reference import sampled_pipeline


def lines_for(config):
    return transcript_lines(run_election(config))


def test_hev_worked_votes():
    outcome = run_election(ElectionConfig(protocol="hev", n=3, votes=(1, 0, 1), seed=7))
    assert outcome.ok
    assert outcome.tally == 2
    assert outcome.true_tally == 2


def test_hev_transcript_message_counts():
    outcome = run_election(ElectionConfig(protocol="hev", n=3, votes=(1, 0, 1), seed=7))
    phases = [m.phase for m in outcome.transcript]
    assert phases.count("key") == 3
    assert phases.count("broadcast") == 3
    assert phases.count("vote") == 3
    assert phases.count("decrypt_request") == 3
    assert phases.count("decrypt_share") == 3
    assert phases.count("result") == 1


def test_determinism_same_seed_identical_transcripts():
    for config in (
        ElectionConfig(protocol="hev", n=4, seed=3),
        ElectionConfig(protocol="hevs", n=5, k=3, seed=3),
        ElectionConfig(protocol="bsv", n=3, seed=3, rsa_bits=256),
    ):
        assert lines_for(config) == lines_for(config)


def test_different_seeds_differ():
    a = lines_for(ElectionConfig(protocol="hevs", n=5, k=3, seed=1))
    b = lines_for(ElectionConfig(protocol="hevs", n=5, k=3, seed=2))
    assert a != b


def test_phase_tags_never_go_backwards():
    for config in (
        ElectionConfig(protocol="hev", n=4, seed=9),
        ElectionConfig(protocol="hevs", n=6, k=4, seed=9, p_fail=0.5),
        ElectionConfig(protocol="bsv", n=4, seed=9, rsa_bits=256, replay_voters=(2,)),
    ):
        outcome = run_election(config)
        order = {phase: i for i, phase in enumerate(PHASE_ORDER[config.protocol])}
        indices = [order[m.phase] for m in outcome.transcript]
        assert indices == sorted(indices)


def test_hevs_all_disruptive_yields_no_consistent_result():
    outcome = run_election(ElectionConfig(protocol="hevs", n=4, k=4, seed=5, p_fail=1.0))
    assert not outcome.ok
    assert outcome.error == "no_consistent_result"
    assert outcome.decision is None
    assert outcome.transcript  # partial transcript survives the failure


def test_hev_silent_voter_surfaces_missing_shares():
    outcome = run_election(
        ElectionConfig(protocol="hev", n=3, seed=5, p_fail=1.0, behavior="silent")
    )
    assert not outcome.ok
    assert outcome.error == "missing_shares"


def test_hev_fake_share_breaks_decode():
    outcome = run_election(
        ElectionConfig(protocol="hev", n=3, seed=5, p_fail=0.5, behavior="fake_share")
    )
    if not outcome.ok:  # at least one malicious voter drawn
        assert outcome.error == "discrete_log_not_found"


def test_extra_vote_cheater_dominates():
    # against-votes everywhere; any cheater adds 3, so the decoded tally is a
    # multiple of 3 (or exceeds the decode bound with two or more cheaters)
    seen_domination = False
    for seed in range(40):
        config = ElectionConfig(protocol="hev", n=3, votes=(0, 0, 0), seed=seed,
                                p_fail=0.34, behavior="extra_vote", extra_vote_value=3)
        outcome = run_election(config)
        if outcome.ok:
            assert outcome.tally in (0, 3)
            assert outcome.true_tally == 0
            seen_domination = seen_domination or outcome.tally == 3
        else:
            assert outcome.error == "discrete_log_not_found"
    assert seen_domination


def test_bsv_counts_and_ledger():
    config = ElectionConfig(protocol="bsv", n=5, seed=2, rsa_bits=256,
                            votes=("a", "a", "b", "a", "b"), candidates=("a", "b"))
    outcome = run_election(config)
    assert outcome.ok
    assert outcome.counts == {"a": 3, "b": 2}
    assert len(outcome.ledger_dump) == 5


def test_bsv_replayed_ballot_counted_once():
    config = ElectionConfig(protocol="bsv", n=4, seed=2, rsa_bits=256,
                            votes=("a", "b", "a", "a"), candidates=("a", "b"),
                            replay_voters=(2,))
    outcome = run_election(config)
    assert outcome.counts == {"a": 3, "b": 1}
    posts = [m for m in outcome.transcript if m.phase == "post"]
    assert len(posts) == 5
    rejected = [m for m in posts if not m.payload["accepted"]]
    assert len(rejected) == 1
    assert rejected[0].payload["reason"] == "duplicate_nonce"


def test_bsv_anonymized_senders():
    config = ElectionConfig(protocol="bsv", n=4, seed=2, rsa_bits=256)
    outcome = run_election(config)
    posts = [m for m in outcome.transcript if m.phase == "post"]
    assert posts and all(m.sender == "anon" for m in posts)

    visible = ElectionConfig(protocol="bsv", n=4, seed=2, rsa_bits=256,
                             schedule=Schedule(anonymize=False))
    outcome = run_election(visible)
    posts = [m for m in outcome.transcript if m.phase == "post"]
    assert all(m.sender.startswith("voter:") for m in posts)


def test_bsv_posting_order_is_shuffled_by_seed():
    base = dict(protocol="bsv", n=6, rsa_bits=256, votes=("a",) * 6, candidates=("a", "b"))
    first = run_election(ElectionConfig(seed=1, **base))
    second = run_election(ElectionConfig(seed=2, **base))
    nonces_1 = [m.payload["nonce"] for m in first.transcript if m.phase == "post"]
    nonces_2 = [m.payload["nonce"] for m in second.transcript if m.phase == "post"]
    assert nonces_1 != nonces_2  # different keys and order per seed


def test_message_line_format():
    outcome = run_election(ElectionConfig(protocol="hev", n=2, seed=1))
    for message in outcome.transcript:
        line = message.line()
        phase, sender, receiver, payload_hex = line.split("\t")
        payload = json.loads(bytes.fromhex(payload_hex).decode("utf-8"))
        assert payload["tag"]
        for key in ("piece", "key", "c1", "c2", "partial"):
            if key in payload:
                value = payload[key]
                assert value == value.lower()
                int(value, 16)


def test_replay_roundtrip():
    config = ElectionConfig(protocol="hevs", n=5, k=3, seed=4, p_fail=0.3)
    original = run_election(config)
    replayed = replay(transcript_lines(original))
    assert replayed.decision == original.decision
    assert replayed.sample_tallies == original.sample_tallies
    assert transcript_lines(replayed) == transcript_lines(original)


def test_replay_detects_truncation():
    lines = lines_for(ElectionConfig(protocol="hev", n=3, seed=4))
    with pytest.raises(CorruptTranscript):
        replay(lines[:-1])


def test_replay_detects_edits():
    lines = lines_for(ElectionConfig(protocol="hev", n=3, seed=4))
    lines[3] = lines[3][:-2] + "00"
    with pytest.raises(CorruptTranscript):
        replay(lines)


BSV_REPLAYS = {
    "64 bits": ElectionConfig(protocol="bsv", n=5, seed=3, rsa_bits=64),
    "512 bits": ElectionConfig(protocol="bsv", n=4, seed=3, rsa_bits=512),
    "replay_voters": ElectionConfig(protocol="bsv", n=5, seed=4, rsa_bits=64,
                                    replay_voters=(2, 5, 2)),
    "anonymize off": ElectionConfig(protocol="bsv", n=4, seed=5, rsa_bits=64,
                                    replay_voters=(1,), schedule=Schedule(anonymize=False)),
}


@pytest.mark.parametrize("config", BSV_REPLAYS.values(), ids=BSV_REPLAYS)
def test_bsv_replay_matches_the_run(config):
    original = run_election(config)
    lines = transcript_lines(original)
    replayed = replay(lines)
    assert replayed == original
    assert transcript_lines(replayed) == lines


def test_bsv_replay_signs_nothing_for_a_clean_transcript(monkeypatch):
    """Replay neither signs nor unblinds: each posted signature verifies."""
    calls = []

    def spy(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    # crt_sign is the signing the run does (sign_blinded is its registry check
    # plus crt_sign); spied, it keeps every signature in this process
    for name in ("crt_sign", "unblind"):
        monkeypatch.setattr(bsv, name, spy(name, getattr(bsv, name)))
    config = ElectionConfig(protocol="bsv", n=6, seed=2, rsa_bits=128, replay_voters=(3,))
    lines = lines_for(config)
    assert sorted(calls) == ["crt_sign"] * config.n + ["unblind"] * config.n
    calls.clear()
    replay(lines)
    assert calls == []


def test_each_bsv_voter_is_marked_served_once_in_run_and_replay(monkeypatch):
    served = []
    check_and_mark = bsv.SignerRegistry.check_and_mark

    def spy(registry, voter_id):
        served.append(voter_id)
        return check_and_mark(registry, voter_id)

    monkeypatch.setattr(bsv.SignerRegistry, "check_and_mark", spy)
    config = ElectionConfig(protocol="bsv", n=5, seed=2, rsa_bits=64, replay_voters=(3,))
    lines = lines_for(config)
    assert sorted(served) == list(range(1, config.n + 1))
    served.clear()
    replay(lines)
    assert sorted(served) == list(range(1, config.n + 1))


def payload_of(line):
    return json.loads(bytes.fromhex(line.split("\t")[3]))


def edit_payload(line, edit):
    phase, sender, receiver, _ = line.split("\t")
    payload = payload_of(line)
    edit(payload)
    return Message(phase, sender, receiver, payload).line()


def test_replay_names_each_edited_blind_signature():
    config = ElectionConfig(protocol="bsv", n=4, seed=6, rsa_bits=64, replay_voters=(2,))
    lines = lines_for(config)
    n = int(payload_of(lines[1])["modulus"], 16)
    records = {index: payload_of(line)
               for index, line in enumerate(lines) if line.startswith("signed_blind\t")}
    assert len(records) == config.n
    values = {p["voter_id"]: p["value"] for p in records.values()}
    for index, record in records.items():
        other = record["voter_id"] % config.n + 1
        edits = {
            "value + n": lambda p: p.update(value=format(int(p["value"], 16) + n, "x")),
            "another voter's signature": lambda p: p.update(value=values[other]),
            "not hex": lambda p: p.update(value="not hex"),
            "voter_id": lambda p: p.update(voter_id=other),
        }
        for name, edit in edits.items():
            tampered = list(lines)
            tampered[index] = edit_payload(lines[index], edit)
            assert tampered[index] != lines[index], name
            with pytest.raises(CorruptTranscript, match=f"at line {index + 1}$"):
                replay(tampered)


def test_replay_names_each_edited_ballot_signature():
    config = ElectionConfig(protocol="bsv", n=4, seed=6, rsa_bits=64, replay_voters=(2,))
    lines = lines_for(config)
    n = int(payload_of(lines[1])["modulus"], 16)
    records = {index: payload_of(line)
               for index, line in enumerate(lines) if line.startswith("post\t")}
    assert len(records) == config.n + len(config.replay_voters)
    signatures = {p["nonce"]: p["signature"] for p in records.values()}
    for index, record in records.items():
        other = next(s for nonce, s in signatures.items() if nonce != record["nonce"])
        edits = {
            "signature + 1": lambda p: p.update(signature=format(int(p["signature"], 16) + 1, "x")),
            "signature + n": lambda p: p.update(signature=format(int(p["signature"], 16) + n, "x")),
            "another ballot's signature": lambda p: p.update(signature=other),
            "not hex": lambda p: p.update(signature="not hex"),
        }
        for name, edit in edits.items():
            tampered = list(lines)
            tampered[index] = edit_payload(lines[index], edit)
            assert tampered[index] != lines[index], name
            with pytest.raises(CorruptTranscript, match=f"at line {index + 1}$"):
                replay(tampered)


@pytest.mark.parametrize("blob", ["[]", '"x"', '{"voter_id": [1], "value": "ff"}',
                                  '{"voter_id": 1, "value": 255}', "[" * 100_000 + "]" * 100_000],
                         ids=["list", "string", "unhashable id", "int value", "deep nesting"])
def test_replay_names_an_unreadable_blind_signature_record(blob):
    lines = lines_for(ElectionConfig(protocol="bsv", n=3, seed=6, rsa_bits=64))
    index = next(i for i, line in enumerate(lines) if line.startswith("signed_blind\t"))
    lines[index] = lines[index].rpartition("\t")[0] + "\t" + blob.encode().hex()
    with pytest.raises(CorruptTranscript, match=f"at line {index + 1}$"):
        replay(lines)


def test_replay_rejects_bad_header():
    with pytest.raises(CorruptTranscript):
        replay(["not a transcript"])
    with pytest.raises(CorruptTranscript):
        replay([])
    with pytest.raises(CorruptTranscript):
        replay(["votesim-transcript 1 {broken json"])


BAD_HEADERS = {
    "n float": ("hev", {"n": 3.0}),
    "k float": ("hevs", {"k": 3.0}),
    "group_bits fractional": ("hev", {"group_bits": 20.5}),
    "rsa_bits float": ("bsv", {"rsa_bits": 64.0}),
    "replay_voters float": ("bsv", {"replay_voters": [1.0]}),
    "hev votes float": ("hev", {"votes": [1.0, 0, 1]}),
    "hev votes bool": ("hev", {"votes": [True, 0, 1]}),
    "extra_vote_value fractional": ("hev", {"extra_vote_value": 2.5, "behavior": "extra_vote",
                                            "p_fail": 1.0}),
    "one-round signing window": ("bsv", {"schedule": {"sign_window": [1, 2],
                                                      "post_window": [3, 5],
                                                      "anonymize": True, "delivery_salt": 0}}),
    "one-item posting window": ("hev", {"schedule": {"sign_window": [1, 3], "post_window": [3],
                                                     "anonymize": True, "delivery_salt": 0}}),
    "float signing window": ("bsv", {"schedule": {"sign_window": [1.0, 3], "post_window": [3, 5],
                                                  "anonymize": True, "delivery_salt": 0}}),
    "bool posting window": ("hev", {"schedule": {"sign_window": [0, 1], "post_window": [True, 5],
                                                 "anonymize": True, "delivery_salt": 0}}),
    "string anonymize": ("bsv", {"schedule": {"sign_window": [1, 3], "post_window": [3, 5],
                                              "anonymize": "no", "delivery_salt": 0}}),
    "string delivery_salt": ("bsv", {"schedule": {"sign_window": [1, 3], "post_window": [3, 5],
                                                  "anonymize": True, "delivery_salt": "0"}}),
    "bool delivery_salt": ("bsv", {"schedule": {"sign_window": [1, 3], "post_window": [3, 5],
                                                "anonymize": True, "delivery_salt": True}}),
    "bool p_fail": ("hev", {"p_fail": True}),
    "string p_fail": ("hevs", {"p_fail": "0.1"}),
}


@pytest.mark.parametrize("protocol, fields", BAD_HEADERS.values(), ids=BAD_HEADERS)
def test_replay_reports_an_invalid_header_as_corrupt(protocol, fields):
    header = ElectionConfig(protocol=protocol, n=3, rsa_bits=64).to_dict()
    header.update(fields)
    with pytest.raises(CorruptTranscript, match="unreadable header"):
        replay([f"votesim-transcript 1 {json.dumps(header)}"])


def test_config_validation():
    with pytest.raises(ConfigError):
        ElectionConfig(protocol="mystery", n=3)
    with pytest.raises(ConfigError):
        ElectionConfig(protocol="hev", n=0)
    with pytest.raises(ConfigError):
        ElectionConfig(protocol="hev", n=3, votes=(1, 0))
    with pytest.raises(ConfigError):
        ElectionConfig(protocol="hev", n=2, votes=(1, 2))
    with pytest.raises(ConfigError):
        ElectionConfig(protocol="bsv", n=2, p_fail=0.5)
    with pytest.raises(ConfigError):
        ElectionConfig(protocol="bsv", n=2, replay_voters=(5,))
    with pytest.raises(ConfigError):
        ElectionConfig(protocol="hev", n=2, p_fail=1.5)
    with pytest.raises(ConfigError):
        Schedule(sign_window=(1, 4), post_window=(3, 5))
    with pytest.raises(ConfigError):
        Schedule(sign_window=(1,))
    with pytest.raises(ConfigError):
        Schedule(post_window=(3.0, 5))
    with pytest.raises(ConfigError):
        Schedule(sign_window=(False, 3))
    with pytest.raises(ConfigError):
        Schedule(anonymize="no")
    with pytest.raises(ConfigError):
        Schedule(delivery_salt=True)
    with pytest.raises(ConfigError):
        ElectionConfig(protocol="hev", n=2, p_fail=True)
    with pytest.raises(ConfigError):
        ElectionConfig(protocol="hevs", n=2, p_fail="0.5")
    with pytest.raises(ConfigError):
        ElectionConfig(protocol="bsv", n=2, candidates=("a\tb", "c"), votes=("c", "c"))
    # votes, candidates and replay_voters must be tuples, as from_dict makes
    # them: a str or list config would not hash or replay to an equal one
    for bad in (dict(protocol="bsv", n=2, votes="ab", candidates=("a", "b")),
                dict(protocol="bsv", n=2, votes=["a", "b"], candidates=("a", "b")),
                dict(protocol="bsv", n=2, candidates=["a", "b"]),
                dict(protocol="bsv", n=2, candidates="ab"),
                dict(protocol="bsv", n=2, replay_voters=[1]),
                dict(protocol="hev", n=2, votes=[1, 0])):
        with pytest.raises(ConfigError, match="must be a tuple"):
            ElectionConfig(**bad)
    # a schedule that is not a Schedule failed later with AttributeError:
    # None once transcript_lines read it, a dict at bsv's window check
    schedule = Schedule().__dict__
    for bad in (dict(protocol="hev", n=2, schedule=None),
                dict(protocol="bsv", n=2, schedule=schedule),
                dict(protocol="hevs", n=2, k=2, schedule=schedule)):
        with pytest.raises(ConfigError, match="schedule must be a Schedule"):
            ElectionConfig(**bad)


def test_config_roundtrips_through_dict():
    config = ElectionConfig(protocol="hevs", n=5, k=3, seed=4, p_fail=0.3,
                            t_policy="sqrt", votes=(1, 0, 1, 1, 0))
    assert ElectionConfig.from_dict(config.to_dict()) == config


def test_config_dict_matches_asdict():
    configs = [
        ElectionConfig(protocol="hevs", n=5, k=3, seed=4, p_fail=0.3,
                       t_policy="sqrt", votes=(1, 0, 1, 1, 0)),
        ElectionConfig(protocol="bsv", n=4, replay_voters=(2, 3), group_bits=24,
                       schedule=Schedule(sign_window=(0, 2), post_window=(4, 9),
                                         anonymize=False, delivery_salt=7)),
    ]
    for config in configs:
        assert config.to_dict() == dataclasses.asdict(config)


@st.composite
def hevs_configs(draw):
    n = draw(st.integers(2, 10))
    return ElectionConfig(
        protocol="hevs", n=n, k=draw(st.integers(2, 6)),
        t_policy=draw(st.one_of(st.integers(1, n), st.sampled_from(("half", "sqrt")))),
        p_fail=draw(st.sampled_from((0.0, 0.2, 0.5))), seed=draw(st.integers(0, 2**32)),
        behavior=draw(st.sampled_from(("fake_share", "silent", "extra_vote"))),
        group_bits=draw(st.one_of(st.none(), st.integers(16, 24))))


def _round_trip(config):
    outcome = run_election(config)
    lines = transcript_lines(outcome)
    return outcome, lines, replay(lines)


# An honest voter refuses a sample whose aggregate is its own ballot. In
# these the refusing voter is voter 2, then voter 3 at sample 1, while a
# later voter is in some sample: its shares must stay out of the transcript.
@example(ElectionConfig(protocol="hevs", n=3, k=2, t_policy=3, seed=28104, votes=(0, 1, 0),
                        group_bits=16))
@example(ElectionConfig(protocol="hevs", n=4, k=3, t_policy=4, seed=3863, votes=(0,) * 4,
                        p_fail=0.4, group_bits=16))
@example(ElectionConfig(protocol="hevs", n=4, k=3, t_policy=4, seed=9776, votes=(0,) * 4,
                        p_fail=0.4, group_bits=16))
@settings(max_examples=30, deadline=None)
@given(config=hevs_configs())
def test_a_pooled_hevs_election_is_the_one_its_voters_make_in_turn(config):
    pooled = []
    real_pooled = pool._pooled

    def counting_pooled(fn, *args):
        pooled.append(fn)
        return real_pooled(fn, *args)

    with pytest.MonkeyPatch.context() as patch:
        # every voter acts alone and in turn, as in the protocol
        patch.setattr(hevs, "run_pipeline", sampled_pipeline)
        expected = _round_trip(config)
        patch.undo()
        patch.setattr(pool, "POOL_MIN_EXPS", math.inf)
        assert _round_trip(config) == expected
        patch.setattr(pool, "POOL_MIN_EXPS", 0)
        patch.setattr(pool, "POOL_FORK_EXPS", 0)
        patch.setattr(pool, "_pooled", counting_pooled)
        assert _round_trip(config) == expected
    # both phases, in the run and in the replay, when there is a second CPU
    assert len(pooled) == (4 if len(os.sched_getaffinity(0)) > 1 else 0)


@st.composite
def bsv_configs(draw):
    n = draw(st.integers(2, 40))
    return ElectionConfig(
        protocol="bsv", n=n, seed=draw(st.integers(0, 2**32)),
        rsa_bits=draw(st.sampled_from((128, 256, 512))),
        replay_voters=tuple(draw(st.lists(st.integers(1, n), max_size=3))))


@contextlib.contextmanager
def _bsv_signing(where):
    """Inside the block a bsv election's signing phase runs on the pool
    (where == "pooled"; the phase's jobs are listed in the yielded list) or
    in this process (where == "here")."""
    pooled, real_pooled = [], pool._pooled

    def counting_pooled(fn, *args):
        pooled.append(fn)
        return real_pooled(fn, *args)

    with pytest.MonkeyPatch.context() as patch:
        if where == "here":
            patch.setattr(pool, "POOL_MIN_EXPS", math.inf)
        else:
            patch.setattr(pool, "POOL_MIN_EXPS", 0)
            patch.setattr(pool, "POOL_FORK_EXPS", 0)
            patch.setattr(pool, "_pooled", counting_pooled)
        yield pooled


@settings(max_examples=30, deadline=None)
@given(config=bsv_configs())
def test_a_pooled_bsv_election_is_the_one_signed_in_turn(config):
    with _bsv_signing("here"):
        expected = _round_trip(config)
    with _bsv_signing("pooled") as pooled:
        outcome, lines, replayed = _round_trip(config)
    assert outcome == expected[0] and outcome.ledger_dump == expected[0].ledger_dump
    assert "\n".join(lines).encode() == "\n".join(expected[1]).encode()
    assert replayed == expected[2]
    # the signing phase, in the run and in the replay, when there is a second CPU
    assert len(pooled) == (2 if len(os.sched_getaffinity(0)) > 1 else 0)


def test_a_pooled_bsv_replay_names_each_edited_ballot_signature_as_in_process():
    config = ElectionConfig(protocol="bsv", n=6, seed=6, rsa_bits=512, replay_voters=(2,))
    lines = lines_for(config)
    n = int(payload_of(lines[1])["modulus"], 16)
    records = {index: payload_of(line)
               for index, line in enumerate(lines) if line.startswith("post\t")}
    for index, record in records.items():
        other = next(p["signature"] for p in records.values() if p["nonce"] != record["nonce"])
        edits = {
            "signature + n": lambda p: p.update(signature=format(int(p["signature"], 16) + n, "x")),
            "another voter's signature": lambda p: p.update(signature=other),
        }
        for name, edit in edits.items():
            tampered = list(lines)
            tampered[index] = edit_payload(lines[index], edit)
            errors = {}
            for where in ("here", "pooled"):
                with _bsv_signing(where) as pooled, pytest.raises(CorruptTranscript) as caught:
                    replay(tampered)
                errors[where] = str(caught.value)
            assert len(pooled) == (1 if len(os.sched_getaffinity(0)) > 1 else 0), name
            assert errors["pooled"] == errors["here"], name
            assert errors["here"].endswith(f"at line {index + 1}"), name


GOLDEN = {path.stem: path.read_text(encoding="utf-8").splitlines()
          for path in sorted((Path(__file__).resolve().parent / "data").glob("*.transcript"))}
MAGIC = TRANSCRIPT_MAGIC + " "


def _is_int(value) -> bool:
    return type(value) is int


def _sample_size(policy, n: int):
    """t for a known t_policy at n, else None; hevs.resolve_sample_size, restated."""
    half = (n + 1) // 2
    sizes = {"half": half, "sqrt": math.isqrt(n - 1) + 1, "sqrt-half": math.isqrt(half - 1) + 1}
    if policy is None or type(policy) is str:
        return sizes.get(policy or "half")
    return policy if _is_int(policy) and policy >= 1 else None


def _window(value) -> bool:
    return type(value) is list and len(value) == 2 and all(map(_is_int, value)) and value[0] < value[1]


#: each header field's rule, whatever the protocol: (value, header) -> holds; a
#: rule reads only fields whose rules come before it
FIELD_RULES = {
    "protocol": lambda v, h: v in ("hev", "hevs", "bsv"),
    "n": lambda v, h: _is_int(v) and 1 <= v <= 65535,
    "k": lambda v, h: _is_int(v) and 1 <= v <= 65535,
    "t_policy": lambda v, h: (t := _sample_size(v, h["n"])) is not None and t <= 65535
    and h["k"] * t <= 2 ** 24,
    "min_consistency": lambda v, h: _is_int(v) and 2 <= v <= h["k"],
    "seed": lambda v, h: _is_int(v),
    "votes": lambda v, h: v is None or type(v) is list,
    "candidates": lambda v, h: type(v) is list and v != [] and all(
        type(c) is str and c != "" and not set(c) & set("\t\n\r") for c in v),
    "p_fail": lambda v, h: type(v) in (int, float) and 0 <= v <= 1,
    "behavior": lambda v, h: v in tuple(b.value for b in Behavior),
    "extra_vote_value": lambda v, h: _is_int(v),
    "group_bits": lambda v, h: v is None or _is_int(v) and 16 <= v <= 4096,
    "rsa_bits": lambda v, h: _is_int(v) and 16 <= v <= 4096,
    "replay_voters": lambda v, h: type(v) is list and all(_is_int(i) and 1 <= i <= h["n"] for i in v),
    "schedule": lambda v, h: type(v) is dict and set(v) == set(SCHEDULE_RULES) and all(
        rule(v[name], v) for name, rule in SCHEDULE_RULES.items()),
}
SCHEDULE_RULES = {
    "sign_window": lambda v, s: _window(v) and v[1] - v[0] >= 2,
    "post_window": lambda v, s: _window(v) and _window(s["sign_window"])
    and s["sign_window"][1] <= v[0],
    "anonymize": lambda v, s: type(v) is bool,
    "delivery_salt": lambda v, s: _is_int(v),
}


def _header_holds(h) -> bool:
    """The key sets, every field's rule, then the three relations that
    depend on the protocol: the votes' values and bsv's p_fail."""
    if set(h) != set(FIELD_RULES) or not all(
            rule(h[name], h) for name, rule in FIELD_RULES.items()):
        return False
    votes, bsv_election = h["votes"], h["protocol"] == "bsv"
    if votes is not None and (len(votes) != h["n"] or not all(
            v in h["candidates"] if bsv_election else _is_int(v) and v in (0, 1) for v in votes)):
        return False
    return not (bsv_election and h["p_fail"])


def _replay_header(lines, header):
    """replay of lines under this header: (its CorruptTranscript or None, the
    configs run_election was called with). The spy runs no election, as a
    header at a size bound may ask for one that takes minutes."""
    runs = []

    def spy(config, **_):
        runs.append(config)
        return ElectionOutcome(config=config, ok=False)

    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet, "run_election", spy)
        try:
            replay([MAGIC + text, *lines[1:]])
        except CorruptTranscript as exc:
            return exc, runs
    return None, runs


def _header(lines):
    return json.loads(lines[0][len(MAGIC):])


def _as_header(config):
    return json.loads(json.dumps(config.to_dict()))


#: header edits that break a rule under every protocol
BROKEN_HEADERS = {
    **{f"{field}={value}": (lambda h, f=field, v=value: h.update({f: v}))
       for field, value in (("rsa_bits", 1), ("k", 0), ("k", -5), ("min_consistency", 99),
                            ("t_policy", "bogus"), ("t_policy", [1, 2]), ("candidates", []),
                            ("replay_voters", [99]))},
    "no seed": lambda h: h.pop("seed"),
    "extra top-level key": lambda h: h.update(extra=1),
    "no schedule key": lambda h: h["schedule"].pop("anonymize"),
    "extra schedule key": lambda h: h["schedule"].update(extra=1),
    "one-round signing window": lambda h: h["schedule"].update(sign_window=[1, 2]),
}


@pytest.mark.parametrize("edit", BROKEN_HEADERS.values(), ids=BROKEN_HEADERS)
def test_a_broken_header_is_unreadable_before_any_run(edit):
    for name, lines in GOLDEN.items():
        header = _header(lines)
        assert _header_holds(header), name
        edit(header)
        assert not _header_holds(header), name
        error, runs = _replay_header(lines, header)
        assert runs == [], name
        assert str(error).startswith("unreadable header: "), name


#: a value of each JSON type, bools, 0, -1, each bound and one past it, 10**40
EDIT_VALUES = st.sampled_from([
    0, -1, 1, 2, 3, 4, 15, 16, 17, 4096, 4097, 65535, 65536, 2 ** 24, 2 ** 24 + 1, 10 ** 40,
    True, False, None, 0.5, 1.0, "", "x", "half", "sqrt", "sqrt-half", "a\tb", "for",
    [], [1], [0, 1], [1, 3], [3, 5], [1, 2, 3], [0, 1, 1], ["for"], [[1]], {}, {"a": 1},
])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_header_edit_replays_or_is_unreadable_by_the_rules(data):
    # one edit per example, at the top level or in schedule: a value replaced,
    # a key deleted or a key added
    lines = GOLDEN[data.draw(st.sampled_from(sorted(GOLDEN)), label="transcript")]
    header = _header(lines)
    target = header if data.draw(st.booleans(), label="top level") else header["schedule"]
    edit = data.draw(st.sampled_from(["replace", "delete", "add"]), label="edit")
    key = data.draw(st.sampled_from(sorted(target)) if edit != "add"
                    else st.sampled_from(["extra", "Seed", "t"]), label="key")
    if edit == "delete":
        del target[key]
    else:
        # near the header's own values too: k, k + 1, n + 1
        nearby = st.sampled_from([header["k"], header["k"] + 1, header["n"] + 1])
        target[key] = data.draw(EDIT_VALUES | nearby, label="value")
    error, runs = _replay_header(lines, header)
    if _header_holds(header):
        # the re-run is the spy's empty election, which cannot match
        assert [_as_header(config) for config in runs] == [header]
        assert "unreadable" not in str(error)
    else:
        assert runs == []
        assert str(error).startswith("unreadable header: ")


def test_import_votesim_leaves_the_sweep_harness_unloaded():
    script = "import sys, votesim; print('votesim.experiments' in sys.modules)"
    env = dict(os.environ)
    src = str(Path(simnet.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
