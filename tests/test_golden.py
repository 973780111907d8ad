"""Golden transcripts: seeded elections compared byte for byte with pinned files.

``replay`` only checks the code against itself, so a change in how a protocol
consumes randomness would pass it. These fixtures were written by an earlier
build; a run must reproduce every transcript byte and every outcome field.
``rsa_keys.json`` likewise pins seeded ``signer_keygen`` keys and
``generate_group`` parameters over a grid of sizes.

After a deliberate change to seeded output, rewrite the fixtures with
``PYTHONPATH=src python tests/test_golden.py`` and say so in the change.
"""

from __future__ import annotations

import json
from pathlib import Path

import random

import pytest

from votesim.bsv import signer_keygen
from votesim.group import generate_group
from votesim.simnet import ElectionConfig, run_election, transcript_lines

DATA = Path(__file__).resolve().parent / "data"
OUTCOMES = DATA / "outcomes.json"
KEY_PIN = DATA / "rsa_keys.json"

#: modulus sizes and rng seeds of the pinned signer keys and groups
KEY_BITS = (16, 17, 33, 128, 256, 512)
GROUP_BITS = (16, 24, 32)
PIN_SEEDS = (1, 2, 3, 4)

#: name -> (config, error the case must exercise, or None for a clean run)
CASES = {
    "hev_n4": (ElectionConfig(protocol="hev", n=4, seed=1), None),
    "hev_n1": (ElectionConfig(protocol="hev", n=1, seed=1), None),
    "hev_silent": (ElectionConfig(protocol="hev", n=4, seed=2, p_fail=0.5,
                                  behavior="silent"), "missing_shares"),
    "hev_fake_share": (ElectionConfig(protocol="hev", n=4, seed=2, p_fail=0.5,
                                      behavior="fake_share"), "discrete_log_not_found"),
    "hev_extra_vote": (ElectionConfig(protocol="hev", n=4, seed=4, p_fail=0.5,
                                      behavior="extra_vote"), None),
    "hevs_n8_k4": (ElectionConfig(protocol="hevs", n=8, k=4, seed=5, p_fail=0.3), None),
    "bsv_n3": (ElectionConfig(protocol="bsv", n=3, seed=1, rsa_bits=256), None),
    # An honest voter refuses a request whose aggregate is its own ciphertext,
    # so these pin the partial transcript of a refused election.
    "hev_refused_n2": (ElectionConfig(protocol="hev", n=2, seed=20058, votes=(1, 0),
                                      group_bits=16), "refuse_singleton_aggregate"),
    "hev_refused_n3": (ElectionConfig(protocol="hev", n=3, seed=2535, votes=(0, 1, 0),
                                      group_bits=16), "refuse_singleton_aggregate"),
    "hevs_refused_n3": (ElectionConfig(protocol="hevs", n=3, k=2, t_policy=3, seed=28104,
                                       votes=(0, 1, 0), group_bits=16),
                        "refuse_singleton_aggregate"),
}

OUTCOME_FIELDS = ("ok", "tally", "decision", "counts", "sample_tallies", "true_tally",
                  "error", "error_detail", "ledger_dump")


def transcript_text(outcome) -> str:
    return "".join(line + "\n" for line in transcript_lines(outcome))


def outcome_fields(outcome) -> dict:
    # Through JSON, so tuples compare equal to the lists read back from the file.
    return json.loads(json.dumps({name: getattr(outcome, name) for name in OUTCOME_FIELDS}))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    config, error = CASES[name]
    outcome = run_election(config)
    assert outcome.error == error
    assert transcript_text(outcome) == (DATA / f"{name}.transcript").read_text(encoding="utf-8")
    assert outcome_fields(outcome) == json.loads(OUTCOMES.read_text(encoding="utf-8"))[name]


def pinned_keys() -> dict:
    """Seeded signer keys as (modulus, public_exponent, private_exponent) and
    groups as (modulus, order, generator), per size and seed."""
    rsa = {}
    for bits in KEY_BITS:
        for seed in PIN_SEEDS:
            keys = signer_keygen(random.Random(seed), bits)
            rsa[f"bits{bits}_seed{seed}"] = [keys.modulus, keys.public_exponent, keys.private_exponent]
    groups = {}
    for bits in GROUP_BITS:
        for seed in PIN_SEEDS:
            params = generate_group(bits, random.Random(seed))
            groups[f"bits{bits}_seed{seed}"] = [params.modulus, params.order, params.generator]
    return {"signer_keygen": rsa, "generate_group": groups}


def pinned_keys_text() -> str:
    return json.dumps(pinned_keys(), indent=1, sort_keys=True) + "\n"


def test_keygen_and_groups_are_pinned():
    # one 256-bit key in the bsv transcript is the only other pin on keygen
    assert pinned_keys_text() == KEY_PIN.read_text(encoding="utf-8")


def write_fixtures() -> None:
    DATA.mkdir(exist_ok=True)
    outcomes = {}
    for name, (config, _) in sorted(CASES.items()):
        outcome = run_election(config)
        (DATA / f"{name}.transcript").write_text(transcript_text(outcome), encoding="utf-8")
        outcomes[name] = outcome_fields(outcome)
    OUTCOMES.write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    KEY_PIN.write_text(pinned_keys_text(), encoding="utf-8")


if __name__ == "__main__":
    write_fixtures()
