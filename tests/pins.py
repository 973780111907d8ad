"""The seeded draws pinned in tests/data: per-trial symbolic outcomes,
sampling plans and role draws.

The pins rest on CPython's getrandbits word order and on how random() is
built, so they are checked on every supported Python. This script needs only
votesim and the standard library:

    PYTHONPATH=src python tests/pins.py --check   # exit 1 if a pin file differs
    PYTHONPATH=src python tests/pins.py           # rewrite the pin files

Rewrite them only after a deliberate change to the seeded draws.
"""

import argparse
import json
import sys
from pathlib import Path

from votesim.adversary import Behavior, assign_roles
from votesim.experiments import TrialConfig, run_trial
from votesim.hevs import make_sampling_plan
from votesim.seeding import derive_seed, spawn

#: per-trial outcomes, sampling plans and roles written by an earlier build
TRIAL_PIN = Path(__file__).resolve().parent / "data" / "symbolic_trials.json"

#: name -> symbolic grid point whose per-trial outcomes are pinned
PINNED_POINTS = {
    "n50_p0.25_k8_fake": TrialConfig(n=50, p_fail=0.25, k=8),
    "n200_p0.2_k16_mc3_silent": TrialConfig(n=200, p_fail=0.2, k=16, min_consistency=3,
                                            behavior="silent"),
    "n12_p0.3_k4_silent": TrialConfig(n=12, p_fail=0.3, k=4, behavior="silent"),
    "n20_p0.05_k3_mc4_fake": TrialConfig(n=20, p_fail=0.05, k=3, min_consistency=4),
}
PINNED_TRIALS = 200


def pinned_draws() -> dict:
    """Per-trial symbolic outcomes, two sampling plans and one role draw."""
    trials = {
        name: "".join(str(int(run_trial(config, derive_seed("trial", 1, index))))
                      for index in range(PINNED_TRIALS))
        for name, config in PINNED_POINTS.items()
    }
    plans = {
        "seed1_n30_k5_sqrt-half": make_sampling_plan(spawn("plan-pin", 1), 30, 5, "sqrt-half"),
        "seed2_n7_k3_sizes1-4-7": make_sampling_plan(spawn("plan-pin", 2), 7, 3, [1, 4, 7]),
    }
    roles = assign_roles(spawn("roles-pin", 1), 20, 0.3, Behavior.SILENT)
    return {
        "trials": trials,
        "plans": {name: [list(ms) for ms in plan.multisets] for name, plan in plans.items()},
        "roles": [[r.voter_id, r.honest, r.behavior and r.behavior.value] for r in roles],
    }


def pinned_text() -> str:
    return json.dumps(pinned_draws(), indent=1, sort_keys=True) + "\n"


#: the same pins past a byte: plan indices of 9 bits, and electorates large
#: enough that honesty draws tie with the threshold's top byte (about 1 in 256)
WIDE_PIN = TRIAL_PIN.with_name("symbolic_trials_wide.json")

WIDE_POINTS = {
    "n300_p0.25_k8_t6_fake": TrialConfig(n=300, p_fail=0.25, k=8, t_policy=6),
    "n300_p0.125_k16_fake": TrialConfig(n=300, p_fail=0.125, k=16),
    "n500_p0.1_k8_silent": TrialConfig(n=500, p_fail=0.1, k=8, behavior="silent"),
    "n500_p0.25_k16_t6_mc3_fake": TrialConfig(n=500, p_fail=0.25, k=16, t_policy=6,
                                              min_consistency=3),
}


def wide_pinned_draws() -> dict:
    """Per-trial outcomes at n = 300 and 500, two plans there and two role draws,
    with each multiset and each role draw written as one string."""
    trials = {
        name: "".join(str(int(run_trial(config, derive_seed("trial", 1, index))))
                      for index in range(PINNED_TRIALS))
        for name, config in WIDE_POINTS.items()
    }
    plans = {
        "seed1_n300_k8_sqrt-half": make_sampling_plan(spawn("plan-pin-wide", 1), 300, 8, "sqrt-half"),
        "seed2_n500_k16_sqrt-half": make_sampling_plan(spawn("plan-pin-wide", 2), 500, 16, "sqrt-half"),
    }
    roles = {
        "seed1_n1000_p0.25_fake": assign_roles(spawn("roles-pin-wide", 1), 1000, 0.25),
        "seed2_n1000_p0.1_silent": assign_roles(spawn("roles-pin-wide", 2), 1000, 0.1, Behavior.SILENT),
    }
    return {
        "trials": trials,
        "plans": {name: [" ".join(map(str, ms)) for ms in plan.multisets]
                  for name, plan in plans.items()},
        "roles": {name: "".join("1" if r.honest else r.behavior.value[0] for r in draw)
                  for name, draw in roles.items()},
    }


def wide_pinned_text() -> str:
    return json.dumps(wide_pinned_draws(), indent=1, sort_keys=True) + "\n"


#: per-trial outcomes at each edge of a plan index's width: n = 1, 2 and 255
#: fit a byte, 256 to 4095 take 9 to 12 bits and 4096 to 65535 take 13 to 16
EDGE_PIN = TRIAL_PIN.with_name("symbolic_trials_edges.json")

EDGE_POINTS = {
    "n1_p0.5_k2": TrialConfig(n=1, p_fail=0.5, k=2),
    "n2_p0.3_k4_silent": TrialConfig(n=2, p_fail=0.3, k=4, behavior="silent"),
    "n255_p0.1_k8": TrialConfig(n=255, p_fail=0.1, k=8),
    "n256_p0.1_k8_t12_mc3": TrialConfig(n=256, p_fail=0.1, k=8, t_policy=12, min_consistency=3),
    "n511_p0.1_k16": TrialConfig(n=511, p_fail=0.1, k=16),
    "n1023_p0.05_k8_silent": TrialConfig(n=1023, p_fail=0.05, k=8, behavior="silent"),
    "n4095_p0.03_k8": TrialConfig(n=4095, p_fail=0.03, k=8),
    "n4096_p0.03_k8_t40": TrialConfig(n=4096, p_fail=0.03, k=8, t_policy=40),
    "n65535_p0.01_k16": TrialConfig(n=65535, p_fail=0.01, k=16),
}


def edge_pinned_text() -> str:
    trials = {
        name: "".join(str(int(run_trial(config, derive_seed("trial", 1, index))))
                      for index in range(PINNED_TRIALS))
        for name, config in EDGE_POINTS.items()
    }
    return json.dumps({"trials": trials}, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check or rewrite the pinned seeded draws.")
    parser.add_argument("--check", action="store_true",
                        help="compare with the pin files instead of rewriting them")
    check = parser.parse_args().check
    differing = []
    for path, text in ((TRIAL_PIN, pinned_text()), (WIDE_PIN, wide_pinned_text()),
                       (EDGE_PIN, edge_pinned_text())):
        if not check:
            path.write_text(text, encoding="utf-8")
        elif path.read_text(encoding="utf-8") != text:
            differing.append(path.name)
    if differing:
        sys.exit(f"the seeded draws differ from {', '.join(differing)}")
