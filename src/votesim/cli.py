"""Command-line front end.

Subcommands: hev-run, hevs-run, bsv-run, sweep, analytic, replay. Results go
to stdout (or --out); the resolved configuration is echoed to stderr before
anything executes. Exit codes: 0 success, 2 usage error, 3 bad config or
I/O, 4 protocol failure. Identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments, simnet
from .errors import ConfigError, CorruptTranscript, ProtocolError, VotesimError
from .hevs import reliability_probability


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part != "")

def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part != "")

def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part != "")

def _t_policy(text: str):
    return int(text) if text.lstrip("-").isdigit() else text

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

def _bool(text: str) -> bool:
    """A config-file switch: 1/0, true/false or yes/no, in any case."""
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ValueError(f"expected 1/0, true/false or yes/no, got {text!r}") from None

def _int_range(text: str) -> tuple[int, ...]:
    """A single integer, a comma list, or lo:hi[:step] (hi inclusive)."""
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ValueError(f"bad range {text!r}")
        return tuple(range(lo, hi + 1, step))
    return _int_list(text)


def _read_lines(path: str, error: type[Exception]) -> list[str]:
    """The lines of a UTF-8 text file; raises `error` when it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc}") from exc


def _read_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines, '#' comments; keys mirror the flag names."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read_lines(path, ConfigError), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, defaults: dict, parsers: dict) -> dict:
    """Merge precedence: defaults < config file < explicit flags."""
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = _read_config_file(config_path)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, text in file_values.items():
            try:
                resolved[key] = parsers.get(key, str)(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _echo_config(resolved: dict) -> None:
    print("config " + json.dumps(resolved, sort_keys=True, default=str), file=sys.stderr)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _outcome_or_fail(config: simnet.ElectionConfig) -> simnet.ElectionOutcome:
    outcome = simnet.run_election(config)
    if not outcome.ok:
        raise ProtocolError(f"{outcome.error}: {outcome.error_detail}")
    return outcome


def _result_text(outcome: simnet.ElectionOutcome) -> str:
    """The result lines of a run subcommand; replay prints the same lines."""
    if outcome.config.protocol == "hev":
        return f"tally {outcome.tally}\n"
    if outcome.config.protocol == "hevs":
        samples = ",".join("-" if t is None else str(t) for t in outcome.sample_tallies)
        return f"samples {samples}\ndecision {outcome.decision}\n"
    return "".join(f"tally {name} {count}\n" for name, count in sorted(outcome.counts.items()))


def _cmd_hev_run(args) -> int:
    """hev-run, and hevs-run with its sampling settings on top."""
    sampled = args.command == "hevs-run"
    defaults = {
        "n": 10 if sampled else 3, "seed": 1, "votes": None, "p_fail": 0.0,
        "behavior": "fake_share", "extra_value": 2, "group_bits": None,
        "transcript_out": None, "out": None,
    }
    if sampled:
        defaults.update(k=6, t=None, min_consistency=2)
    parsers = {"n": int, "seed": int, "votes": _int_list, "k": int, "t": _t_policy,
               "min_consistency": int, "p_fail": float, "extra_value": int, "group_bits": int}
    resolved = _resolve(args, defaults, parsers)
    _echo_config(resolved)
    sampling = {"k": resolved["k"], "t_policy": resolved["t"],
                "min_consistency": resolved["min_consistency"]} if sampled else {}
    config = simnet.ElectionConfig(
        protocol="hevs" if sampled else "hev", n=resolved["n"], seed=resolved["seed"],
        votes=resolved["votes"], p_fail=resolved["p_fail"], behavior=resolved["behavior"],
        extra_vote_value=resolved["extra_value"], group_bits=resolved["group_bits"], **sampling,
    )
    outcome = _outcome_or_fail(config)
    if resolved["transcript_out"]:
        simnet.write_transcript(outcome, resolved["transcript_out"])
    _write_output(_result_text(outcome), resolved["out"])
    return 0


def _cmd_bsv_run(args) -> int:
    defaults = {
        "n": 5, "seed": 1, "votes": None, "candidates": ("for", "against"),
        "replay_voters": (), "rsa_bits": 512, "no_anonymize": False,
        "ledger_out": None, "transcript_out": None, "out": None,
    }
    parsers = {"n": int, "seed": int, "votes": _str_list, "candidates": _str_list,
               "replay_voters": _int_list, "rsa_bits": int,
               "no_anonymize": _bool}
    resolved = _resolve(args, defaults, parsers)
    _echo_config(resolved)
    schedule = simnet.Schedule(anonymize=not resolved["no_anonymize"])
    config = simnet.ElectionConfig(
        protocol="bsv", n=resolved["n"], seed=resolved["seed"], votes=resolved["votes"],
        candidates=tuple(resolved["candidates"]), rsa_bits=resolved["rsa_bits"],
        replay_voters=tuple(resolved["replay_voters"]), schedule=schedule,
    )
    outcome = _outcome_or_fail(config)
    if resolved["transcript_out"]:
        simnet.write_transcript(outcome, resolved["transcript_out"])
    if resolved["ledger_out"]:
        with open(resolved["ledger_out"], "w", encoding="utf-8") as fh:
            for line in outcome.ledger_dump:
                fh.write(line + "\n")
    _write_output(_result_text(outcome), resolved["out"])
    return 0


def _cmd_sweep(args) -> int:
    defaults = {
        "n": (50,), "p_fail": (0.01,), "k": (6,), "min_consistency": 2,
        "t": "sqrt-half", "trials": 1000, "seeds": (1, 2, 3),
        "mode": "symbolic", "behavior": "fake_share", "out": None,
    }
    parsers = {"n": _int_list, "p_fail": _float_list, "k": _int_list,
               "min_consistency": int, "t": _t_policy, "trials": int,
               "seeds": _int_list, "mode": str, "behavior": str}
    resolved = _resolve(args, defaults, parsers)
    _echo_config(resolved)
    try:
        configs = experiments.grid(
            resolved["n"], resolved["p_fail"], resolved["k"],
            min_consistency=resolved["min_consistency"], t_policy=resolved["t"],
            trials=resolved["trials"], seeds=tuple(resolved["seeds"]),
            mode=resolved["mode"], behavior=resolved["behavior"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = experiments.run_sweep(configs)
    _write_output(experiments.sweep_csv(rows), resolved["out"])
    return 0


def _cmd_analytic(args) -> int:
    defaults = {"n": (50,), "m": (5,), "t": 25, "out": None}
    parsers = {"n": _int_range, "m": _int_range, "t": int}
    resolved = _resolve(args, defaults, parsers)
    _echo_config(resolved)
    ns, ms, t = resolved["n"], resolved["m"], resolved["t"]
    try:
        if len(ns) == 1 and len(ms) == 1:
            value = reliability_probability(ns[0], ms[0], t)
            _write_output(experiments.format_number(value) + "\n", resolved["out"])
        else:
            rows = experiments.analytic_table(ns, ms, t)
            _write_output(experiments.analytic_csv(rows), resolved["out"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return 0


def _cmd_replay(args) -> int:
    outcome = simnet.replay(_read_lines(args.transcript, CorruptTranscript))
    print(f"replay ok records={len(outcome.transcript)}")
    sys.stdout.write(_result_text(outcome))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votesim",
        description="Simulators for blind-signature and homomorphic-encryption voting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value file; flags override it")
        p.add_argument("--seed", type=int, help="rng seed [default: 1]")
        p.add_argument("--out", help="write results here instead of stdout")

    def add_hev_flags(p, n_default, sampled=False):
        """The hev-run and hevs-run flags; hevs-run adds its sampling flags after --votes."""
        p.add_argument("--n", type=int, help=f"number of voters [default: {n_default}]")
        p.add_argument("--votes", type=_int_list, help="comma list of 0/1 honest votes [default: random]")
        if sampled:
            p.add_argument("--k", type=int, help="number of samplings [default: 6]")
            p.add_argument("--t", type=_t_policy,
                           help="sample size: integer, half, sqrt, sqrt-half [default: half]")
            p.add_argument("--min-consistency", dest="min_consistency", type=int,
                           help="required mode count [default: 2]")
        p.add_argument("--p-fail", dest="p_fail", type=float, help="malicious probability [default: 0]")
        p.add_argument("--behavior", choices=["fake_share", "silent", "extra_vote"],
                       help="malicious behavior [default: fake_share]")
        p.add_argument("--extra-value", dest="extra_value", type=int,
                       help="vote value for extra_vote cheaters [default: 2]")
        p.add_argument("--group-bits", dest="group_bits", type=int,
                       help="generate a fresh group of this modulus size [default: pinned 257-bit group]")
        p.add_argument("--transcript-out", dest="transcript_out", help="write the transcript here")

    p = sub.add_parser("hev-run", help="one homomorphic election, all voters keyed")
    add_common(p)
    add_hev_flags(p, 3)
    p.set_defaults(func=_cmd_hev_run)

    p = sub.add_parser("hevs-run", help="one sampled-key election with mode decision")
    add_common(p)
    add_hev_flags(p, 10, sampled=True)
    p.set_defaults(func=_cmd_hev_run)

    p = sub.add_parser("bsv-run", help="one blind-signature election over the ledger")
    add_common(p)
    p.add_argument("--n", type=int, help="number of voters [default: 5]")
    p.add_argument("--votes", type=_str_list, help="comma list of candidate choices [default: random]")
    p.add_argument("--candidates", type=_str_list, help="candidate set [default: for,against]")
    p.add_argument("--replay-voters", dest="replay_voters", type=_int_list,
                   help="voter ids that submit their ballot twice [default: none]")
    p.add_argument("--rsa-bits", dest="rsa_bits", type=int, help="signer modulus size [default: 512]")
    p.add_argument("--no-anonymize", dest="no_anonymize", action="store_true", default=None,
                   help="keep sender ids on posted ballots [default: anonymized]")
    p.add_argument("--ledger-out", dest="ledger_out", help="write the accepted-ballot dump here")
    p.add_argument("--transcript-out", dest="transcript_out", help="write the transcript here")
    p.set_defaults(func=_cmd_bsv_run)

    p = sub.add_parser("sweep", help="Monte Carlo accuracy sweep, CSV output")
    add_common(p)
    p.add_argument("--n", type=_int_list, help="voter counts [default: 50]")
    p.add_argument("--p-fail", dest="p_fail", type=_float_list,
                   help="malicious probabilities [default: 0.01]")
    p.add_argument("--k", type=_int_list, help="sampling counts [default: 6]")
    p.add_argument("--min-consistency", dest="min_consistency", type=int,
                   help="required mode count, at least 2 [default: 2]")
    p.add_argument("--t", type=_t_policy,
                   help="sample size policy [default: sqrt-half]")
    p.add_argument("--trials", type=int, help="trials per point per seed [default: 1000]")
    p.add_argument("--seeds", type=_int_list, help="seeds to average over [default: 1,2,3]")
    p.add_argument("--mode", choices=["symbolic", "full"],
                   help="trial evaluation mode [default: symbolic]")
    p.add_argument("--behavior", choices=["fake_share", "silent"],
                   help="malicious behavior [default: fake_share]")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("analytic", help="single-sample reliability probabilities")
    add_common(p)
    p.add_argument("--n", type=_int_range, help="electorate size(s), int/list/lo:hi[:step] [default: 50]")
    p.add_argument("--m", type=_int_range, help="uncooperative count(s) [default: 5]")
    p.add_argument("--t", type=int, help="sample size [default: 25]")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("replay", help="re-run a transcript and verify it matches")
    p.add_argument("transcript", help="transcript file produced by --transcript-out")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error config: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error io: {exc}", file=sys.stderr)
        return 3
    except (ProtocolError, CorruptTranscript) as exc:
        print(f"error protocol: {exc}", file=sys.stderr)
        return 4
    except VotesimError as exc:
        print(f"error config: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
