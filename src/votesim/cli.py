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
from dataclasses import dataclass
from typing import Callable

from . import experiments, simnet
from .adversary import Behavior
from .errors import ConfigError, CorruptTranscript, ProtocolError, VotesimError
from .experiments import TRIAL_BEHAVIORS, TrialConfig
from .hevs import MAX_TRIAL_SIZE, reliability_probability
from .simnet import ElectionConfig, Schedule


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

def _size(name: str, listed: bool = True) -> Callable[[str], object]:
    """The parser of analytic's --name: an integer or, if listed, a tuple from
    a single integer, a comma list or lo:hi[:step] (hi inclusive). Each value
    must lie in [0, MAX_TRIAL_SIZE], a range's checked at its ends before its
    tuple is built. Else a ConfigError names the setting: argparse passes it
    on, so the command exits 3 before its config is echoed."""

    def size(text: str):
        if listed and ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) not in (2, 3):
                raise ValueError(f"bad range {text!r}")
            values = range(parts[0], parts[1] + 1, *parts[2:])
            ends = (values[0], values[-1]) if values else ()
        else:
            values = ends = _int_list(text) if listed else (int(text),)
        for value in ends:
            if not 0 <= value <= MAX_TRIAL_SIZE:
                raise ConfigError(f"{name} must be at least 0 and at most {MAX_TRIAL_SIZE}, got {value}")
        return tuple(values) if listed else values[0]
    return size


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


@dataclass(frozen=True)
class _Setting:
    """One CLI setting, declared once: flag, parser, default and help.

    Its config-file key is the flag's name with underscores. --help shows
    `shown` as its default, else the rendered default, and none for None. A
    setting parsed by `_bool` is a switch: the flag alone turns it on.
    """

    flag: str
    parse: Callable[[str], object] = str
    default: object = None
    help: str = ""
    shown: str | None = None
    choices: tuple[str, ...] | None = None

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        shown = self.shown
        if shown is None and self.default is not None:
            # 0.0 shows as 0, a tuple as a comma list
            values = self.default if isinstance(self.default, tuple) else (self.default,)
            shown = ",".join(format(v, "g") if isinstance(v, float) else str(v) for v in values)
        text = self.help if shown is None else f"{self.help} [default: {shown}]"
        if self.parse is _bool:
            parser.add_argument(self.flag, action="store_true", default=None, help=text)
        else:
            parser.add_argument(self.flag, type=self.parse, choices=self.choices, help=text)


def _resolve(args: argparse.Namespace, settings: tuple[_Setting, ...]) -> dict:
    """Merge precedence: defaults < config file < explicit flags."""
    by_key = {s.flag[2:].replace("-", "_"): s for s in settings}
    if args.seed is not None and "seed" not in by_key:
        hint = "; set the trial seeds with --seeds" if "seeds" in by_key else ""
        raise ConfigError(f"{args.command} does not use --seed{hint}")
    resolved = {key: s.default for key, s in by_key.items()}
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(by_key)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, text in file_values.items():
            try:
                resolved[key] = by_key[key].parse(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
    for key in by_key:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    return resolved


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _result_text(outcome: simnet.ElectionOutcome) -> str:
    """The result lines of a run subcommand; replay prints the same lines.
    A failed election has none: both raise the same ProtocolError instead."""
    if not outcome.ok:
        raise ProtocolError(f"{outcome.error}: {outcome.error_detail}")
    if outcome.config.protocol == "hev":
        return f"tally {outcome.tally}\n"
    if outcome.config.protocol == "hevs":
        samples = ",".join("-" if t is None else str(t) for t in outcome.sample_tallies)
        return f"samples {samples}\ndecision {outcome.decision}\n"
    return "".join(f"tally {name} {count}\n" for name, count in sorted(outcome.counts.items()))


def _run_election(config: ElectionConfig, resolved: dict) -> int:
    """Run one election; write its transcript (a failed one too, before it
    raises), any ledger dump and its result lines."""
    outcome = simnet.run_election(config)
    if resolved["transcript_out"]:
        simnet.write_transcript(outcome, resolved["transcript_out"])
    text = _result_text(outcome)
    if resolved.get("ledger_out"):
        with open(resolved["ledger_out"], "w", encoding="utf-8") as fh:
            for line in outcome.ledger_dump:
                fh.write(line + "\n")
    _write_output(text, resolved["out"])
    return 0


def _cmd_hev_run(resolved: dict) -> int:
    """hev-run, and hevs-run with its sampling settings on top."""
    sampled = "k" in resolved
    sampling = {"k": resolved["k"], "t_policy": resolved["t"],
                "min_consistency": resolved["min_consistency"]} if sampled else {}
    config = ElectionConfig(
        protocol="hevs" if sampled else "hev", n=resolved["n"], seed=resolved["seed"],
        votes=resolved["votes"], p_fail=resolved["p_fail"], behavior=resolved["behavior"],
        extra_vote_value=resolved["extra_value"], group_bits=resolved["group_bits"], **sampling,
    )
    return _run_election(config, resolved)


def _cmd_bsv_run(resolved: dict) -> int:
    schedule = Schedule(anonymize=not resolved["no_anonymize"])
    config = ElectionConfig(
        protocol="bsv", n=resolved["n"], seed=resolved["seed"], votes=resolved["votes"],
        candidates=tuple(resolved["candidates"]), rsa_bits=resolved["rsa_bits"],
        replay_voters=tuple(resolved["replay_voters"]), schedule=schedule,
    )
    return _run_election(config, resolved)


def _cmd_sweep(resolved: dict) -> int:
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


def _cmd_analytic(resolved: dict) -> int:
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


_SEED = _Setting("--seed", int, ElectionConfig.seed, "rng seed")
_OUT = _Setting("--out", help="write results here instead of stdout")
_TRANSCRIPT_OUT = _Setting("--transcript-out", help="write the transcript here")


def _hev_settings(n: int, sampled: bool) -> tuple[_Setting, ...]:
    """The hev-run and hevs-run settings; hevs-run adds its sampling settings after --votes."""
    sampling = (
        _Setting("--k", int, 6, "number of samplings"),
        _Setting("--t", _t_policy, ElectionConfig.t_policy,
                 "sample size: integer, half, sqrt, sqrt-half", shown="half"),
        _Setting("--min-consistency", int, ElectionConfig.min_consistency, "required mode count"),
    ) if sampled else ()
    return (
        _SEED, _OUT,
        _Setting("--n", int, n, "number of voters"),
        _Setting("--votes", _int_list, ElectionConfig.votes, "comma list of 0/1 honest votes",
                 shown="random"),
        *sampling,
        _Setting("--p-fail", float, ElectionConfig.p_fail, "malicious probability"),
        _Setting("--behavior", str, ElectionConfig.behavior, "malicious behavior",
                 choices=tuple(b.value for b in Behavior)),
        _Setting("--extra-value", int, ElectionConfig.extra_vote_value,
                 "vote value for extra_vote cheaters"),
        _Setting("--group-bits", int, ElectionConfig.group_bits,
                 "generate a fresh group of this modulus size", shown="pinned 257-bit group"),
        _TRANSCRIPT_OUT,
    )


#: name -> (help, handler, settings) for every subcommand that takes settings
_COMMANDS = {
    "hev-run": ("one homomorphic election, all voters keyed", _cmd_hev_run,
                _hev_settings(3, sampled=False)),
    "hevs-run": ("one sampled-key election with mode decision", _cmd_hev_run,
                 _hev_settings(10, sampled=True)),
    "bsv-run": ("one blind-signature election over the ledger", _cmd_bsv_run, (
        _SEED, _OUT,
        _Setting("--n", int, 5, "number of voters"),
        _Setting("--votes", _str_list, ElectionConfig.votes, "comma list of candidate choices",
                 shown="random"),
        _Setting("--candidates", _str_list, ElectionConfig.candidates, "candidate set"),
        _Setting("--replay-voters", _int_list, ElectionConfig.replay_voters,
                 "voter ids that submit their ballot twice", shown="none"),
        _Setting("--rsa-bits", int, ElectionConfig.rsa_bits, "signer modulus size"),
        _Setting("--no-anonymize", _bool, not Schedule.anonymize,
                 "keep sender ids on posted ballots", shown="anonymized"),
        _Setting("--ledger-out", help="write the accepted-ballot dump here"),
        _TRANSCRIPT_OUT,
    )),
    "sweep": ("Monte Carlo accuracy sweep, CSV output", _cmd_sweep, (
        _OUT,
        _Setting("--n", _int_list, (50,), "voter counts"),
        _Setting("--p-fail", _float_list, (0.01,), "malicious probabilities"),
        _Setting("--k", _int_list, (6,), "sampling counts"),
        _Setting("--min-consistency", int, TrialConfig.min_consistency,
                 "required mode count, at least 2"),
        _Setting("--t", _t_policy, TrialConfig.t_policy, "sample size policy"),
        _Setting("--trials", int, TrialConfig.trials, "trials per point per seed"),
        _Setting("--seeds", _int_list, TrialConfig.seeds, "seeds to average over"),
        _Setting("--mode", str, TrialConfig.mode, "trial evaluation mode",
                 choices=("symbolic", "full")),
        _Setting("--behavior", str, TrialConfig.behavior, "malicious behavior",
                 choices=TRIAL_BEHAVIORS),
    )),
    "analytic": ("single-sample reliability probabilities", _cmd_analytic, (
        _OUT,
        _Setting("--n", _size("n"), (50,), "electorate size(s), int/list/lo:hi[:step]"),
        _Setting("--m", _size("m"), (5,), "uncooperative count(s)"),
        _Setting("--t", _size("t", listed=False), 25, "sample size"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votesim",
        description="Simulators for blind-signature and homomorphic-encryption voting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, settings) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="flat key = value file; flags override it")
        if _SEED not in settings:
            # accepted only so that _resolve can reject it with a hint
            p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
        for setting in settings:
            setting.add_to(p)
        p.set_defaults(func=handler, settings=settings)

    p = sub.add_parser("replay", help="re-run a transcript and verify it matches")
    p.add_argument("transcript", help="transcript file produced by --transcript-out")
    p.set_defaults(func=_cmd_replay, settings=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.settings is None:
            return args.func(args)
        resolved = _resolve(args, args.settings)
        print("config " + json.dumps(resolved, sort_keys=True, default=str), file=sys.stderr)
        return args.func(resolved)
    except SystemExit as exc:  # from argparse: --help or a usage error
        return exc.code if isinstance(exc.code, int) else 2
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
