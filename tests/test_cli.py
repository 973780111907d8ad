import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import votesim
from votesim.cli import build_parser, main
from votesim.simnet import TRANSCRIPT_MAGIC, ElectionConfig, Schedule, run_election

# frozen output of the tiny reference sweep (deterministic per seed)
GOLDEN_SWEEP = (
    "n,p_fail,k,min_consistency,t,trials,seeds,accuracy,mode\n"
    "10,0.2,3,2,3,50,2,0.49,symbolic\n"
    "20,0.2,3,2,4,50,2,0.39,symbolic\n"
)
DATA = Path(__file__).resolve().parent / "data"

GOLDEN_SWEEP_ARGS = ["sweep", "--n", "10,20", "--p-fail", "0.2", "--k", "3",
                     "--trials", "50", "--seeds", "1,2"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analytic_single_point(capsys):
    code, out, err = run_cli(capsys, ["analytic", "--n", "50", "--m", "5", "--t", "25"])
    assert code == 0
    assert abs(float(out.strip()) - 0.025) < 0.001
    assert err.startswith("config ")


def test_analytic_range_emits_csv(capsys):
    code, out, _ = run_cli(capsys, ["analytic", "--n", "50", "--m", "0:5", "--t", "25"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,t,reliability,reliability_with_replacement"
    assert len(lines) == 7


def test_analytic_domain_error_is_config_error(capsys):
    code, _, err = run_cli(capsys, ["analytic", "--n", "5", "--m", "9", "--t", "2"])
    assert code == 3
    assert "error config" in err


def test_hev_run_fixed_votes(capsys):
    code, out, _ = run_cli(capsys, ["hev-run", "--n", "3", "--votes", "1,0,1", "--seed", "7"])
    assert code == 0
    assert out == "tally 2\n"


def test_hevs_run_honest_decision_matches_true_sum(capsys):
    code, out, _ = run_cli(capsys, ["hevs-run", "--n", "10", "--k", "6",
                                    "--p-fail", "0", "--seed", "1"])
    assert code == 0
    decision = int(out.strip().split("\n")[1].split()[1])
    reference = run_election(ElectionConfig(protocol="hevs", n=10, k=6, seed=1))
    assert decision == reference.true_tally


def test_cli_output_is_byte_identical_across_runs(capsys):
    invocations = [
        ["hevs-run", "--n", "8", "--k", "4", "--p-fail", "0.3", "--seed", "5"],
        ["hev-run", "--n", "4", "--seed", "9"],
        ["analytic", "--n", "50", "--m", "5", "--t", "25"],
        GOLDEN_SWEEP_ARGS,
        ["bsv-run", "--n", "3", "--seed", "2", "--rsa-bits", "256"],
    ]
    for argv in invocations:
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        assert first == second, argv


def test_sweep_golden_output(capsys):
    code, out, _ = run_cli(capsys, GOLDEN_SWEEP_ARGS)
    assert code == 0
    assert out == GOLDEN_SWEEP


@pytest.mark.parametrize("behavior", ["fake_share", "silent"])
def test_full_mode_sweep_output_matches_its_fixture(capsys, behavior):
    # full mode draws its votes and plans by randrange; the fixture pins the CSV bytes
    code, out, _ = run_cli(capsys, ["sweep", "--mode", "full", "--n", "6,12", "--k", "2,4",
                                    "--p-fail", "0.3", "--trials", "20", "--seeds", "1,2",
                                    "--behavior", behavior])
    assert code == 0
    assert out == (DATA / f"sweep_full_{behavior}.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("one_cpu", [False, True], ids=["default-affinity", "one-cpu"])
def test_sweep_subprocess_prints_golden_csv_once(one_cpu):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(votesim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cpu = min(os.sched_getaffinity(0))
    # runs in the child between fork and exec, so only the child is narrowed
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if one_cpu else None
    proc = subprocess.run([sys.executable, "-m", "votesim.cli", *GOLDEN_SWEEP_ARGS], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          preexec_fn=pin, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN_SWEEP


def test_sweep_reads_config_file(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "# reference sweep\n"
        "n = 10,20\n"
        "p-fail = 0.2\n"
        "k = 3\n"
        "trials = 50\n"
        "seeds = 1,2\n"
    )
    code, out, _ = run_cli(capsys, ["sweep", "--config", str(config)])
    assert code == 0
    assert out == GOLDEN_SWEEP


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("n = 10,20\np-fail = 0.2\nk = 3\ntrials = 50\nseeds = 1,2\n")
    code, out, _ = run_cli(capsys, ["sweep", "--config", str(config), "--n", "10"])
    assert code == 0
    assert out.count("\n") == 2  # header plus a single row
    assert out.startswith("n,p_fail,")
    assert "\n10,0.2,3," in out


def test_bad_config_file_key(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("banana = 7\n")
    code, _, err = run_cli(capsys, ["sweep", "--config", str(config)])
    assert code == 3
    assert "banana" in err


def test_malformed_config_line(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("just some words\n")
    code, _, err = run_cli(capsys, ["sweep", "--config", str(config)])
    assert code == 3


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--config", "/nonexistent/file.cfg"])
    assert code == 3
    assert "error io" in err


def test_usage_error_exit_code(capsys):
    assert main(["sweep", "--bogus-flag", "1"]) == 2
    assert main(["not-a-command"]) == 2
    assert main([]) == 2


def test_protocol_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, ["hevs-run", "--n", "4", "--k", "4",
                                    "--p-fail", "1", "--seed", "5"])
    assert code == 4
    assert "no_consistent_result" in err


def test_invalid_election_config_exit_code(capsys):
    code, _, err = run_cli(capsys, ["hev-run", "--n", "0"])
    assert code == 3


def test_help_lists_defaults(capsys):
    for command in ("hev-run", "hevs-run", "bsv-run", "sweep", "analytic"):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "default" in text
        listed = re.search(r"--seed\b", text) is not None
        assert listed == (command in ("hev-run", "hevs-run", "bsv-run"))


def test_out_writes_file_and_keeps_stdout_clean(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, GOLDEN_SWEEP_ARGS + ["--out", str(out_path)])
    assert code == 0
    assert out == ""
    assert out_path.read_text() == GOLDEN_SWEEP


def test_transcript_roundtrip_via_files(tmp_path, capsys):
    transcript = tmp_path / "run.transcript"
    code, out_first, _ = run_cli(capsys, ["hevs-run", "--n", "5", "--k", "3", "--seed", "4",
                                          "--p-fail", "0.3", "--transcript-out", str(transcript)])
    assert code == 0
    code, out, _ = run_cli(capsys, ["replay", str(transcript)])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("replay ok records=")
    assert lines[1:] == out_first.strip().split("\n")


def test_replay_detects_corruption(tmp_path, capsys):
    transcript = tmp_path / "run.transcript"
    run_cli(capsys, ["hev-run", "--n", "3", "--seed", "4", "--transcript-out", str(transcript)])
    lines = transcript.read_text().splitlines()
    transcript.write_text("\n".join(lines[:-1]) + "\n")
    code, _, err = run_cli(capsys, ["replay", str(transcript)])
    assert code == 4
    assert "error protocol" in err


def run_argv(config):
    """The run subcommand whose election is `config`."""
    assert config.schedule == Schedule()
    argv = [f"{config.protocol}-run", "--n", str(config.n), "--seed", str(config.seed)]
    if config.votes is not None:
        argv += ["--votes", ",".join(map(str, config.votes))]
    if config.protocol == "bsv":
        return argv + ["--candidates", ",".join(config.candidates),
                       "--rsa-bits", str(config.rsa_bits),
                       "--replay-voters", ",".join(map(str, config.replay_voters))]
    argv += ["--p-fail", str(config.p_fail), "--behavior", config.behavior,
             "--extra-value", str(config.extra_vote_value)]
    if config.group_bits is not None:
        argv += ["--group-bits", str(config.group_bits)]
    if config.protocol == "hevs":
        argv += ["--k", str(config.k), "--min-consistency", str(config.min_consistency)]
        if config.t_policy is not None:
            argv += ["--t", str(config.t_policy)]
    return argv


@pytest.mark.parametrize("path", sorted(DATA.glob("*.transcript")), ids=lambda path: path.stem)
def test_replay_of_a_pinned_transcript_ends_as_its_run(path, tmp_path, capsys):
    # Replay verifies the lines, then succeeds or fails as the run subcommand does.
    ok = json.loads((DATA / "outcomes.json").read_text(encoding="utf-8"))[path.stem]["ok"]
    lines = path.read_text(encoding="utf-8").splitlines()
    code, out, err = run_cli(capsys, ["replay", str(path)])
    assert code == (0 if ok else 4)
    assert out.splitlines()[0] == f"replay ok records={len(lines) - 1}"
    config = ElectionConfig.from_dict(json.loads(lines[0][len(TRANSCRIPT_MAGIC) + 1:]))
    transcript = tmp_path / "run.transcript"
    run_code, run_out, run_err = run_cli(capsys, run_argv(config) + [
        "--transcript-out", str(transcript)])
    assert run_code == code
    assert run_err.splitlines()[0].startswith("config ")
    assert run_err.splitlines()[1:] == err.splitlines()
    assert run_out.splitlines() == out.splitlines()[1:]
    # a failed run writes its transcript too, before it fails: the pinned bytes
    assert transcript.read_text(encoding="utf-8") == path.read_text(encoding="utf-8")


def test_bsv_run_ledger_dump(tmp_path, capsys):
    dump = tmp_path / "ledger.txt"
    code, out, _ = run_cli(capsys, ["bsv-run", "--n", "4", "--seed", "2", "--rsa-bits", "256",
                                    "--votes", "a,b,a,a", "--candidates", "a,b",
                                    "--ledger-out", str(dump)])
    assert code == 0
    assert "tally a 3\n" in out and "tally b 1\n" in out
    lines = dump.read_text().splitlines()
    assert len(lines) == 4
    assert all(len(line.split("\t")) == 4 for line in lines)


@pytest.mark.parametrize("argv", [
    ["hevs-run", "--k", "0"],
    ["hevs-run", "--t", "0"],
    ["hevs-run", "--t", "-3"],
    ["hevs-run", "--t", "bogus"],
    ["hevs-run", "--min-consistency", "1"],
    ["hevs-run", "--k", "3", "--min-consistency", "4"],
    ["hev-run", "--group-bits", "8"],
])
def test_invalid_hev_settings_exit_config(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert "error config" in err


def test_bsv_votes_outside_candidates_exit_config(capsys):
    code, out, err = run_cli(capsys, ["bsv-run", "--n", "2", "--rsa-bits", "256",
                                      "--votes", "x,y"])
    assert code == 3
    assert out == ""
    assert "error config" in err


def test_analytic_empty_range_exit_config(capsys):
    code, out, err = run_cli(capsys, ["analytic", "--n", "5:1"])
    assert code == 3
    assert out == ""
    assert "error config" in err


@pytest.mark.parametrize("flags, named, value", [
    (["--n", "65536"], "n", 65536),
    (["--n", f"10:{10 ** 12}"], "n", 10 ** 12),
    ([f"--n=-{10 ** 12}:5"], "n", -10 ** 12),
    (["--m", str(10 ** 12)], "m", 10 ** 12),
    (["--t", str(10 ** 12)], "t", 10 ** 12),
    (["--config", "{sizes}"], "n", 10 ** 12),
], ids=["n=65536", "n=10:10**12", "n=-10**12:5", "m=10**12", "t=10**12", "config-n=10:10**12"])
def test_analytic_sizes_are_bounded_before_any_work(tmp_path, flags, named, value):
    # In a child held to 1 GiB of address space and 20 s: a range built whole
    # fails there rather than take the host's memory.
    sizes = tmp_path / "sizes.cfg"
    sizes.write_text(f"n = 10:{10 ** 12}\n")
    env = dict(os.environ)
    src = str(Path(votesim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    argv = [flag.format(sizes=sizes) for flag in flags]
    proc = subprocess.run([sys.executable, "-m", "votesim.cli", "analytic", *argv], env=env,
                          capture_output=True, text=True, preexec_fn=limit_memory, timeout=20)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr == f"error config: {named} must be at least 0 and at most 65535, got {value}\n"


def test_rsa_bits_below_floor_exit_config(capsys):
    code, out, err = run_cli(capsys, ["bsv-run", "--n", "2", "--rsa-bits", "8"])
    assert code == 3
    assert out == ""
    assert "error config" in err and "rsa_bits" in err


@pytest.mark.parametrize("flag, value", [
    ("--n", str(10 ** 40)), ("--k", str(10 ** 40)), ("--n", "65536"), ("--k", "65536"),
    ("--t", "65536"),
])
def test_sweep_sizes_above_the_bound_exit_config(capsys, flag, value):
    settings = {"--n": "10", "--p-fail": "0.1", "--k": "3", "--trials": "1", "--seeds": "1",
                flag: value}
    code, out, err = run_cli(capsys, ["sweep", *(a for item in settings.items() for a in item)])
    assert (code, out) == (3, "")
    assert "error config" in err and "at most 65535" in err


def test_sweep_plan_above_the_bound_exits_config(capsys):
    # each size is within MAX_TRIAL_SIZE; their plan of k * t indices is not
    code, out, err = run_cli(capsys, ["sweep", "--n", "65535", "--k", "65535", "--t", "65535",
                                      "--p-fail", "0.1", "--trials", "1", "--seeds", "1"])
    assert (code, out) == (3, "")
    assert "error config" in err and "k * t must be at most 16777216" in err


#: (protocol, size field, its bound) for every size an election config bounds
RUN_SIZE_BOUNDS = [
    ("hev", "n", 65535), ("hevs", "n", 65535), ("bsv", "n", 65535),
    ("hevs", "k", 65535), ("hevs", "t", 65535),
    ("hev", "group_bits", 4096), ("hevs", "group_bits", 4096), ("bsv", "rsa_bits", 4096),
]
#: per protocol, a setting that fails after the size checks: (flags, header fields, its name)
LATER_ERROR = {
    "hev": (["--p-fail", "2"], {"p_fail": 2.0}, "p_fail"),
    "hevs": (["--min-consistency", "1"], {"min_consistency": 1}, "min_consistency"),
    "bsv": (["--replay-voters", "0"], {"replay_voters": [0]}, "replay_voters"),
}
#: a pinned transcript per protocol, whose header replay reads
RUN_TRANSCRIPT = {"hev": "hev_n4", "hevs": "hevs_n8_k4", "bsv": "bsv_n3"}


def _size_cases():
    """(protocol, size flags, the name its error gives or None when every size
    is within its bound) per case, each bound at, one past and far past it."""
    for protocol, field, bound in RUN_SIZE_BOUNDS:
        for label, value in (("bound", bound), ("bound+1", bound + 1), ("10**40", 10 ** 40)):
            yield pytest.param(protocol, {field: value}, None if value == bound else field,
                               id=f"{label}-{protocol}-{field}")
    # each size within its bound, a plan of k * t = 2**24 indices at the bound and past it
    yield pytest.param("hevs", {"k": 4096, "t": 4096}, None, id="bound-hevs-k*t")
    yield pytest.param("hevs", {"k": 4097, "t": 4096}, "k * t", id="bound+1-hevs-k*t")


@pytest.mark.parametrize("protocol, sizes, named", _size_cases())
def test_sizes_are_bounded_before_any_work(tmp_path, capsys, protocol, sizes, named):
    flags = [arg for field, value in sizes.items()
             for arg in (f"--{field.replace('_', '-')}", str(value))]
    header = {"t_policy" if field == "t" else field: value for field, value in sizes.items()}
    if named is None:
        # the sizes pass their checks, so a later setting fails the run before any work
        later_flags, later_header, named = LATER_ERROR[protocol]
        flags += later_flags
        header.update(later_header)

    code, out, err = run_cli(capsys, [f"{protocol}-run", *flags])
    assert (code, out) == (3, "")
    assert f"error config: {named} must be" in err

    # replay of a pinned transcript whose header holds the same values
    first, rest = (DATA / f"{RUN_TRANSCRIPT[protocol]}.transcript").read_text(
        encoding="utf-8").split("\n", 1)
    config = json.loads(first[len(TRANSCRIPT_MAGIC) + 1:]) | header
    transcript = tmp_path / "edited.transcript"
    transcript.write_text(f"{TRANSCRIPT_MAGIC} {json.dumps(config)}\n{rest}", encoding="utf-8")
    code, out, err = run_cli(capsys, ["replay", str(transcript)])
    assert (code, out) == (4, "")
    assert f"error protocol: unreadable header: {named} must be" in err


def test_sweep_min_consistency(capsys):
    code, out, err = run_cli(capsys, GOLDEN_SWEEP_ARGS + ["--min-consistency", "1"])
    assert (code, out) == (3, "")
    assert "error config" in err
    # above k no sample count can reach it: a valid point with accuracy 0
    for mode in ("symbolic", "full"):
        code, out, _ = run_cli(capsys, ["sweep", "--n", "6", "--p-fail", "0", "--k", "3",
                                        "--min-consistency", "4", "--trials", "4",
                                        "--seeds", "1", "--mode", mode])
        assert code == 0
        assert out.splitlines()[1] == f"6,0,3,4,2,4,1,0,{mode}"


def test_unknown_behavior_in_config_file_exit_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("behavior = bogus\n")
    code, out, err = run_cli(capsys, ["hev-run", "--config", str(config)])
    assert (code, out) == (3, "")
    assert "error config" in err and "bogus" in err


def test_replay_of_non_utf8_file_is_corrupt(tmp_path, capsys):
    transcript = tmp_path / "run.transcript"
    transcript.write_bytes(b"votesim-transcript 1 {\xff\xfe}\n")
    code, out, err = run_cli(capsys, ["replay", str(transcript)])
    assert (code, out) == (4, "")
    assert "error protocol" in err and "UTF-8" in err


@pytest.mark.parametrize("text, value", [
    ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False),
])
def test_bsv_config_switch_words(tmp_path, capsys, text, value):
    config = tmp_path / "bsv.cfg"
    config.write_text(f"no_anonymize = {text}\n")
    code, _, err = run_cli(capsys, ["bsv-run", "--config", str(config),
                                    "--n", "2", "--rsa-bits", "256"])
    assert code == 0
    assert f'"no_anonymize": {str(value).lower()}' in err


@pytest.mark.parametrize("text", ["maybe", "2", "on", "y"])
def test_bsv_config_switch_rejects_other_words(tmp_path, capsys, text):
    config = tmp_path / "bsv.cfg"
    config.write_text(f"no_anonymize = {text}\n")
    code, out, err = run_cli(capsys, ["bsv-run", "--config", str(config),
                                      "--n", "2", "--rsa-bits", "256"])
    assert (code, out) == (3, "")
    assert "error config" in err and "no_anonymize" in err


def test_non_utf8_config_file_exit_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"n = 3\xff\n")
    code, out, err = run_cli(capsys, ["hev-run", "--config", str(config)])
    assert (code, out) == (3, "")
    assert "error config" in err and "UTF-8" in err


@pytest.mark.parametrize("argv, hint", [
    (["sweep", "--seed", "5"], "--seeds"),
    (["analytic", "--seed", "9"], "--seed"),
])
def test_seed_flag_where_nothing_uses_it_exits_config(tmp_path, capsys, argv, hint):
    # --help still lists --seed on these commands; giving it is an error, as
    # a "seed = ..." config line there already is.
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert "error config" in err and hint in err
    config = tmp_path / "run.cfg"
    config.write_text("seed = 5\n")
    code, out, err = run_cli(capsys, [argv[0], "--config", str(config)])
    assert (code, out) == (3, "")
    assert "seed" in err


# What each subcommand shows in --help and echoes when given no settings.
DEFAULTS = {
    "hev-run": (
        ["1", "3", "random", "0", "fake_share", "2", "pinned 257-bit group"],
        '{"behavior": "fake_share", "extra_value": 2, "group_bits": null, "n": 3, "out": null, '
        '"p_fail": 0.0, "seed": 1, "transcript_out": null, "votes": null}',
    ),
    "hevs-run": (
        ["1", "10", "random", "6", "half", "2", "0", "fake_share", "2", "pinned 257-bit group"],
        '{"behavior": "fake_share", "extra_value": 2, "group_bits": null, "k": 6, '
        '"min_consistency": 2, "n": 10, "out": null, "p_fail": 0.0, "seed": 1, "t": null, '
        '"transcript_out": null, "votes": null}',
    ),
    "bsv-run": (
        ["1", "5", "random", "for,against", "none", "512", "anonymized"],
        '{"candidates": ["for", "against"], "ledger_out": null, "n": 5, "no_anonymize": false, '
        '"out": null, "replay_voters": [], "rsa_bits": 512, "seed": 1, "transcript_out": null, '
        '"votes": null}',
    ),
    "sweep": (
        ["50", "0.01", "6", "2", "sqrt-half", "1000", "1,2,3", "symbolic", "fake_share"],
        '{"behavior": "fake_share", "k": [6], "min_consistency": 2, "mode": "symbolic", '
        '"n": [50], "out": null, "p_fail": [0.01], "seeds": [1, 2, 3], "t": "sqrt-half", '
        '"trials": 1000}',
    ),
    "analytic": (
        ["50", "5", "25"],
        '{"m": [5], "n": [50], "out": null, "t": 25}',
    ),
}


@pytest.mark.parametrize("command", DEFAULTS)
def test_defaults_in_help_and_config_echo_are_pinned(capsys, command):
    shown, echo = DEFAULTS[command]
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert re.findall(r"\[default: ([^\]]*)\]", text) == shown
    code, _, err = run_cli(capsys, [command])
    assert code == 0
    assert err == f"config {echo}\n"


def test_bsv_candidate_with_tab_or_newline_exits_config(tmp_path, capsys):
    # make_ballot refuses such content, and a tally line would carry the tab
    for candidates, votes in (("a\tb,c", "a\tb,c"), ("a\nb,c", "c,c"), ("a\tb,c", "c,c")):
        code, out, err = run_cli(capsys, ["bsv-run", "--n", "2", "--rsa-bits", "64",
                                          "--candidates", candidates, "--votes", votes])
        assert (code, out) == (3, "")
        assert "error config" in err and "candidates" in err
    header = ElectionConfig(protocol="bsv", n=2, rsa_bits=64).to_dict()
    header["candidates"] = ["a\tb", "c"]
    transcript = tmp_path / "run.transcript"
    transcript.write_text(f"votesim-transcript 1 {json.dumps(header)}\n")
    code, out, err = run_cli(capsys, ["replay", str(transcript)])
    assert (code, out) == (4, "")
    assert "error protocol" in err and "candidates" in err
