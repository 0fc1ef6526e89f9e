import dataclasses
import io
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehjam import ChannelGains, cli, solve_ne, solve_nj
from ehjam.cli import run
from helpers import counted_batches, params_at_sir


def _parse_kv(out: str) -> dict:
    vals = {}
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        for token in line.split():
            if "=" in token:
                key, _, value = token.partition("=")
                vals[key] = value
    return vals


def test_ne_full_power_profile(capsys):
    code = run(["ne", "--na-dbm", "-10", "--nb-dbm", "-7", "--gamma-dbm", "10",
                "--zeta", "0.8", "--h2", "1", "--ga2", "1", "--gb2", "0.2",
                "--p-dbm", "0"])
    assert code == 0
    vals = _parse_kv(capsys.readouterr().out)
    assert float(vals["p_mw"]) == pytest.approx(1.0, rel=1e-12)
    assert float(vals["gamma_mw"]) == pytest.approx(10.0, rel=1e-12)
    assert vals["regime"].startswith("NE-")


def test_printed_capacity_matches_library_to_12_digits(capsys):
    code = run(["ne", "--h2", "1", "--ga2", "1", "--gb2", "0.2", "--p-dbm", "0"])
    assert code == 0
    vals = _parse_kv(capsys.readouterr().out)
    res = solve_ne(ChannelGains(1.0, 1.0, 0.2), params_at_sir(-10.0))
    assert vals["capacity_bpcu"] == format(res.value, ".12g")
    assert vals["tau"] == format(res.profile.legit.tau, ".12g")


def test_nj_feasible_output(capsys):
    code = run(["nj", "--h2", "1", "--ga2", "1", "--gb2", "0.2", "--p-dbm", "10"])
    assert code == 0
    vals = _parse_kv(capsys.readouterr().out)
    res = solve_nj(ChannelGains(1.0, 1.0, 0.2), params_at_sir(0.0))
    assert vals["regime"] == res.regime.value
    assert vals["capacity_bpcu"] == format(res.value, ".12g")
    assert vals["gamma_mw"] == "0"


def test_nj_zero_efficiency_interference_free_jammer(capsys, tmp_path):
    gains = ["--h2", "1", "--ga2", "1", "--gb2", "0", "--zeta", "0"]
    assert run(["nj", *gains]) == 0
    vals = _parse_kv(capsys.readouterr().out)
    assert vals["regime"] == "NJ-case-b-candidate1"
    assert vals["tau"] == "0"
    out = tmp_path / "sweep.csv"
    assert run(["sweep", *gains, "--sir-start-db", "-10", "--sir-stop-db", "-10",
                "--out", str(out)]) == 0
    row = out.read_text().splitlines()[-1].split(",")
    assert format(float(row[2]), ".12g") == vals["capacity_bpcu"]  # c_nj


@pytest.mark.parametrize("argv, regime, capacity_bpcu", [
    # 50-digit references; (p + harvest)*h2 and zeta*ga2*h2 used to overflow
    (["nj", "--h2", "1e160", "--ga2", "1e160", "--gb2", "1e160"],
     "NJ-case-a", "260.623407782"),
    (["ne", "--h2", "1e160", "--ga2", "1e160", "--gb2", "1e160"],
     "NE-tau-interior", "260.623407782"),
    # the discarded series lanes of the closed-form tau overflow here
    (["nj", "--h2", "1e300", "--ga2", "1", "--gb2", "0.2"],
     "NJ-case-a", "493.858273265"),
    # the jamming budget times ga2 leaves the float range; 50-digit reference
    # tau* = 0.050338833240527694, C = 13.608494321187516
    (["ne", "--gamma-mw", "1e300", "--h2", "1", "--ga2", "1e10", "--gb2", "1"],
     "NE-tau-interior", "13.6084943212"),
    # h2/gb2 overflows although beta = 0.8; 50-digit reference
    # tau_hat = 0.65369436172129387, C = 0.229902574074124
    (["nj", "--h2", "1", "--ga2", "1e-310", "--gb2", "1e-310"],
     "NJ-case-a", "0.229902574074"),
    # the kink P/K overflows: an infinite kink is the exact answer
    (["nj", "--zeta", "1e-300", "--p-mw", "1e10", "--h2", "1", "--ga2", "1", "--gb2", "1"],
     "NJ-case-a", "7.21347519723e-301"),
    (["nj", "--p-mw", "1e308", "--h2", "1", "--ga2", "1", "--gb2", "1"],
     "NJ-case-a", "0.229902574074"),
    # ga2*n_b/gb2 overflows while K = zeta*(ga2*n_b/gb2 - n_a) = 2e4; 50-digit
    # reference tau_hat = 0.10652915515792392, C = 6.0495075453732029
    (["nj", "--p-mw", "1e5", "--zeta", "1e-305", "--h2", "1", "--ga2", "1e300",
      "--gb2", "1e-10"],
     "NJ-case-a", "6.04950754537"),
])
def test_huge_gains_finite_without_warnings(capsys, argv, regime, capacity_bpcu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    vals = _parse_kv(capsys.readouterr().out)
    assert vals["regime"] == regime
    assert vals["capacity_bpcu"] == capacity_bpcu


@pytest.mark.parametrize("h2, ga2", [
    (1.7328516292563033e295, 11.354209650122488),  # once nudged tau forever
    (9.688935366430316e299, 5.050715603424172),  # once read the kink as 0/0
])
def test_nj_at_subnormal_budgets_finishes_finite(capsys, h2, ga2):
    # K and P round to a few ulps of 5e-324: one batch and its threshold line,
    # with at most one ulp nudge, must settle the kink
    argv = ["nj", "--zeta", "5e-324", "--p-mw", "5e-324", "--h2", repr(h2),
            "--ga2", repr(ga2), "--gb2", "1"]
    with warnings.catch_warnings(), counted_batches(1):
        warnings.simplefilter("error")
        assert run(argv) == 0
    capacity_bpcu = float(_parse_kv(capsys.readouterr().out)["capacity_bpcu"])
    assert 0.0 < capacity_bpcu < math.inf


def test_sweep_at_subnormal_zeta_and_jamming_budget_finishes(tmp_path, capsys):
    # one chunk at 41 SIR points: one batch, and no SIR point builds another;
    # the dominance check may still reject these deep-subnormal sums
    argv = ["sweep", "--zeta", "1e-320", "--gamma-mw", "1e-318", "--draws", "200",
            "--out", str(tmp_path / "s.csv")]
    with counted_batches(1):
        assert run(argv) in (0, 1)


@pytest.mark.parametrize("flag, value, message", [
    ("--draws", "0", "draws must be >= 1"),
    ("--seed", "-1", "seed must lie in [0, 2**128)"),
])
def test_sweep_config_errors_name_the_flag(tmp_path, capsys, flag, value, message):
    out = tmp_path / "s.csv"
    assert run(["sweep", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ehjam: error: {message}\n"
    assert not out.exists()


def test_nj_infeasible_exits_2(capsys):
    code = run(["nj", "--h2", "0.2", "--ga2", "0.2", "--gb2", "1", "--p-dbm", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert "neutralization infeasible" in captured.err


def test_unknown_flag_exits_1(capsys):
    code = run(["nj", "--h2", "1", "--ga2", "1", "--gb2", "0.2", "--frobnicate"])
    assert code == 1
    assert "usage:" in capsys.readouterr().err


def test_missing_subcommand_exits_1(capsys):
    assert run([]) == 1


def test_invalid_parameter_value_exits_1(capsys):
    code = run(["ne", "--h2", "1", "--ga2", "1", "--gb2", "0.2", "--zeta", "2.0"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_linear_power_flags_match_dbm_flags(capsys):
    code = run(["ne", "--h2", "1", "--ga2", "1", "--gb2", "0.2",
                "--p-dbm", "0", "--gamma-dbm", "10"])
    out_dbm = capsys.readouterr().out
    assert code == 0
    code = run(["ne", "--h2", "1", "--ga2", "1", "--gb2", "0.2",
                "--p-mw", "1", "--gamma-mw", "10"])
    out_mw = capsys.readouterr().out
    assert code == 0
    assert _parse_kv(out_dbm)["capacity_bpcu"] == _parse_kv(out_mw)["capacity_bpcu"]


def test_conflicting_power_units_exit_1(capsys):
    code = run(["ne", "--h2", "1", "--ga2", "1", "--gb2", "0.2",
                "--p-dbm", "0", "--p-mw", "1"])
    assert code == 1


def test_conflicting_power_units_exit_1_with_dbm_at_default(capsys):
    # the dBm flag's value equals its argparse default; argparse must still
    # see it as given
    code = run(["ne", "--h2", "1", "--ga2", "1", "--gb2", "0.2",
                "--na-dbm", "-10", "--na-mw", "1"])
    assert code == 1
    assert "not allowed with argument" in capsys.readouterr().err


def test_sweep_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    common = ["sweep", "--sir-start-db", "-10", "--sir-stop-db", "0",
              "--sir-step-db", "5", "--draws", "200", "--seed", "7"]
    assert run(common + ["--out", str(out1)]) == 0
    assert run(common + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_partial_gains_exit_1(tmp_path, capsys):
    code = run(["sweep", "--h2", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "all of --h2/--ga2/--gb2" in capsys.readouterr().err


def test_sweep_fixed_gains(tmp_path, capsys):
    out = tmp_path / "fixed.csv"
    code = run(["sweep", "--h2", "0.2", "--ga2", "0.2", "--gb2", "1",
                "--sir-start-db", "-3", "--sir-stop-db", "0", "--sir-step-db", "1",
                "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 4
    # the harvesting link is poor: neutralization never feasible
    assert all(line.split(",")[2] == "0" for line in rows[1:])


def test_sweep_default_output_honors_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EHJAM_OUTPUT_DIR", str(tmp_path))
    code = run(["sweep", "--sir-start-db", "0", "--sir-stop-db", "0",
                "--sir-step-db", "1", "--draws", "50"])
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()
    assert str(tmp_path) in capsys.readouterr().out


def test_echo_config_reproduces_run(tmp_path, capsys):
    out1 = tmp_path / "one.csv"
    code = run(["sweep", "--sir-start-db", "-5", "--sir-stop-db", "0",
                "--sir-step-db", "5", "--draws", "100", "--seed", "3",
                "--out", str(out1), "--echo-config"])
    assert code == 0
    echo_line = next(l for l in capsys.readouterr().out.splitlines()
                     if l.startswith("# flags: "))
    argv = shlex.split(echo_line.removeprefix("# flags: "))
    out2 = tmp_path / "two.csv"
    argv[argv.index("--out") + 1] = str(out2)
    assert run(argv) == 0
    capsys.readouterr()
    body1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    body2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    assert body1 == body2


def test_echo_config_reproduces_run_with_space_in_out_path(tmp_path, capsys):
    out = tmp_path / "my sweep.csv"
    assert run(["sweep", "--sir-start-db", "-5", "--sir-stop-db", "0",
                "--sir-step-db", "5", "--draws", "50", "--seed", "3",
                "--out", str(out), "--echo-config"]) == 0
    echo_line = capsys.readouterr().out.splitlines()[0]
    first = out.read_bytes()
    out.unlink()
    assert run(shlex.split(echo_line.removeprefix("# flags: "))) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


@pytest.mark.parametrize("kind", ["ne", "nj"])
def test_echo_config_point_run(capsys, kind):
    base = [kind, "--h2", "1.5", "--ga2", "0.7", "--gb2", "0.1", "--p-dbm", "3"]
    assert run(base + ["--echo-config"]) == 0
    out = capsys.readouterr().out
    echo_line = next(l for l in out.splitlines() if l.startswith("# flags: "))
    argv = shlex.split(echo_line.removeprefix("# flags: "))
    assert run(argv) == 0
    out2 = capsys.readouterr().out
    assert _parse_kv(out) == _parse_kv(out2)


def test_verify_passes_and_is_deterministic(capsys):
    argv = ["verify", "--sets", "6", "--seed", "1",
            "--legit-grid", "60", "--jammer-grid", "60"]
    assert run(argv) == 0
    out1 = capsys.readouterr().out
    assert run(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert "result=pass" in out1


def test_echo_config_verify_run(capsys):
    argv = ["verify", "--sets", "4", "--seed", "2", "--legit-grid", "30",
            "--jammer-grid", "30", "--tol=-1e-12", "--gamma-dbm", "5"]
    code = run(argv + ["--echo-config"])
    echo_line, _, body = capsys.readouterr().out.partition("\n")
    assert run(shlex.split(echo_line.removeprefix("# flags: "))) == code
    assert capsys.readouterr().out == body


def test_verify_fails_with_impossible_tolerance(capsys):
    code = run(["verify", "--sets", "4", "--seed", "1",
                "--legit-grid", "40", "--jammer-grid", "40", "--tol", "-1"])
    assert code == 3
    assert "result=fail" in capsys.readouterr().out


def test_verify_fails_when_neutralizing_beats_full_power_jamming(capsys, monkeypatch):
    # NJ's value can never exceed NE's; a solver that claims it does fails verify
    real = cli.solve_nj

    def solve_nj_above_ne(*args):
        res = real(*args)
        return dataclasses.replace(res, value=res.value + 1.0)

    monkeypatch.setattr(cli, "solve_nj", solve_nj_above_ne)
    assert run(["verify", "--sets", "2"]) == 3
    out = capsys.readouterr().out
    assert "result=fail" in out
    assert float(_parse_kv(out)["worst_dominance_violation"]) > 0.0


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("sets, seed", [("4", "0"), ("1", "1")])  # seed 1: set 0 is skipped
def test_verify_rejects_non_finite_tolerance(capsys, tol, sets, seed):
    assert run(["verify", f"--tol={tol}", "--sets", sets, "--seed", seed,
                "--legit-grid", "20", "--jammer-grid", "20"]) == 1
    out, err = capsys.readouterr()
    assert "result=" not in out
    assert "--tol must be finite" in err


def test_negative_values_as_separate_arguments(tmp_path, capsys):
    # argparse alone reads a separate "-inf" or "-1e-5" as a flag
    assert run(["verify", "--tol", "-inf", "--sets", "1"]) == 1
    assert "--tol must be finite" in capsys.readouterr().err
    out = tmp_path / "s.csv"
    assert run(["sweep", "--sir-start-db", "-1e-5", "--draws", "100",
                "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-11].startswith("-1.0000000000000001e-05,")


def test_verify_rejects_zero_sets(capsys):
    assert run(["verify", "--sets", "0"]) == 1
    assert "--sets must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--h2", "1", "--out", "s.csv"], "give all of --h2/--ga2/--gb2 or none"),
    (["verify", "--sets", "0"], "--sets must be >= 1"),
], ids=["sweep", "verify"])
def test_subcommand_config_errors_share_the_error_prefix(tmp_path, monkeypatch, capsys,
                                                         argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"ehjam: error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--legit-grid", "--jammer-grid"])
@pytest.mark.parametrize("seed", ["0", "1"])  # seed 1: its one set skips the saddle check
def test_verify_rejects_a_grid_below_2_before_solving(capsys, flag, seed):
    assert run(["verify", flag, "1", "--sets", "1", "--seed", seed]) == 1
    out, err = capsys.readouterr()
    assert "result=" not in out
    assert "--legit-grid and --jammer-grid must be >= 2" in err


def test_verify_rejects_zero_jamming_budget(capsys):
    assert run(["verify", "--gamma-mw", "0", "--sets", "2"]) == 1
    assert "= 0 mW at SIR -30 dB" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_tiny_jamming_budget_names_the_flag_and_the_sir_point(tmp_path, capsys, command):
    # P = gamma*10^(SIR/10) underflows to 0 at -30 dB
    extra = ["--out", str(tmp_path / "s.csv")] if command == "sweep" else ["--sets", "2"]
    assert run([command, "--gamma-mw", "1e-322", *extra]) == 1
    err = capsys.readouterr().err
    assert "gamma_max 9.8813129168249309e-323" in err
    assert "= 0 mW at SIR -30 dB" in err
    assert not (tmp_path / "s.csv").exists()


def test_module_entry_point_exit_codes():
    # python -m ehjam goes through main(), whose SystemExit carries run()'s code
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    for argv, code in ((["ne", "--h2", "1", "--ga2", "1", "--gb2", "0.2"], 0),
                       (["ne", "--frobnicate"], 1),
                       (["nj", "--h2", "0.2", "--ga2", "0.2", "--gb2", "1"], 2)):
        proc = subprocess.run([sys.executable, "-m", "ehjam", *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr


def test_sweep_rejects_infinite_sir(tmp_path, capsys):
    assert run(["sweep", "--sir-start-db", "inf", "--out", str(tmp_path / "s.csv")]) == 1
    assert "SIR range must be finite" in capsys.readouterr().err


def test_sweep_rejects_an_infinite_step(tmp_path, capsys):
    assert run(["sweep", "--sir-step-db", "inf", "--out", str(tmp_path / "s.csv")]) == 1
    assert "sir_step_db must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_rejects_a_grid_beyond_the_point_bound(tmp_path, capsys):
    # a configuration error like every other bad sweep flag: exit 1, no file
    assert run(["sweep", "--sir-step-db", "1e-300", "--out", str(tmp_path / "s.csv")]) == 1
    assert "the SIR grid has more than 100000 points" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_decibel_overflow_exits_1(tmp_path, capsys):
    assert run(["ne", "--p-dbm", "4000", "--h2", "1", "--ga2", "1", "--gb2", "0.2"]) == 1
    assert "ehjam: error: decibel value out of range" in capsys.readouterr().err
    assert run(["sweep", "--sir-start-db", "3990", "--sir-stop-db", "4000",
                "--out", str(tmp_path / "s.csv")]) == 1
    assert "ehjam: error: decibel value out of range" in capsys.readouterr().err


def test_help_lists_flags_with_units(capsys):
    assert run(["sweep", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--na-dbm", "--na-mw", "--nb-dbm", "--gamma-dbm", "--zeta",
                 "--sir-start-db", "--draws", "--seed", "--out"):
        assert flag in out
    assert "dBm" in out and "mW" in out


def test_help_shows_each_dbm_default_once(capsys):
    assert run(["ne", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for what, default in (("noise power at the harvesting side", "-10.0"),
                          ("noise power at the receiver", "-7.0"),
                          ("jamming power budget", "10.0"),
                          ("transmit power budget", "0.0")):
        assert f"{what} in dBm (default: {default}) " in text
        assert f"(default {default})" not in text
    assert "in dBm (default: None)" not in text
    assert "harvesting efficiency in [0, 1] (default: 0.8) " in text


# --- echo round trip over drawn flags ---------------------------------------

_ECHO_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                          database=None)
# printable ASCII file names: spaces, quotes and shell metacharacters included
_FILE_NAME = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                   blacklist_characters="/"),
                     min_size=1, max_size=16).filter(lambda s: s not in (".", ".."))


@st.composite
def _shared_flags(draw, stems):
    """Each power left at its default, given in dBm or given in mW, and zeta."""
    argv = []
    for stem in stems:
        unit = draw(st.sampled_from([None, "dbm", "mw"]))
        if unit == "dbm":
            argv.append(f"--{stem}-dbm={draw(st.floats(-30.0, 30.0))!r}")
        elif unit == "mw":
            argv.append(f"--{stem}-mw={draw(st.floats(1e-3, 1e3))!r}")
    return argv + [f"--zeta={draw(st.floats(0.0, 1.0))!r}"]


def _run_quiet(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def _split_echo(stdout):
    """The argv of the leading '# flags:' line, and the rest of stdout."""
    echo_line, _, body = stdout.partition("\n")
    assert echo_line.startswith("# flags: ")
    return shlex.split(echo_line.removeprefix("# flags: ")), body


@_ECHO_SETTINGS
@given(kind=st.sampled_from(["ne", "nj"]),
       shared=_shared_flags(("na", "nb", "gamma", "p")),
       gains=st.tuples(*[st.floats(0.0, 10.0)] * 3))
def test_echo_reproduces_point_run(kind, shared, gains):
    h2, ga2, gb2 = (repr(g) for g in gains)
    argv = [kind, *shared, "--h2", h2, "--ga2", ga2, "--gb2", gb2, "--echo-config"]
    code, stdout = _run_quiet(argv)
    echoed, body = _split_echo(stdout)
    assert _run_quiet(echoed) == (code, body)


@_ECHO_SETTINGS
@given(shared=_shared_flags(("na", "nb", "gamma")), sir=st.floats(-40.0, 40.0),
       seed=st.integers(0, 2**31), name=_FILE_NAME)
@example(shared=[], sir=-1e-05, seed=0, name="it's a \"run\" $HOME.csv")
def test_echo_reproduces_sweep(shared, sir, seed, name):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / name
        argv = ["sweep", *shared, f"--sir-start-db={sir!r}", f"--sir-stop-db={sir!r}",
                "--draws", "10", "--seed", str(seed), "--out", str(out)]
        code, stdout = _run_quiet(argv + ["--echo-config"])
        assert code == 0
        echoed, body = _split_echo(stdout)
        first = out.read_bytes()
        out.unlink()
        assert _run_quiet(echoed) == (0, body)
        assert out.read_bytes() == first
