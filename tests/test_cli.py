import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rispaces
from conftest import write_stepfn
from rispaces import cli
from rispaces import stepfn as sf
from rispaces.spaces import ri_norm, space_G

SRC = str(Path(rispaces.__file__).resolve().parents[1])


@pytest.fixture
def const1(tmp_path):
    p = tmp_path / "const1.stepfn"
    write_stepfn(sf.constant(1.0), p)
    return str(p)


@pytest.fixture
def ind_quarter(tmp_path):
    p = tmp_path / "ind_quarter.stepfn"
    write_stepfn(sf.indicator(0.25), p)
    return str(p)


class TestNorm:
    def test_lp2_constant(self, const1, capsys):
        assert cli.main(["norm", "--space", "Lp:2", "--input", const1]) == cli.EXIT_OK
        assert capsys.readouterr().out.strip() == "1.0"

    def test_prints_every_digit_of_a_tiny_norm(self, tmp_path, capsys):
        f = sf.step_function([0.0, 0.5, 1.0], [1e-20, -2e-20])
        write_stepfn(f, tmp_path / "tiny.stepfn")
        args = ["norm", "--space", "G", "--input", str(tmp_path / "tiny.stepfn")]
        assert cli.main(args) == cli.EXIT_OK
        got = float(capsys.readouterr().out)
        assert got == ri_norm(f, space_G()) and got > 1e-20

    def test_g_indicator(self, ind_quarter, capsys):
        assert cli.main(["norm", "--space", "G", "--input", ind_quarter]) == cli.EXIT_OK
        got = float(capsys.readouterr().out)
        assert got == pytest.approx(1.0 / math.sqrt(math.log(5.0)), abs=1e-10)

    def test_g1_indicator(self, ind_quarter, capsys):
        assert cli.main(["norm", "--space", "G1", "--input", ind_quarter]) == cli.EXIT_OK
        got = float(capsys.readouterr().out)
        assert got == pytest.approx(2.0 / math.sqrt(math.log(4.0 * math.e**2)), abs=1e-10)

    def test_missing_file_is_input_error(self, tmp_path):
        code = cli.main(["norm", "--space", "L1", "--input", str(tmp_path / "nope")])
        assert code == cli.EXIT_INPUT_ERROR

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.stepfn"
        p.write_text("stepfn v1\nxx 1\n")
        assert cli.main(["norm", "--space", "L1", "--input", str(p)]) == cli.EXIT_INPUT_ERROR
        assert "line 2" in capsys.readouterr().err

    def test_bad_space_is_config_error(self, const1):
        assert cli.main(["norm", "--space", "Zp", "--input", const1]) == cli.EXIT_CONFIG_ERROR

    def test_nan_exponent_is_config_error(self, const1, capsys):
        # a nan exponent, then numbers that do not parse at all
        for space in ("Lp:nan", "Lp:abc", "orlicz:power:", "lorentz:power:x",
                      "marcinkiewicz:power:", "orlicz:hinge:zz"):
            assert cli.main(["norm", "--space", space, "--input", const1]) == cli.EXIT_CONFIG_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Traceback" not in captured.err
            assert captured.err.startswith("config error:"), space

    def test_infinite_hinge_offset_is_config_error(self, const1, capsys):
        args = ["norm", "--space", "orlicz:hinge:inf", "--input", const1]
        assert cli.main(args) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == "config error: hinge offset must be finite and >= 0, got inf\n"

    def test_non_concave_marcinkiewicz_weight_is_config_error(self, const1, capsys):
        # t / phi_L(t) for the Lorentz weight t*sqrt(log(e/t)) is convex near 1
        args = ["norm", "--space", "marcinkiewicz:envelope:lorentz:logG", "--input", const1]
        assert cli.main(args) == cli.EXIT_CONFIG_ERROR
        assert "concave" in capsys.readouterr().err


class TestRearrangeAndRademacher:
    def test_rearrange_roundtrip(self, tmp_path):
        src = tmp_path / "f.stepfn"
        dst = tmp_path / "r.stepfn"
        write_stepfn(sf.step_function([0, 0.2, 0.5, 1], [1.0, 4.0, 2.0]), src)
        assert cli.main(["rearrange", "--input", str(src), "--out", str(dst)]) == cli.EXIT_OK
        r = sf.read_stepfn(dst)
        assert list(r.values) == [4.0, 2.0, 1.0]

    def test_rademacher_file(self, tmp_path):
        out = tmp_path / "r2.stepfn"
        assert cli.main(["rademacher", "--n", "2", "--out", str(out)]) == cli.EXIT_OK
        r = sf.read_stepfn(out)
        assert r.k == 4

    def test_rademacher_bad_n(self):
        assert cli.main(["rademacher", "--n", "0"]) == cli.EXIT_CONFIG_ERROR


class TestVerify:
    def test_passing_suite_exit_zero(self, tmp_path):
        out = tmp_path / "rep.json"
        code = cli.main(["verify", "sign", "--n", "4", "--trials", "10",
                         "--seed", "7", "--out", str(out)])
        assert code == cli.EXIT_OK
        data = json.loads(out.read_text())
        assert data["summary"]["pass"] is True
        assert data["seed"] == 7

    def test_envelope_of_power_orlicz_space(self, tmp_path):
        # diagnosing its envelope weight needs the norm of I_(0,1e-300], which
        # is 1e-100, below 2^-200 times the sup of the indicator
        out = tmp_path / "env.json"
        args = ["verify", "envelope", "--space", "orlicz:power:3", "--trials", "5",
                "--out", str(out)]
        assert cli.main(args) == cli.EXIT_OK
        assert json.loads(out.read_text())["summary"]["pass"] is True

    def test_unknown_suite_config_error(self):
        assert cli.main(["verify", "nonesuch"]) == cli.EXIT_CONFIG_ERROR

    def test_wrong_flag_for_suite(self):
        assert cli.main(["verify", "hinge", "--n", "4"]) == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("args, params", [
        (["theorem1", "--n", "5", "--trials", "3"], {"n_max": 5, "space": "G"}),
        (["sign", "--nmax", "5", "--trials", "10"], {"n_max": 5}),
    ])
    def test_n_and_nmax_are_one_option(self, args, params, tmp_path):
        # theorem1 defaults to G, and every seeded suite to seed 42
        out = tmp_path / "rep.json"
        assert cli.main(["verify", *args, "--out", str(out)]) == cli.EXIT_OK
        data = json.loads(out.read_text())
        assert data["params"].items() >= params.items() and data["seed"] == 42

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "derandomize", "--n", "4", "--trials", "8", "--seed", "5"]
        assert cli.main(args + ["--out", str(a)]) == cli.EXIT_OK
        assert cli.main(args + ["--out", str(b)]) == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_text_and_csv_formats(self, tmp_path, capsys):
        args = ["verify", "luxemburg", "--trials", "10", "--grid", "10"]
        assert cli.main(args + ["--format", "text"]) == cli.EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert cli.main(args + ["--format", "csv"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[0].startswith("check")

    def test_entrypoint_raises_systemexit(self, const1, monkeypatch):
        monkeypatch.setattr(
            "sys.argv", ["rispaces", "norm", "--space", "L1", "--input", const1]
        )
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == cli.EXIT_OK


DEGENERATE_FLAGS = [
    ("sign", ["--trials", "0"]),
    ("sign", ["--trials", "-1"]),
    ("sign", ["--n", "0"]),
    ("sign", ["--seed", "-1"]),
    ("derandomize", ["--trials", "0"]),
    ("derandomize", ["--n", "0"]),
    ("theorem1", ["--nmax", "0"]),
    ("theorem1", ["--trials", "-1"]),
    ("theorem1", ["--space", "Lp:nan"]),
    ("envelope", ["--trials", "0"]),
    ("luxemburg", ["--trials", "0"]),
    ("luxemburg", ["--grid", "0"]),
    ("rearrangement", ["--trials", "0"]),
    ("g1chain", ["--trials", "0"]),
    ("g1chain", ["--grid", "0"]),
    ("gg1", ["--grid", "0"]),
    ("fundamental", ["--grid", "0"]),
    ("hinge", ["--trials", "0"]),
    ("hinge", ["--seed", "-1"]),
    ("sign", ["--n", "21"]),
    ("theorem1", ["--nmax", "61"]),
    ("theorem1", ["--n", "x"]),  # rejected by argparse
]


@pytest.mark.parametrize(
    "suite, flags", DEGENERATE_FLAGS, ids=[f"{s}:{'='.join(f)}" for s, f in DEGENERATE_FLAGS]
)
def test_degenerate_flag_is_config_error(suite, flags, capsys):
    # neither a crash (exit 1 with a traceback) nor a pass on no instances
    assert cli.main(["verify", suite, *flags]) == cli.EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("config error:")


# a suite that takes no such keyword, for each verify flag
REJECTED_FLAGS = [
    ("gg1", "--seed", "5"),
    ("fundamental", "--seed", "5"),
    ("rearrangement", "--space", "G"),
    ("gg1", "--trials", "5"),
    ("fundamental", "--trials", "5"),
    ("envelope", "--nmax", "5"),
    ("luxemburg", "--n", "5"),
    ("sign", "--grid", "5"),
]


@pytest.mark.parametrize(
    "suite, flag, value", REJECTED_FLAGS, ids=[f"{s}:{f}" for s, f, _ in REJECTED_FLAGS]
)
def test_flag_the_suite_does_not_take_is_config_error(suite, flag, value, capsys):
    assert cli.main(["verify", suite, flag, value]) == cli.EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    name = {"--n": "--nmax"}.get(flag, flag)
    assert captured.err == f"config error: suite {suite!r} takes no {name}\n"


EXIT_CODES = {
    "0": (cli.EXIT_OK, ["verify", "gg1", "--grid", "5"]),
    # G1 is strictly inside G: the ratio keeps growing, stabilization 0.096
    "1": (cli.EXIT_VERIFY_FAILED, ["verify", "theorem1", "--space", "G1", "--nmax", "16",
                                   "--trials", "0"]),
    "2": (cli.EXIT_INPUT_ERROR, ["norm", "--space", "L1", "--input", "no-such-file.stepfn"]),
    "3": (cli.EXIT_CONFIG_ERROR, ["verify", "gg1", "--seed", "5"]),
    "3-usage": (cli.EXIT_CONFIG_ERROR, ["verify", "theorem1", "--n", "x"]),
    "3-number": (cli.EXIT_CONFIG_ERROR, ["verify", "envelope", "--space", "Lp:abc"]),
}


def _run_module(module, args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", module, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("code, args", list(EXIT_CODES.values()), ids=list(EXIT_CODES))
def test_exit_code_of_the_module_entry_point(code, args, tmp_path):
    run = _run_module("rispaces.cli", args, tmp_path)
    assert run.returncode == code
    assert "Traceback" not in run.stderr


def test_package_runs_as_a_module(tmp_path):
    # `python -m rispaces` is `python -m rispaces.cli`
    code, args = EXIT_CODES["0"]
    run = _run_module("rispaces", args, tmp_path)
    assert run.returncode == code
    assert json.loads(run.stdout)["experiment"] == "gg1"
