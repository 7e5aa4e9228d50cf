"""Command line surface: verbs, JSON shapes, determinism, error objects."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kodlat
from kodlat import KClass, TwistWord, apply_word, curve_from_label
from kodlat.cli import main


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return status, json.loads(out)


class TestCatalogVerb:
    def test_list_families(self, capsys):
        status, data = run_cli(capsys, "catalog")
        assert status == 0
        assert len(data["families"]) == 8

    def test_show_curve(self, capsys):
        status, data = run_cli(capsys, "catalog", "--curve", "I_2")
        assert status == 0
        assert data["gram"] == [[-2, 2], [2, -2]]
        assert data["marks"] == [1, 1] and data["n"] == 2

    def test_colon_label_form(self, capsys):
        _, colon = run_cli(capsys, "catalog", "--curve", "mI:2:3")
        _, underscore = run_cli(capsys, "catalog", "--curve", "mI_2_3")
        assert colon == underscore and colon["m"] == 3


class TestRootsVerb:
    def test_count_only(self, capsys):
        status, data = run_cli(capsys, "roots", "--curve", "IIStar", "--count-only")
        assert status == 0 and data == {"fundamental_count": 240}

    def test_fundamental_listing(self, capsys):
        _, data = run_cli(capsys, "roots", "--curve", "I_2")
        assert data["fundamental_count"] == 2
        assert {"chi": 0, "ranks": [1, 0]} in data["roots"]
        assert {"chi": 0, "ranks": [-1, 0]} in data["roots"]

    def test_box_enumeration(self, capsys):
        _, data = run_cli(capsys, "roots", "--curve", "I_2", "--bound", "1", "--count-only")
        assert data == {"box_count": 4}
        _, data = run_cli(capsys, "roots", "--curve", "I_2", "--bound", "1")
        assert data["bound"] == 1 and len(data["roots"]) == 4


class TestPairVerb:
    def test_pinned_values(self, capsys):
        _, data = run_cli(
            capsys, "pair", "--curve", "I_2",
            "--v", '{"chi": 0, "ranks": [1, 0]}',
            "--w", '{"chi": 0, "ranks": [0, 1]}',
        )
        assert data == {"value": 2}
        _, data = run_cli(
            capsys, "pair", "--curve", "I_2",
            "--v", '{"chi": 0, "ranks": [1, 0]}',
            "--w", '{"chi": 0, "ranks": [1, 0]}',
        )
        assert data == {"value": -2}

    def test_non_integer_class_is_a_parse_error(self, capsys):
        status, data = run_cli(
            capsys, "pair", "--curve", "I_2",
            "--v", '{"chi": 1.7, "ranks": [true, 0]}',
            "--w", '{"chi": 0, "ranks": [0, 1]}',
        )
        assert status == 2 and data["code"] == "ParseError"


class TestCheckVerb:
    def test_pinned_report(self, capsys):
        status, data = run_cli(
            capsys, "check", "--curve", "I_2", "--z0", "-1,0", "--z", "1/3,-1", "0,2"
        )
        assert status == 0
        assert data["in_p0"] is True
        assert data["component"] == "plus"
        assert data["min_modulus_sq"] == "1/9"
        assert set(data) == {"in_p0", "independent", "vanishing", "component", "min_modulus_sq"}

    def test_vanishing_report(self, capsys):
        status, data = run_cli(
            capsys, "check", "--curve", "I_2", "--z0", "-1,0", "--z", "1,-1", "0,2"
        )
        assert status == 0
        assert data["in_p0"] is False
        assert data["vanishing"] == {"chi": 2, "ranks": [2, 1]}

    def test_batch_input(self, capsys, tmp_path):
        path = tmp_path / "charges.jsonl"
        lines = [
            {"z0": ["-1", "0"], "z": [["1/3", "-1"], ["0", "2"]]},
            {"z0": ["-1", "0"], "z": [["0", "1"], ["0", "1"]]},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        status, data = run_cli(capsys, "check", "--curve", "I_2", "--input", str(path))
        assert status == 0
        assert [d["min_modulus_sq"] for d in data] == ["1/9", "1"]

    def test_batch_bad_line_reports_number(self, capsys, tmp_path):
        path = tmp_path / "charges.jsonl"
        path.write_text('{"z0": ["-1", "0"], "z": [["0", "1"], ["0", "1"]]}\nnot json\n')
        status, data = run_cli(capsys, "check", "--curve", "I_2", "--input", str(path))
        assert status == 2
        assert data["code"] == "ParseError" and "line 2" in data["message"]


class TestTwistVerb:
    def test_class_action_matches_library(self, capsys):
        curve = curve_from_label("I_2")
        word = TwistWord.parse("T(1,0);T(2,-1)")
        expected = apply_word(curve, word, KClass(0, (1, 0)))
        _, data = run_cli(
            capsys, "twist", "--curve", "I_2", "--word", "T(1,0);T(2,-1)",
            "--class", '{"chi": 0, "ranks": [1, 0]}',
        )
        assert data["class"] == expected.to_dict()
        assert data["word"] == ["T(1,0)", "T(2,-1)"]

    def test_charge_action_pinned(self, capsys):
        _, data = run_cli(
            capsys, "twist", "--curve", "I_2", "--word", "T(1,-1)",
            "--z0", "-1,0", "--z", "1/3,-1", "0,2",
        )
        assert data["charge"] == {"z0": ["-1", "0"], "z": [["-1/3", "1"], ["2/3", "0"]]}


class TestReduceVerb:
    def test_pinned_reduction(self, capsys):
        status, data = run_cli(
            capsys, "reduce", "--curve", "I_2", "--z0", "-1,0", "--z", "1/3,-1", "0,2"
        )
        assert status == 0
        assert data["word"] == ["T(1,-1)"]
        assert data["final"] == {"z": [["-1/3", "1"], ["2/3", "0"]]}
        assert data["terminated"] is True
        assert data["verdict"] == {"position": "on_wall", "walls": [[2, -1]]}

    def test_negative_component_values_parse(self, capsys):
        status, data = run_cli(
            capsys, "reduce", "--curve", "I_2", "--z0", "-1,0", "--z", "-1/3,1", "2/3,0"
        )
        assert status == 0 and data["word"] == []

    def test_batch(self, capsys, tmp_path):
        path = tmp_path / "charges.jsonl"
        lines = [
            {"z0": ["-1", "0"], "z": [["1/3", "-1"], ["0", "2"]]},
            {"z0": ["-1", "0"], "z": [["0", "1"], ["0", "1"]]},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        status, data = run_cli(capsys, "reduce", "--curve", "I_2", "--input", str(path))
        assert status == 0 and len(data) == 2
        assert data[0]["word"] == ["T(1,-1)"] and data[1]["word"] == []
        assert all("verdict" in item for item in data)

    def test_step_cap_is_an_error(self, capsys):
        status, data = run_cli(
            capsys, "reduce", "--curve", "I_3", "--z0", "-1,0",
            "--z", "1/5,-1", "1/7,-1", "0,5", "--max-steps", "1",
        )
        assert status == 1 and data["code"] == "StepLimitExceeded"


class TestWallsVerb:
    def test_pinned_event(self, capsys):
        status, data = run_cli(
            capsys, "walls", "--curve", "I_2", "--za", "0,1", "0,2", "--zb", "1,-1", "0,2"
        )
        assert status == 0
        assert data == {"events": [{"t": "1/2", "i": 1, "k": -1, "re_at_wall": "1/2"}]}

    def test_corner_is_an_error(self, capsys):
        status, data = run_cli(
            capsys, "walls", "--curve", "I_2", "--za", "0,1", "0,2", "--zb", "2,-1", "0,2"
        )
        assert status == 1 and data["code"] == "CornerOnPath"


class TestJhVerb:
    def test_pinned_factors(self, capsys):
        status, data = run_cli(capsys, "jh", "--curve", "IV", "--i", "1", "--k", "-1")
        assert status == 0
        assert data["factors"] == [
            {"chi": 1, "ranks": [1, 0, 0]},
            {"chi": 0, "ranks": [-1, 0, 0]},
        ]
        assert data["torsion_pair"]["f_generators"] == {"i": 1, "degrees": "<= -1"}


class TestOutputContract:
    def test_identical_invocations_identical_bytes(self, capsys):
        argv = ["check", "--curve", "I_2", "--z0", "-1,0", "--z", "1/3,-1", "0,2"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_approx_wraps_exact(self, capsys):
        plain_argv = ["check", "--curve", "I_2", "--z0", "-1,0", "--z", "1/3,-1", "0,2"]
        _, plain = run_cli(capsys, *plain_argv)
        _, wrapped = run_cli(capsys, *plain_argv, "--approx")
        assert wrapped["exact"] == plain
        assert wrapped["approx"]["min_modulus_sq"] == pytest.approx(1 / 9)

    def test_error_object_is_entire_output(self, capsys):
        status, data = run_cli(capsys, "catalog", "--curve", "I_1")
        assert status == 1
        assert set(data) == {"code", "message"} and data["code"] == "InvalidParams"

    def test_module_error_passthrough(self, capsys):
        status, data = run_cli(
            capsys, "check", "--curve", "I_2", "--z0", "-1,0", "--z", "0,1"
        )
        assert status == 1 and data["code"] == "DimensionMismatch"

    def test_parse_errors_exit_2(self, capsys):
        status, data = run_cli(capsys)
        assert status == 2 and data["code"] == "ParseError"
        status, data = run_cli(capsys, "check", "--curve", "I_2", "--z0", "x,y", "--z", "0,1", "0,1")
        assert status == 2 and data["code"] == "ParseError"
        status, data = run_cli(capsys, "roots", "--curve", "I_2", "--no-such-flag")
        assert status == 2 and data["code"] == "ParseError"
        status, data = run_cli(capsys, "check", "--curve", "I_2")
        assert status == 2 and data["code"] == "ParseError"
        status, data = run_cli(capsys, "check", "--curve", "I_2", "--z0", "-1,0", "--z", "0.5,1", "0,1")
        assert status == 2 and data["code"] == "ParseError"

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_is_one_json_document(self, argv):
        proc = run_module("kodlat.cli", *argv)
        assert proc.returncode == 0
        assert proc.stdout.count(b"\n") == 1
        data = json.loads(proc.stdout)
        assert set(data) == {"help"} and data["help"].startswith("usage: kodlat")
        assert run_module("kodlat.cli", *argv, COLUMNS="40").stdout == proc.stdout


ROOTS_ARGV = ["roots", "--curve", "IIStar", "--count-only"]


def _child_env():
    """The environment with the imported `kodlat` first on PYTHONPATH."""
    package_root = str(Path(kodlat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_entry_point(*argv):
    """Run the `kodlat` target of `[project.scripts]` in a fresh interpreter,
    as an installed console script does, against the imported `kodlat`."""
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["kodlat"]
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, env=_child_env(), timeout=120
    )


def run_module(module, *argv, **env):
    """Run `python -m module` against the imported `kodlat`, with extra env."""
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, env=dict(_child_env(), **env), timeout=120,
    )


class TestConsoleScript:
    def test_installed_entry_point(self):
        first = run_entry_point(*ROOTS_ARGV)
        second = run_entry_point(*ROOTS_ARGV)
        assert first.returncode == 0
        assert first.stdout == b'{"fundamental_count": 240}\n'
        assert first.stderr == b""
        assert first.stdout == second.stdout

    @pytest.mark.skipif(shutil.which("kodlat") is None, reason="no kodlat script on PATH")
    def test_path_script_matches_entry_point(self):
        # Without PYTHONPATH the script imports the copy it was installed
        # with, so this compares that copy with the tree under test.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        installed = subprocess.run(
            [shutil.which("kodlat"), *ROOTS_ARGV], capture_output=True, env=env, timeout=120
        )
        in_tree = run_entry_point(*ROOTS_ARGV)
        assert (installed.returncode, installed.stdout) == (in_tree.returncode, in_tree.stdout)

    def test_python_m_kodlat_matches_cli_module(self):
        package = run_module("kodlat", *ROOTS_ARGV)
        cli = run_module("kodlat.cli", *ROOTS_ARGV)
        assert package.returncode == cli.returncode == 0
        assert package.stdout == cli.stdout == b'{"fundamental_count": 240}\n'
