"""Byte-identity pins for the CLI: one SHA-256 of (status, stdout) per verb.

A fixed list of argv lists runs in-process through ``cli.main``.  It covers
every verb, ``--approx``, ``--help``, ``check`` and ``reduce`` batch files,
the large curves ``IIStar`` and ``I_20``, and each coded error the CLI can
reach.  A change that alters any byte of any of these outputs, or an exit
status, changes a digest; such a change must say which output moved and
why, and re-pin.  ``--help`` is argparse's rendering at a fixed width.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from kodlat.cli import main

THREES = "3" * 3000
PLUS_I2 = ["--z0", "-1,0", "--z", "1/3,-1", "0,2"]
IISTAR_Z = ["1/3,-1", "1/5,2/7", "-2/9,1", "0,1", "1/2,3/4", "-1/7,1", "2/3,1/5", "0,2", "5/11,1"]
I20_Z = [f"{(j % 7) - 3}/{j + 2},{1 + (j % 3)}/{j % 5 + 1}" for j in range(20)]

BATCH_CHECK = [
    {"z0": ["-1", "0"], "z": [["1/3", "-1"], ["0", "2"], ["1/5", "1/2"]]},
    {"z0": ["-1", "0"], "z": [["0", "1"], ["0", "1"], ["0", "1"]]},
    {"z0": ["-1", "0"], "z": [["1", "-1"], ["0", "2"], ["0", "1"]]},
    {"z0": ["2/3", "1"], "z": [["-2/3", "-1"], ["0", "0"], ["0", "0"]]},
]
BATCH_REDUCE = [
    {"z0": ["-1", "0"], "z": [["1/3", "-1"], ["0", "2"], ["1/5", "1/2"]]},
    {"z0": ["-1", "0"], "z": [["5/7", "-2"], ["-1/3", "1"], ["2/9", "3/2"]]},
]

# "usage" holds the runs without a verb, and --help
CASES = {
    "usage": [
        [],
        ["--help"],
        ["check", "--help"],
    ],
    "catalog": [
        ["catalog"],
        ["catalog", "--curve", "IIStar", "--approx"],
        ["catalog", "--curve", "I_20"],
        ["catalog", "--curve", "I_1"],
    ],
    "roots": [
        ["roots", "--curve", "IIStar", "--count-only"],
        ["roots", "--curve", "IV"],
        ["roots", "--curve", "I_20", "--bound", "1", "--count-only"],
        ["roots", "--curve", "I_3", "--bound", "2", "--approx"],
        ["roots", "--curve", "I_2", "--no-such-flag"],
    ],
    "pair": [
        ["pair", "--curve", "IIStar", "--v", '{"chi": 1, "ranks": [1, 0, 2, 0, 0, 0, 0, 0, 0]}',
         "--w", '{"chi": 0, "ranks": [0, 1, 1, 0, 0, 0, 0, 0, 0]}'],
        ["pair", "--curve", "I_2", "--v", '{"chi": 1.7, "ranks": [true, 0]}',
         "--w", '{"chi": 0, "ranks": [0, 1]}'],
        ["pair", "--curve", "I_2", "--v", f'{{"chi": 0, "ranks": [{"5" * 3000}, 0]}}',
         "--w", f'{{"chi": 0, "ranks": [{"5" * 3000}, 0]}}'],
    ],
    "check": [
        ["check", "--curve", "I_2", *PLUS_I2],
        ["check", "--curve", "I_2", "--z0", "-1,0", "--z", "1,-1", "0,2"],
        ["check", "--curve", "IIStar", "--z0", "-1,0", "--z", *IISTAR_Z, "--approx"],
        ["check", "--curve", "I_20", "--z0", "-1,1/3", "--z", *I20_Z],
        ["check", "--curve", "IV", "--input", "check.jsonl"],
        ["check", "--curve", "IV", "--input", "bad.jsonl"],
        ["check", "--curve", "I_3", "--z0", "-1,0", "--z", "0,1"],
        ["check", "--curve", "I_2", "--z0", f"-1,1/{THREES}", "--z", f"1/7,1/{THREES}", "0,1"],
    ],
    "twist": [
        ["twist", "--curve", "I_2", "--word", "T(1,0);T(2,-1)", "--class", '{"chi": 0, "ranks": [1, 0]}'],
        ["twist", "--curve", "IIStar", "--word", "T(1,-1);T(3,2)", "--z0", "-1,0", "--z", *IISTAR_Z,
         "--approx"],
        ["twist", "--curve", "I_2", "--word", "T(5,0)", "--class", '{"chi": 0, "ranks": [1, 0]}'],
        ["twist", "--curve", "I_2", "--word", "T(1,0)", "--z0", "-1,0", "--z", f"{'9' * 400},1", "0,1",
         "--approx"],
    ],
    "reduce": [
        ["reduce", "--curve", "I_2", *PLUS_I2],
        ["reduce", "--curve", "IIStar", "--z0", "-1,0", "--z", *IISTAR_Z],
        ["reduce", "--curve", "IV", "--input", "reduce.jsonl", "--approx"],
        ["reduce", "--curve", "I_3", "--z0", "-1,0", "--z", "1/5,-1", "1/7,-1", "0,5", "--max-steps", "1"],
        ["reduce", "--curve", "I_2", "--z0", "-1,0", "--z", "0,1", "0,1", "--max-steps", "-1"],
        ["reduce", "--curve", "I_2", "--z0", "1,0", "--z", "0,1", "0,1"],
    ],
    "walls": [
        ["walls", "--curve", "I_2", "--za", "0,1", "0,2", "--zb", "1,-1", "0,2"],
        ["walls", "--curve", "I_3", "--za", "0,1", "0,3", "0,1", "--zb", "1/2,-3", "1/3,-1", "1/2,-3"],
        ["walls", "--curve", "I_2", "--za", "0,1", "0,2", "--zb", "2,-1", "0,2"],
        ["walls", "--curve", "I_2", "--za", "0,0", "0,2", "--zb", "1,-1", "0,2"],
        ["walls", "--curve", "I_2", "--za", f"0,1/{THREES}", "0,1", "--zb", f"1/{THREES},-1/7", "0,1"],
    ],
    "jh": [
        ["jh", "--curve", "IV", "--i", "1", "--k", "-1"],
        ["jh", "--curve", "IIStar", "--i", "9", "--k", "3", "--approx"],
        ["jh", "--curve", "IV", "--i", "9", "--k", "0"],
    ],
}

PINNED = {
    "usage": "d551d40d9b55f1cb4ead3d67f0b2c40efefc1977d099582662fa51bcd7e86f96",
    "catalog": "faf790cc5bf39ad529f98ea97d1e68afa86e7093e439da3a628336216d3e05cc",
    "roots": "2bc54a910a812908fec4082a70e3f93db029df6cca9cfb31b9135519e8e2a887",
    "pair": "905065c3a0b769c943cc4d0751da22120d67ea7acf7fb4ee1d5d900daf554c8a",
    "check": "b177861102b77f667f08b9a2baa6e2f5b8053d3806ac6da337c3ede8b757580f",
    "twist": "48352217ef9fb2cb60960824a6805e3195048c6c670f33a89c5478edffe280bb",
    "reduce": "c1482ae179494c879a33e58072788a0aeb455a2bf75104e47c83f367bf6e38e4",
    "walls": "dc45f69ae956f411106f24f5e42ecb2577ff0efcb4136f3a39bb4d5f6b6bb0d8",
    "jh": "a7dcafb061d399a3aa45a070fafe6c4900a102fed1a57524f319cfb48110995b",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    folder = tmp_path_factory.mktemp("batches")
    for name, lines in (("check.jsonl", BATCH_CHECK), ("reduce.jsonl", BATCH_REDUCE)):
        (folder / name).write_text("".join(json.dumps(line) + "\n" for line in lines))
    (folder / "bad.jsonl").write_text(json.dumps(BATCH_CHECK[0]) + "\nnot json\n")
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(folder)  # batch paths are relative, so no message holds a tmp path
        for group, cases in CASES.items():
            h = hashlib.sha256()
            for argv in cases:
                h.update(json.dumps(_run(argv)).encode() + b"\n")
            out[group] = h.hexdigest()
    return out


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(list(argv))
    return status, buf.getvalue()


def test_every_verb_covered():
    assert set(CASES) == set(PINNED)
    for group, cases in CASES.items():
        if group != "usage":
            assert {argv[0] for argv in cases} == {group}
    assert {"catalog", "roots", "pair", "check", "twist", "reduce", "walls", "jh"} <= set(CASES)


@pytest.mark.parametrize("group", sorted(PINNED))
def test_cli_digest_pinned(group, digests):
    assert digests[group] == PINNED[group]
