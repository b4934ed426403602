"""Cold command-line calls: each case runs ``python -m skewcodes.cli`` in a
fresh interpreter and must reproduce the recorded stdout, stderr and exit
status byte for byte.  The cases are the top-level help, every subcommand's
help, one --machine call per subcommand and one unknown subcommand, so a
change to how the parser is built or to what the CLI imports cannot change
what a caller sees.

The help texts are argparse's formatting at 80 columns under the Python
version in ``cli_cold_golden.json``; on another version the comparison is
skipped.  To record the file again from the current sources:

    PYTHONPATH=src python tests/test_cli_cold.py
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_cold_golden.json"
SUBCOMMANDS = ("field-info", "divisors", "code", "dual", "distance",
               "bch1", "bch2", "eval-code", "minpoly", "vanish")
BCH_TOWER = ("--preset", "F2_6", "--e", "1", "--ext-preset", "F2_12",
             "--b", "0", "--t1", "23", "--t2", "1", "--delta", "4", "--nu", "0")
MACHINE_CALLS = (
    ("field-info", "--preset", "F16", "--e", "2"),
    ("divisors", "--preset", "F4", "--e", "1", "--poly", "x^6+1"),
    ("code", "--preset", "F8", "--e", "1", "--f", "x^7+a",
     "--g", "x^4+a*x^3+a^5*x^2+a", "--distance", "--check-poly"),
    ("dual", "--preset", "F4", "--commutative", "--f", "x^4-1", "--g", "x^2+1"),
    ("distance", "--preset", "F8", "--e", "1", "--f", "x^7+a",
     "--g", "x^4+a*x^3+a^5*x^2+a", "--strategy", "columns"),
    ("bch1", *BCH_TOWER, "--alpha", "a", "--n", "12", "--verify-distance"),
    ("bch2", *BCH_TOWER, "--alpha", "auto"),
    ("eval-code", "--preset", "F8", "--e", "1", "--points", "1;a;a^2", "--k", "2"),
    ("minpoly", "--preset", "F27", "--e", "1", "--points", "a^14;a^25"),
    ("vanish", "--preset", "F4", "--e", "1", "--poly", "x^2+1"),
)
CASES = (
    [["--help"]]
    + [[name, "--help"] for name in SUBCOMMANDS]
    + [[*call, "--machine"] for call in MACHINE_CALLS]
    + [["no-such-command", "--machine"]]
)
CASE_IDS = (
    ["help"]
    + [f"help-{name}" for name in SUBCOMMANDS]
    + [f"machine-{name}" for name in SUBCOMMANDS]
    + ["unknown-subcommand"]
)


def run_cold(argv):
    """(stdout, stderr, exit status) of one fresh `python -m skewcodes.cli`."""
    env = dict(os.environ, COLUMNS="80")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "skewcodes.cli", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    return {"stdout": proc.stdout, "stderr": proc.stderr, "status": proc.returncode}


def _golden():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if data["python"] != list(sys.version_info[:2]):
        pytest.skip(f"help texts recorded under Python {data['python']}")
    return {tuple(case["argv"]): case for case in data["cases"]}


def test_every_subcommand_has_a_machine_call():
    assert [call[0] for call in MACHINE_CALLS] == list(SUBCOMMANDS)


@pytest.mark.parametrize("argv", CASES, ids=CASE_IDS)
def test_cold_call_matches_recording(argv):
    expected = _golden()[tuple(argv)]
    assert run_cold(argv) == {k: expected[k] for k in ("stdout", "stderr", "status")}


if __name__ == "__main__":
    cases = [{"argv": argv, **run_cold(argv)} for argv in CASES]
    payload = {"python": list(sys.version_info[:2]), "cases": cases}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} cases in {GOLDEN.name}")
