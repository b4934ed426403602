"""The report of every subcommand in both output modes: each case runs
``main`` in this process, once as given and once with --machine, and must
reproduce the recorded stdout, stderr and exit status byte for byte.

The cases cover each subcommand, the divisor report with --degree and with
--count-only, a code of dimension 0, both distance strategies, both BCH
kinds with --verify-distance, a vanishing set with and without roots, field
and code config files (a config e of 0 included), and the usage errors of
the field and code flags.  Config paths are written as ``{dir}``, the
directory the module's config files are written to.  To record the file
again from the current sources:

    PYTHONPATH=src python tests/test_cli_reports.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from skewcodes.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_report_golden.json"
CONFIG_FILES = {
    "f9.cfg": "p=3\ne=1\nd=2\nmodpoly=1,0,1\n",       # x of order 4, not primitive
    "f9e2.cfg": "p=3\ne=2\nd=2\nmodpoly=1,0,1\n",
    "e0.cfg": "p=2\ne=0\nd=2\nmodpoly=1,1,1\n",       # e = 0 must reach the ring
    "f16.cfg": "p=2\ne=3\nd=4\nmodpoly=1,1,0,0,1\nprimitive=true\n",   # --ext-config ignores e
    "code.cfg": "p=3\ne=1\nd=2\nmodpoly=1,0,1\nf=x^4-1\ng=x^2+1\n",
}
F8_CODE = ("--preset", "F8", "--e", "1", "--f", "x^7+a", "--g", "x^4+a*x^3+a^5*x^2+a")
ZERO_CODE = ("--preset", "F4", "--e", "1", "--f", "x^2+1", "--g", "x^2+1")
TOWER = ("--preset", "F2_6", "--e", "1", "--ext-preset", "F2_12",
         "--b", "0", "--t1", "23", "--t2", "1", "--delta", "4", "--nu", "0")
F4_IN_F16 = ("--preset", "F4", "--ext-config", "{dir}/f16.cfg", "--delta", "2")
CALLS = (
    ("field-info", "--preset", "F16", "--e", "2"),
    ("field-info", "--preset", "F4", "--commutative"),
    ("field-info", "--config", "{dir}/f9e2.cfg"),
    ("field-info", "--config", "{dir}/e0.cfg"),
    ("field-info", "--config", "{dir}/e0.cfg", "--e", "1"),
    ("field-info",),
    ("field-info", "--preset", "F4", "--config", "{dir}/f9.cfg"),
    ("divisors", "--preset", "F4", "--e", "1", "--poly", "x^6+1"),
    ("divisors", "--preset", "F4", "--e", "1", "--poly", "x^6+1", "--degree", "2"),
    ("divisors", "--preset", "F4", "--e", "1", "--poly", "x^6+1", "--count-only"),
    ("divisors", "--preset", "F4", "--e", "1", "--poly", "x^4+1", "--degree", "2",
     "--count-only"),
    ("code", *F8_CODE, "--distance", "--dual", "--check-poly"),
    ("code", *ZERO_CODE, "--distance", "--dual", "--check-poly"),
    ("code", "--code-config", "{dir}/code.cfg", "--distance", "--dual", "--check-poly",
     "--strategy", "messages"),
    ("code", "--code-config", "{dir}/code.cfg", "--f", "x^4-1"),
    ("code", "--preset", "F4", "--f", "x^4-1"),
    ("dual", "--preset", "F4", "--commutative", "--f", "x^4-1", "--g", "x^2+1"),
    ("dual", "--code-config", "{dir}/code.cfg"),
    ("distance", *F8_CODE, "--strategy", "columns"),
    ("distance", *F8_CODE, "--strategy", "messages"),
    ("distance", *ZERO_CODE),
    ("bch1", *TOWER, "--alpha", "a", "--n", "12", "--verify-distance"),
    ("bch1", *TOWER, "--alpha", "a", "--n", "12"),
    ("bch1", *F4_IN_F16, "--alpha", "a", "--n", "3", "--verify-distance"),
    ("bch1", "--preset", "F4", "--ext-preset", "F7", "--alpha", "a", "--delta", "2",
     "--n", "3"),
    ("bch2", *TOWER, "--alpha", "auto", "--verify-distance"),
    ("bch2", *F4_IN_F16, "--alpha", "auto", "--verify-distance"),
    ("bch2", "--preset", "F4", "--ext-preset", "F16", "--alpha", "a^3", "--delta", "2"),
    ("eval-code", "--preset", "F8", "--e", "1", "--points", "0;1;a;a^2", "--k", "2"),
    ("eval-code", "--preset", "F8", "--e", "1", "--points", "1;a;a^2;a^3", "--k", "2"),
    ("minpoly", "--preset", "F27", "--e", "1", "--points", "a^14;a^25"),
    ("minpoly", "--config", "{dir}/f9.cfg", "--points", "1,1;2,1"),
    ("vanish", "--preset", "F4", "--e", "1", "--poly", "x^2+1"),
    ("vanish", "--preset", "F4", "--e", "1", "--poly", "x^2+x+1"),
    ("vanish", "--config", "{dir}/f9.cfg", "--poly", "x^2+1"),
)
CASES = [list(call) + extra for call in CALLS for extra in ([], ["--machine"])]


def write_configs(path):
    for name, text in CONFIG_FILES.items():
        (path / name).write_text(text)


def run_main(argv, directory):
    """(stdout, stderr, exit status) of one in-process call, the config
    directory written back as {dir}."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([arg.replace("{dir}", str(directory)) for arg in argv])
    return {key: text.getvalue().replace(str(directory), "{dir}")
            for key, text in (("stdout", out), ("stderr", err))} | {"status": status}


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    write_configs(path)
    return path


@pytest.fixture(scope="module")
def golden():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(case["argv"]): case for case in data["cases"]}


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) for argv in CASES])
def test_report_matches_recording(golden, config_dir, argv):
    expected = golden[tuple(argv)]
    assert run_main(argv, config_dir) == {k: expected[k] for k in ("stdout", "stderr", "status")}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_configs(pathlib.Path(tmp))
        cases = [{"argv": argv, **run_main(argv, tmp)} for argv in CASES]
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} cases in {GOLDEN.name}")
