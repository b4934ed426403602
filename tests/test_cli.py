import contextlib
import importlib
import io
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewcodes.cli import (
    EXIT_CONDITION,
    EXIT_DOMAIN,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_PARSE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def machine_dict(stdout):
    pairs = {}
    for line in stdout.strip().splitlines():
        key, value = line.split("=", 1)
        pairs[key] = value
    return pairs


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--preset", "F4", "--e", "1")
    assert code == EXIT_OK
    assert "q = 2" in out and "center = F_2[x^2]" in out


def test_divisors_linear_of_x21(capsys):
    code, out, _ = run_cli(
        capsys, "divisors", "--preset", "F4", "--e", "1",
        "--poly", "x^2+1", "--degree", "1",
    )
    assert code == EXIT_OK
    assert "x+1" in out and "x+a" in out and "x+a^2" in out


def test_divisors_count_x15(capsys):
    code, out, _ = run_cli(
        capsys, "divisors", "--preset", "F4", "--e", "1",
        "--poly", "x^15-a", "--count-only", "--machine",
    )
    assert code == EXIT_OK
    pairs = machine_dict(out)
    assert pairs["count_total"] == "32"
    code, out, _ = run_cli(
        capsys, "divisors", "--preset", "F4", "--commutative",
        "--poly", "x^15-a", "--count-only", "--machine",
    )
    assert machine_dict(out)["count_total"] == "8"


def test_code_report_golden(capsys):
    code, out, _ = run_cli(
        capsys, "code", "--preset", "F8", "--e", "1",
        "--f", "x^7+a", "--g", "x^4+a*x^3+a^5*x^2+a", "--distance",
    )
    assert code == EXIT_OK
    assert "dimension k = 3" in out
    assert "a 0 a^5 a 1 0 0" in out
    assert "exact minimum distance = 4" in out


def test_code_not_a_divisor_shows_remainder(capsys):
    code, _, err = run_cli(
        capsys, "code", "--preset", "F4", "--e", "1",
        "--f", "x^4-1", "--g", "x^2+a*x+1",
    )
    assert code == EXIT_DOMAIN
    assert "remainder" in err


def test_dual_classical(capsys):
    code, out, _ = run_cli(
        capsys, "dual", "--preset", "F4", "--commutative",
        "--f", "x^4-1", "--g", "x^2+1", "--machine",
    )
    assert code == EXIT_OK
    pairs = machine_dict(out)
    assert pairs["dual_generator"] == "x^2+1"   # self-reciprocal here


def test_distance_command(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--preset", "F8", "--e", "1",
        "--f", "x^7+a", "--g", "x^4+a*x^3+a^5*x^2+a", "--machine",
    )
    assert code == EXIT_OK
    pairs = machine_dict(out)
    assert pairs["distance"] == "4" and pairs["mds"] == "false"


def test_bch1_golden(capsys):
    code, out, _ = run_cli(
        capsys, "bch1", "--preset", "F2_6", "--e", "1",
        "--ext-preset", "F2_12", "--alpha", "a",
        "--b", "0", "--t1", "23", "--t2", "1", "--delta", "4", "--nu", "0",
        "--n", "12", "--verify-distance", "--machine",
    )
    assert code == EXIT_OK
    pairs = machine_dict(out)
    assert pairs["designed_distance"] == "4"
    assert pairs["distance"] == "4"
    assert pairs["modulus"] == "x^12+1"
    assert pairs["k"] == "9"
    assert pairs["max_length"] == "12"
    assert pairs["mds"] == "true"


def test_bch1_condition_violation_exit(capsys):
    code, _, err = run_cli(
        capsys, "bch1", "--preset", "F2_6", "--e", "1",
        "--ext-preset", "F2_12", "--alpha", "a",
        "--b", "0", "--t1", "23", "--t2", "1", "--delta", "4", "--nu", "0",
        "--n", "13",
    )
    assert code == EXIT_CONDITION
    assert "condition violated" in err


def test_bch2_auto_normal(capsys):
    code, out, _ = run_cli(
        capsys, "bch2", "--preset", "F2_6", "--e", "1",
        "--ext-preset", "F2_12", "--alpha", "auto",
        "--b", "0", "--t1", "23", "--t2", "1", "--delta", "4", "--nu", "0",
        "--verify-distance", "--machine",
    )
    assert code == EXIT_OK
    pairs = machine_dict(out)
    assert pairs["alpha"] == "a^5"
    assert pairs["designed_distance"] == "4"
    assert pairs["distance"] == "6"
    assert pairs["mds"] == "false"
    assert pairs["exponents"] == "0,10,11"
    assert pairs["exponents_closed"] == "0,4,5,6,10,11"


def test_bch2_gate_exit(capsys):
    code, _, err = run_cli(
        capsys, "bch2", "--preset", "F2_6", "--e", "1",
        "--ext-preset", "F2_12", "--alpha", "auto",
        "--b", "0", "--t1", "2", "--t2", "1", "--delta", "4", "--nu", "0",
    )
    assert code == EXIT_CONDITION
    assert "gcd" in err


def test_eval_code(capsys):
    code, out, _ = run_cli(
        capsys, "eval-code", "--preset", "F8", "--e", "1",
        "--points", "1;a;a^2;a^3", "--k", "2", "--machine",
    )
    if code == EXIT_OK:
        pairs = machine_dict(out)
        assert pairs["mds"] == "true"
    else:
        assert code == EXIT_CONDITION


def test_minpoly(capsys):
    code, out, _ = run_cli(
        capsys, "minpoly", "--preset", "F27", "--e", "1",
        "--points", "a^14;a^25", "--machine",
    )
    assert code == EXIT_OK
    pairs = machine_dict(out)
    assert pairs["minpoly"] == "x^2+a*x+a"
    assert pairs["rank"] == "2"


def test_vanish(capsys):
    code, out, _ = run_cli(
        capsys, "vanish", "--preset", "F4", "--e", "1",
        "--poly", "x^2+1", "--machine",
    )
    assert code == EXIT_OK
    pairs = machine_dict(out)
    assert pairs["count"] == "3"
    assert pairs["roots"] == "1;a;a^2"


# vanish --machine over F_2^12 at e = 3 and 6 (7 and 63 conjugacy classes):
# a minimal polynomial of three points, two of them conjugate, and the
# product of an irreducible quadratic with x - a^9; each stdout is pinned
# byte for byte.
VANISH_PINS = [
    ("3", "x^3+a^2143*x^2+a^1420*x+a^2760", 10, [
        "a^5", "a^1328", "a^1000", "a^54", "a^3169", "a^3526", "a^3302", "a^3491",
        "a^369", "a^1447",
    ]),
    ("3", "x^3+a^2637*x^2+a^3947*x+a^10", 1, [
        "a^9",
    ]),
    ("6", "x^3+a^1000*x^2+a^325*x+a^1325", 66, [
        "a^4037", "a^5", "a^3470", "a^1706", "a^194", "a^2903", "a^2210", "a^68",
        "a^446", "a^2714", "a^1328", "a^1769", "a^1517", "a^2525", "a^2399", "a^1000",
        "a^3281", "a^2777", "a^3407", "a^3659", "a^3092", "a^320", "a^1265", "a^3029",
        "a^383", "a^950", "a^3596", "a^509", "a^1643", "a^1391", "a^2336", "a^698",
        "a^1013", "a^1202", "a^761", "a^2147", "a^1895", "a^887", "a^2084", "a^2966",
        "a^1832", "a^257", "a^1580", "a^2462", "a^1454", "a^1958", "a^3155", "a^3911",
        "a^2588", "a^3785", "a^3974", "a^3344", "a^3722", "a^3848", "a^131", "a^3218",
        "a^572", "a^1139", "a^2273", "a^635", "a^2840", "a^2651", "a^3533", "a^2021",
        "a^824", "a^1076",
    ]),
    ("6", "x^3+a^4073*x^2+a^2458*x+a^18", 1, [
        "a^9",
    ]),
]


@pytest.mark.parametrize("e,poly,count,roots", VANISH_PINS)
def test_vanish_machine_output_pinned(capsys, e, poly, count, roots):
    code, out, _ = run_cli(
        capsys, "vanish", "--preset", "F2_12", "--e", e, "--poly", poly, "--machine",
    )
    assert code == EXIT_OK
    assert out == f"f={poly}\ncount={count}\nroots={';'.join(roots)}\n"


def test_code_config_file(capsys, tmp_path):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(
        "p=2\ne=1\nd=3\nmodpoly=1,1,0,1\nprimitive=true\n"
        "f=x^7+a\ng=x^4+a*x^3+a^5*x^2+a\n"
    )
    code, out, _ = run_cli(capsys, "distance", "--code-config", str(cfg), "--machine")
    assert code == EXIT_OK
    assert machine_dict(out)["distance"] == "4"


def test_parse_error_exit(capsys):
    code, _, err = run_cli(
        capsys, "vanish", "--preset", "F4", "--e", "1", "--poly", "y^2+1",
    )
    assert code == EXIT_PARSE


def test_empty_term_exit(capsys):
    code, out, err = run_cli(
        capsys, "divisors", "--preset", "F4", "--e", "1", "--poly", "x^2++x",
    )
    assert code == EXIT_PARSE == 2
    assert "empty term" in err
    assert out == ""


def test_guard_exit(capsys):
    code, _, err = run_cli(
        capsys, "divisors", "--preset", "F16", "--e", "1",
        "--poly", "x^16-1", "--count-only",
    )
    assert code == EXIT_GUARD
    assert "cost" in err


def test_guard_refusal_states_its_cost_once(capsys):
    code, out, err = run_cli(
        capsys, "divisors", "--preset", "F4", "--e", "1",
        "--poly", "x^40+1", "--count-only",
    )
    assert code == EXIT_GUARD == 3
    assert out == ""
    assert err == "guard exceeded: divisor enumeration cost 1832519379626 exceeds 2^25\n"


@pytest.mark.parametrize("exponent", ["1000000", "12345678901234567890"])
def test_huge_x_exponent_exits_guard(capsys, exponent):
    code, out, err = run_cli(
        capsys, "vanish", "--preset", "F4", "--e", "1", "--poly", f"x^{exponent}+1",
    )
    assert code == EXIT_GUARD == 3
    assert out == ""
    assert err == f"guard exceeded: x exponent {exponent} exceeds 2^16\n"


def test_x_exponent_longer_than_int_reads_exits_guard(capsys):
    code, out, err = run_cli(
        capsys, "vanish", "--preset", "F4", "--e", "1", "--poly", "x^" + "1" * 5000 + "+1",
    )
    assert code == EXIT_GUARD == 3
    assert out == ""
    assert err == "guard exceeded: x exponent of 5000 digits exceeds 2^16\n"


@pytest.mark.parametrize("command", ["code", "dual", "distance"])
def test_code_matrix_above_2_20_entries_exits_guard(capsys, command):
    """n = 2^16 with g = 1 asks for a 2^16 x 2^16 generator matrix."""
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, command, "--preset", "F2", "--f", "x^65536+1", "--g", "1", "--machine",
    )
    assert code == EXIT_GUARD == 3
    assert out == ""
    assert err == "guard exceeded: code matrix of 4294967296 entries exceeds 2^20\n"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("e", ["3", "0"])
def test_e_not_dividing_the_degree_is_a_domain_error(capsys, e):
    """The value parses, so it is no usage error: the field rejects it."""
    code, out, err = run_cli(capsys, "field-info", "--preset", "F4", "--e", e)
    assert code == EXIT_DOMAIN == 1
    assert out == ""
    assert err == (f"error: sigma exponent {e} must divide the field degree 2 "
                   "(use e = d for the identity)\n")


def test_missing_field_is_parse_error(capsys):
    code, _, _ = run_cli(capsys, "field-info")
    assert code == EXIT_PARSE


def test_machine_output_deterministic(capsys):
    args = (
        "code", "--preset", "F8", "--e", "1",
        "--f", "x^7+a", "--g", "x^4+a*x^3+a^5*x^2+a",
        "--distance", "--dual", "--check-poly", "--machine",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_machine_output_reparses_and_reverifies(capsys, F8):
    from skewcodes.bch import min_distance_exact
    from skewcodes.codes import Modulus, SkewCyclicCode
    from skewcodes.skewpoly import SkewRing
    from skewcodes.textio import parse_poly

    _, out, _ = run_cli(
        capsys, "code", "--preset", "F8", "--e", "1",
        "--f", "x^7+a", "--g", "x^4+a*x^3+a^5*x^2+a",
        "--distance", "--dual", "--machine",
    )
    pairs = machine_dict(out)
    ring = SkewRing(F8, 1)
    f = parse_poly(ring, pairs["f"])
    g = parse_poly(ring, pairs["g"])
    code = SkewCyclicCode(Modulus(f), g)
    assert code.n == int(pairs["n"]) and code.k == int(pairs["k"])
    assert min_distance_exact(code) == int(pairs["distance"])
    from skewcodes.codes import dual_code

    assert dual_code(code).code.generator == parse_poly(ring, pairs["dual_generator"])
    for i in range(code.k):
        row = [str(c) for c in code.generator_matrix[i]]
        assert pairs[f"genrow{i}"] == " ".join(row)


README_CODE = (
    "code", "--preset", "F8", "--e", "1",
    "--f", "x^7+a", "--g", "x^4+a*x^3+a^5*x^2+a",
    "--distance", "--dual", "--check-poly",
)
README_BCH = (
    "--preset", "F2_6", "--e", "1", "--ext-preset", "F2_12",
    "--b", "0", "--t1", "23", "--t2", "1", "--delta", "4", "--nu", "0",
    "--verify-distance",
)
README_BCH1 = ("bch1", "--alpha", "a", "--n", "12") + README_BCH
README_BCH2 = ("bch2", "--alpha", "auto") + README_BCH
README_EVAL = ("eval-code", "--preset", "F8", "--e", "1", "--points", "0;1;a;a^2", "--k", "2")

README_MACHINE_OUTPUT = {
    "code": (README_CODE, """\
f=x^7+a
g=x^4+a*x^3+a^5*x^2+a
n=7
k=3
genrow0=a 0 a^5 a 1 0 0
genrow1=0 a^2 0 a^3 a^2 1 0
genrow2=0 0 a^4 0 a^6 a^4 1
distance=4
mds=false
dual_generator=x^3+a*x+1
dual_generator_raw=x^3+a*x+1
dual_modulus=x^7+a^6
check_poly=x^3+a^4*x^2+1
check_twist=a
check_twist_tuple=0,1,0
"""),
    "bch1": (README_BCH1, """\
g=x^3+a^50*x^2+a^43*x+a
designed_distance=4
modulus=x^12+1
n=12
k=9
max_length=12
distance=4
mds=true
"""),
    "bch2": (README_BCH2, """\
alpha=a^5
alpha_tuple=0,0,0,0,0,1,0,0,0,0,0,0
g=x^6+a^22*x^5+a^53*x^4+a^19*x^3+a^32*x^2+a^61*x+a^49
designed_distance=4
modulus=x^12+1
n=12
k=6
exponents=0,10,11
exponents_closed=0,4,5,6,10,11
distance=6
mds=false
"""),
    "eval-code": (README_EVAL, """\
points=0;1;a;a^2
n=4
k=2
distance=3
mds=true
genrow0=1 1 1 1
genrow1=0 1 a a^2
"""),
}


CODE_REPORTS = {
    # (argv, human output, --machine output), recorded before _code_report
    # read the generator matrix once and formatted it one way
    "F4": (("code", "--preset", "F4", "--e", "1", "--f", "x^4+1", "--g", "x^2+a*x+a^2"), """\
modulus f = x^4+1
generator g = x^2+a*x+a^2
length n = 4, dimension k = 2
generator matrix:
a^2 a 1 0
0 a a^2 1
""", """\
f=x^4+1
g=x^2+a*x+a^2
n=4
k=2
genrow0=a^2 a 1 0
genrow1=0 a a^2 1
"""),
    "readme": (README_CODE, """\
modulus f = x^7+a
generator g = x^4+a*x^3+a^5*x^2+a
length n = 7, dimension k = 3
generator matrix:
a 0 a^5 a 1 0 0
0 a^2 0 a^3 a^2 1 0
0 0 a^4 0 a^6 a^4 1
exact minimum distance = 4
dual generator (monic) = x^3+a*x+1
dual generator (raw) = x^3+a*x+1
dual modulus = x^7+a^6
check polynomial = x^3+a^4*x^2+1
check twist constant = a
""", README_MACHINE_OUTPUT["code"][1]),
}


@pytest.mark.parametrize("name", sorted(CODE_REPORTS))
def test_code_report_in_both_modes(capsys, monkeypatch, name):
    """The code report is byte-identical in both modes and never reads the
    generator matrix, which boxes every entry: it formats the int rows."""
    from skewcodes.codes import SkewCyclicCode

    reads = []
    matrix = SkewCyclicCode.generator_matrix

    def counted(code):
        reads.append(code)
        return matrix.fget(code)

    monkeypatch.setattr(SkewCyclicCode, "generator_matrix", property(counted))
    argv, human, machine = CODE_REPORTS[name]
    for extra, expected in [((), human), (("--machine",), machine)]:
        reads.clear()
        assert run_cli(capsys, *argv, *extra) == (EXIT_OK, expected, "")
        assert reads == []


@pytest.mark.parametrize("name", sorted(README_MACHINE_OUTPUT))
def test_readme_examples_machine_output(capsys, name):
    argv, expected = README_MACHINE_OUTPUT[name]
    code, out, err = run_cli(capsys, *argv, "--machine")
    assert code == EXIT_OK and err == ""
    assert out == expected


def _count_calls(monkeypatch, modules, name):
    """Route every module's ``name`` through one wrapper; returns its log."""
    calls = []
    real = getattr(importlib.import_module(modules[0]), name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(f"{module}.{name}", counting)
    return calls


@pytest.mark.parametrize("name", sorted(README_MACHINE_OUTPUT) + ["distance"])
def test_one_distance_run_per_command(capsys, monkeypatch, name):
    argv = (
        README_MACHINE_OUTPUT[name][0] if name != "distance"
        else ("distance",) + README_CODE[1:9]
    )
    calls = _count_calls(
        monkeypatch, ["skewcodes.bch", "skewcodes.cli"], "min_distance_exact"
    )
    assert run_cli(capsys, *argv, "--machine")[0] == EXIT_OK
    assert len(calls) == 1


def test_bch_commands_build_each_answer_once(capsys, monkeypatch):
    gen1 = _count_calls(monkeypatch, ["skewcodes.bch"], "bch1_generator")
    gen2 = _count_calls(monkeypatch, ["skewcodes.bch"], "bch2_generator")
    max_len = _count_calls(monkeypatch, ["skewcodes.cli"], "bch1_max_length")
    assert run_cli(capsys, *README_BCH1, "--machine")[0] == EXIT_OK
    assert run_cli(capsys, *README_BCH2, "--machine")[0] == EXIT_OK
    assert (len(gen1), len(gen2), len(max_len)) == (1, 1, 1)


def test_prime_field_config_f2(capsys, tmp_path):
    # F_2 without the primitive flag: the generator search starts at 1
    cfg = tmp_path / "f2.cfg"
    cfg.write_text("p=2\ne=1\nd=1\nmodpoly=1,1\n")
    code, out, err = run_cli(
        capsys, "vanish", "--config", str(cfg), "--poly", "x+1", "--machine",
    )
    assert code == EXIT_OK and err == ""
    pairs = machine_dict(out)
    assert pairs["count"] == "1"


def test_primitive_flag_on_the_modulus_x_exits_1(capsys, tmp_path):
    # the variable of F_5[x]/(x) is 0, so the flag cannot hold
    cfg = tmp_path / "f5.cfg"
    cfg.write_text("p=5\ne=1\nd=1\nmodpoly=0,1\nprimitive=true\n")
    code, out, err = run_cli(capsys, "field-info", "--config", str(cfg))
    assert code == EXIT_DOMAIN and out == ""
    assert "generator is 0" in err


def test_field_modulus_out_of_range_exits_guard(capsys, tmp_path):
    # p^(d//2) = 2^17 exceeds 2^16: refused before any product is built
    cfg = tmp_path / "f2_34.cfg"
    cfg.write_text("p=2\ne=1\nd=34\nmodpoly=1,1" + ",0" * 32 + ",1\n")
    code, out, err = run_cli(capsys, "field-info", "--config", str(cfg))
    assert code == EXIT_GUARD and out == ""
    assert err == ("guard exceeded: field modulus of degree 34 over F_2 is out of range: "
                   "2^17 exceeds 2^16 (estimated cost 131072)\n")


def test_huge_characteristic_exits_guard(capsys, tmp_path):
    # a prime above 2^32 is not proved prime by trial division below 2^16
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("p=1000000000000000003\ne=1\nd=1\nmodpoly=0,1\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "field-info", "--config", str(cfg))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_GUARD and out == ""
    assert err == ("guard exceeded: primality check of 1000000000000000003 needs "
                   "999999999 trial divisors, exceeds 2^16\n")


def test_composite_characteristic_above_2_32_exits_1(capsys, tmp_path):
    # 2^32 + 1 = 641 * 6700417: a factor below 2^16 decides it
    cfg = tmp_path / "fermat.cfg"
    cfg.write_text("p=4294967297\ne=1\nd=1\nmodpoly=0,1\n")
    code, out, err = run_cli(capsys, "field-info", "--config", str(cfg))
    assert code == EXIT_DOMAIN and out == ""
    assert err == "error: characteristic 4294967297 is not prime\n"


def test_characteristic_zero_is_refused_before_reduction(capsys, tmp_path):
    # the characteristic is checked before any coefficient is reduced mod p
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("p=0\ne=1\nd=1\nmodpoly=0,1\n")
    code, out, err = run_cli(capsys, "field-info", "--config", str(cfg))
    assert code == EXIT_DOMAIN and out == ""
    assert err == "error: characteristic 0 is not prime\n"


def test_unknown_preset_is_a_usage_error(capsys):
    for argv in (
        ("field-info", "--preset", "F5"),
        ("bch1", "--preset", "F4", "--ext-preset", "F7", "--alpha", "a",
         "--delta", "2", "--n", "3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE and out == ""
        assert "unknown field preset" in err


@pytest.mark.parametrize("argv,message", [
    # alpha = 0 has no unit bracket, so no length is refused as inadmissible
    (("bch1", "--preset", "F4", "--alpha", "0", "--delta", "2", "--n", "100000000"),
     "code length 100000000 exceeds 2^16"),
    (("bch1", "--preset", "F16", "--alpha", "a", "--delta", "100000000", "--n", "3"),
     "designed exponent set of 99999999 exceeds 2^20"),
    (("bch2", "--preset", "F4", "--alpha", "auto", "--delta", "2", "--nu", "2000000"),
     "designed exponent set of 2000001 exceeds 2^20"),
])
def test_huge_bch_parameters_exit_guard(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_GUARD and out == ""
    assert message in err


# -- argument fuzzing ------------------------------------------------------------------

# Small presets and polynomials of degree at most 3 keep every example fast.
# Each value is a valid token three times in four, else a hostile one:
# garbage, a negative or huge integer, or an x exponent above 2^16.


def _mostly(valid, hostile):
    return st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(hostile))


_PRESETS = _mostly(["F4", "F16", "F8", "F9", "F27", "F2"], ["f4", "F5", "", "F2^1", "F64x"])
_INTS = _mostly(["1", "2", "3", "0", "4", "6"],
                ["12", "-1", "-7", str(2 ** 70), str(-2 ** 70), "x", "", "1.5"])
_ELEMENT_TOKENS = ["0", "1", "a", "a^2", "a^7", "(1,0)", "1,1"]
_HOSTILE_ELEMENTS = ["a^" + "9" * 30, "(1,1,1,1)", "(0,5)", "a^-1", "b", "", "("]
_ELEMENTS = _mostly(_ELEMENT_TOKENS + ["auto"], _HOSTILE_ELEMENTS)
_TERMS = st.builds(
    lambda c, x: c + ("*" if c and x else "") + x,
    _mostly(["", "1", "a", "a^2", "(1,1)"], _HOSTILE_ELEMENTS),
    _mostly(["", "x", "x^2", "x^3"], ["x^65537", "x^" + "9" * 120, "x^", "x^-1", "xx"]),
)
_POLYS = st.one_of(
    st.lists(st.tuples(st.sampled_from(["+", "-"]), _TERMS), min_size=1, max_size=3)
    .map(lambda terms: "".join(sign + term for sign, term in terms)),
    _mostly(["x^2+1", "x^3-a", "x^2+a*x+1", "x^3+1", "x+1", "x", "1"],
            ["0", "+", "--x", "x^2+(1,1", ")", "x^70000+1"]),
)
_POINTS = st.lists(_ELEMENTS.filter(lambda t: t != "auto"), min_size=1, max_size=4).map(";".join)
_MISSING = st.just("no-such-dir/no-such-file.cfg")
_VALUES = {
    "--preset": _PRESETS, "--ext-preset": _PRESETS, "--e": _INTS,
    "--config": _MISSING, "--code-config": _MISSING, "--ext-config": _MISSING,
    "--poly": _POLYS, "--f": _POLYS, "--g": _POLYS, "--points": _POINTS,
    "--alpha": _ELEMENTS, "--strategy": _mostly(["auto", "columns", "messages"], ["x"]),
    **{flag: _INTS for flag in ("--degree", "--b", "--t1", "--t2", "--delta", "--nu",
                                "--n", "--k")},
}
_FIELD_FLAGS = ["--preset", "--config", "--e", "--commutative", "--machine"]
_CODE_FLAGS = _FIELD_FLAGS + ["--f", "--g", "--code-config"]
_BCH_FLAGS = _FIELD_FLAGS + ["--ext-preset", "--ext-config", "--alpha", "--b", "--t1",
                             "--t2", "--delta", "--nu", "--verify-distance"]
_COMMAND_FLAGS = {
    "field-info": _FIELD_FLAGS,
    "divisors": _FIELD_FLAGS + ["--poly", "--count-only", "--degree"],
    "code": _CODE_FLAGS + ["--distance", "--dual", "--check-poly", "--strategy"],
    "dual": _CODE_FLAGS,
    "distance": _CODE_FLAGS + ["--strategy"],
    "bch1": _BCH_FLAGS + ["--n"],
    "bch2": _BCH_FLAGS,
    "eval-code": _FIELD_FLAGS + ["--points", "--k"],
    "minpoly": _FIELD_FLAGS + ["--points"],
    "vanish": _FIELD_FLAGS + ["--poly"],
}
# a flag is present when a draw from 0..9 falls in its range: nine in ten for the
# usual flags, one in ten for the rare ones and four in ten for the others
_USUAL = {"--preset", "--poly", "--f", "--g", "--alpha", "--delta", "--n", "--k", "--points"}
_RARE = {"--config", "--code-config", "--ext-config", "--no-such-flag"}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS) + ["no-such-command"]))
    argv = [command]
    for flag in _COMMAND_FLAGS.get(command, []) + ["--no-such-flag"]:
        d = draw(st.integers(0, 9))
        if d < 9 if flag in _USUAL else d == 9 if flag in _RARE else d >= 6:
            # --flag=value, so that a value starting with '-' stays a value
            argv.append(f"{flag}={draw(_VALUES[flag])}" if flag in _VALUES else flag)
    return argv


@given(_argvs())
def test_fuzzed_arguments_exit_with_a_documented_code(argv):
    """Any argv ends in a documented exit status, 0 to 4, returned or raised
    as SystemExit (argparse usage errors); no other exception escapes."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_PARSE, EXIT_GUARD, EXIT_CONDITION), argv
