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


@pytest.mark.parametrize("machine,line", [
    (True, "count_nontrivial=0"),
    (False, "0 nontrivial monic right divisors (1 including 1 and f)"),
])
def test_divisors_of_a_constant_count_no_nontrivial_divisor(capsys, machine, line):
    """f = 1 has the one divisor 1, at degree 0 = n, counted out once."""
    code, out, _ = run_cli(capsys, "divisors", "--preset", "F4", "--poly", "1",
                           *(["--machine"] if machine else []))
    assert code == EXIT_OK
    assert line in out.splitlines()


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


@pytest.mark.parametrize("field", [("--preset", "F2"), ("--config", "p=3\ne=1\nd=2\nmodpoly=1,0,1\n")])
def test_bch2_auto_normal_without_a_primitive_x(capsys, tmp_path, field):
    """--alpha auto on F2, whose one unit is 1, and on F_3[x]/(x^2 + 1),
    where x has order 4 and no power of x is normal."""
    flag, value = field
    if flag == "--config":
        value = tmp_path / "f9.cfg"
        value.write_text(field[1])
    code, out, _ = run_cli(capsys, "bch2", flag, str(value), "--alpha", "auto",
                           "--delta", "2", "--machine")
    assert code == EXIT_OK
    assert machine_dict(out)["alpha_tuple"] in ("1", "1,1", "2,1", "1,2", "2,2")


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


def test_code_config_applies_e_as_config_does(capsys, tmp_path):
    """--e after --code-config re-makes f and g over the ring of that e, as
    it does after --config with --f and --g: x^2 + a^4 x + a^9 right-divides
    x^4 + 1 over F_16 at e = 2 but not at the file's e = 1."""
    field = "p=2\ne=1\nd=4\nmodpoly=1,1,0,0,1\nprimitive=true\n"
    (tmp_path / "c.cfg").write_text(field + "f=x^4+1\ng=x^2+a^4*x+a^9\n")
    (tmp_path / "field.cfg").write_text(field)
    code, out, _ = run_cli(capsys, "code", "--code-config", str(tmp_path / "c.cfg"),
                           "--e", "2", "--machine")
    assert code == EXIT_OK and "genrow1=" in out
    assert (code, out) == run_cli(capsys, "code", "--config", str(tmp_path / "field.cfg"),
                                  "--f", "x^4+1", "--g", "x^2+a^4*x+a^9", "--e", "2",
                                  "--machine")[:2]
    assert run_cli(capsys, "code", "--code-config", str(tmp_path / "c.cfg"))[0] != EXIT_OK


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
    assert err == "guard exceeded: matrix of 4294967296 entries exceeds 2^20\n"
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


@pytest.mark.parametrize("flag", ["--config", "--code-config"])
def test_config_file_not_utf8_is_a_parse_error(capsys, tmp_path, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_bytes(b"p=2\xff\n")
    code, out, err = run_cli(capsys, "distance" if flag == "--code-config" else "field-info",
                             flag, "bad.cfg")
    assert code == EXIT_PARSE and out == ""
    assert err == "parse error: 'bad.cfg' is not UTF-8: invalid start byte at byte 3\n"
    # a long path is named by a prefix and its length
    deep = tmp_path.joinpath(*["d" * 50] * 3)
    deep.mkdir(parents=True)
    (deep / "bad.cfg").write_bytes(b"p=2\xff\n")
    code, out, err = run_cli(capsys, "distance" if flag == "--code-config" else "field-info",
                             flag, str(deep / "bad.cfg"))
    assert code == EXIT_PARSE and out == ""
    assert "characters) is not UTF-8" in err and len(err) < 200


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


def test_bch1_zero_alpha_exits_condition(capsys):
    code, out, err = run_cli(
        capsys, "bch1", "--preset", "F4", "--alpha", "0", "--b", "1", "--delta", "3",
        "--n", "4", "--verify-distance", "--machine",
    )
    assert code == EXIT_CONDITION and out == ""
    assert err == "condition violated: alpha must be nonzero\n"


def test_bch1_length_above_2_16_exits_guard(capsys, tmp_path):
    """Over F_65539, where 2 is primitive, alpha = 2 has no unit bracket
    below 65538, so length 65537 is admissible and meets the 2^16 guard."""
    cfg = tmp_path / "f65539.cfg"
    cfg.write_text("p=65539\ne=1\nd=1\nmodpoly=65537,1\n")
    code, out, err = run_cli(capsys, "bch1", "--config", str(cfg), "--alpha", "(2)",
                             "--delta", "2", "--n", "65537")
    assert code == EXIT_GUARD and out == ""
    assert err == "guard exceeded: code length 65537 exceeds 2^16\n"


@pytest.mark.parametrize("argv,message", [
    (("bch1", "--preset", "F16", "--alpha", "a", "--delta", "2", "--nu", "100000000",
      "--n", "3"),
     "designed exponent set of 100000001 exceeds 2^20"),
    (("bch1", "--preset", "F16", "--alpha", "a", "--delta", "100000000", "--n", "3"),
     "designed exponent set of 99999999 exceeds 2^20"),
    (("bch2", "--preset", "F4", "--alpha", "auto", "--delta", "2", "--nu", "2000000"),
     "designed exponent set of 2000001 exceeds 2^20"),
])
def test_huge_bch_parameters_exit_guard(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_GUARD and out == ""
    assert message in err


# -- hostile input: every size-bearing value at its guard, one past it, and huge --------

def _field_config(p, modpoly):
    return f"p={p}\ne=1\nd={len(modpoly) - 1}\nmodpoly={','.join(map(str, modpoly))}\n"


_HUGE = "9" * 4000   # int() reads it; the product of two passes str()'s 4,300-digit limit
_F65539 = _field_config(65539, (65537, 1))      # 2 is primitive: no unit bracket
_F1048573 = _field_config(1048573, (1048571, 1))
_BCH1_F16 = ("bch1", "--preset", "F16", "--alpha", "a")
_BCH1_CONFIG = ("bch1", "--alpha", "(2)", "--delta", "2")
_MERSENNE_127 = 2 ** 127 - 1
_ENUM_REFUSAL = "guard exceeded: divisor enumeration cost at least 10^100 exceeds 2^25\n"

# (argv, field config given as --config or None, exit code, stderr or None)
_HOSTILE_CALLS = [
    # --n of bch1: lengths above 2^16 are refused before the unit-bracket scan
    (_BCH1_F16 + ("--delta", "2", "--n", "65536"), None, EXIT_CONDITION, None),
    (_BCH1_F16 + ("--delta", "2", "--n", "65537"), None, EXIT_GUARD,
     "guard exceeded: code length 65537 exceeds 2^16\n"),
    (_BCH1_F16 + ("--delta", "2", "--n", _HUGE), None, EXIT_GUARD,
     "guard exceeded: code length at least 10^100 exceeds 2^16\n"),
    (_BCH1_CONFIG + ("--n", "65536"), _F65539, EXIT_OK, ""),
    (_BCH1_CONFIG + ("--n", "65537"), _F65539, EXIT_GUARD, None),
    (_BCH1_CONFIG + ("--n", "1000000"), _F1048573, EXIT_GUARD,
     "guard exceeded: code length 1000000 exceeds 2^16\n"),
    # --delta and --nu: (delta - 1) * (nu + 1) = 2^20 designed exponents at the guard
    (_BCH1_F16 + ("--delta", "1025", "--nu", "1023", "--n", "3"), None, EXIT_CONDITION, None),
    (_BCH1_F16 + ("--delta", "1026", "--nu", "1023", "--n", "3"), None, EXIT_GUARD,
     "guard exceeded: designed exponent set of 1049600 exceeds 2^20\n"),
    (_BCH1_F16 + ("--delta", "1025", "--nu", "1024", "--n", "3"), None, EXIT_GUARD, None),
    (_BCH1_F16 + ("--delta", _HUGE, "--n", "3"), None, EXIT_GUARD, None),
    (_BCH1_F16 + ("--delta", _HUGE, "--nu", _HUGE, "--n", "3"), None, EXIT_GUARD,
     "guard exceeded: designed exponent set of at least 10^100 exceeds 2^20\n"),
    (("bch2", "--preset", "F4", "--alpha", "auto", "--delta", "2", "--nu", _HUGE), None,
     EXIT_GUARD, None),
    # x exponents: at most 2^16, and at most 100 digits before int() reads them
    (("vanish", "--preset", "F2", "--poly", "x^65536+1"), None, EXIT_OK, ""),
    (("vanish", "--preset", "F2", "--poly", "x^65537+1"), None, EXIT_GUARD,
     "guard exceeded: x exponent 65537 exceeds 2^16\n"),
    (("vanish", "--preset", "F2", "--poly", "x^" + "9" * 100), None, EXIT_GUARD,
     f"guard exceeded: x exponent {'9' * 100} exceeds 2^16\n"),
    (("vanish", "--preset", "F2", "--poly", "x^" + _HUGE), None, EXIT_GUARD,
     "guard exceeded: x exponent of 4000 digits exceeds 2^16\n"),
    # a divisor count whose cost is a sum of 30,001 powers of 27
    (("divisors", "--preset", "F27", "--e", "1", "--poly", "x^30000+1", "--count-only"),
     None, EXIT_GUARD, _ENUM_REFUSAL),
    (("divisors", "--preset", "F4", "--e", "1", "--poly", "x^65536+1", "--count-only",
      "--machine"), None, EXIT_GUARD, _ENUM_REFUSAL),
    # config p: trial division below 2^16 decides each p < 2^32
    (("field-info",), _field_config(4294967291, (0, 1)), EXIT_OK, ""),
    (("field-info",), _field_config(4294967311, (0, 1)), EXIT_GUARD,
     "guard exceeded: primality check of 4294967311 needs 65535 trial divisors, "
     "exceeds 2^16\n"),
    (("field-info",), _field_config(_MERSENNE_127 ** 30, (0, 1)), EXIT_GUARD,
     "guard exceeded: primality check of at least 10^100 needs at least 10^100 "
     "trial divisors, exceeds 2^16\n"),
    # config d: p^(d//2) at most 2^16
    (("field-info",), _field_config(2, (1, 1, 0, 1, 0, 0, 1) + (0,) * 26 + (1,)), EXIT_OK, ""),
    (("field-info",), _field_config(2, (1, 1) + (0,) * 32 + (1,)), EXIT_GUARD, None),
    (("field-info",), _field_config(2, (1,) + (0,) * 29999 + (1,)), EXIT_GUARD,
     "guard exceeded: field modulus of degree 30000 over F_2 is out of range: "
     "2^15000 exceeds 2^16 (estimated cost at least 10^100)\n"),
    # a root sweep over F_2^21 (x^21 + x^2 + 1): more than 2^20 points
    (("vanish", "--poly", "x+1"), _field_config(2, (1, 0, 1) + (0,) * 18 + (1,)), EXIT_GUARD,
     "guard exceeded: root sweep limited to 2^20 points, domain has 2097152\n"),
    # a commutative root sweep of 4,095 points of degree 65,000: 4095 * 65001 steps
    (("vanish", "--preset", "F2_12", "--commutative", "--poly", "x^65000+1"), None, EXIT_GUARD,
     "guard exceeded: root search of 266179095 steps exceeds 2^25\n"),
    # both flags of one pair: the extension pair as the base pair, and --e with --commutative
    (_BCH1_F16 + ("--delta", "2", "--n", "15", "--ext-preset", "F16", "--ext-config",
                  "no-such-file.cfg"), None, EXIT_PARSE,
     "parse error: give either --ext-preset or --ext-config, not both\n"),
    (("field-info", "--preset", "F16", "--commutative", "--e", "2"), None, EXIT_PARSE,
     "parse error: give either --e or --commutative, not both\n"),
    # a composite p of 4,000 digits, named by its size
    (("field-info",), _field_config(_HUGE, (0, 1)), EXIT_DOMAIN,
     "error: characteristic at least 10^100 is not prime\n"),
    # eval-code: n rows of n points, refused past 2^20 entries before any is built
    (("eval-code", "--preset", "F16", "--points", ";".join(["a"] * 1025), "--k", "2"), None,
     EXIT_GUARD, "guard exceeded: Vandermonde matrix of 1050625 entries exceeds 2^20\n"),
    # a coefficient-tuple digit longer than p in decimal, refused before int() reads it
    (("vanish", "--preset", "F4", "--poly", "(" + "1" * 5000 + ")*x+1"), None, EXIT_PARSE,
     f"parse error: element tuple '{'1' * 60}'... (5000 characters) out of range for F4\n"),
    # an unknown preset name and an unopenable config path, each quoted by a prefix
    (("field-info", "--preset", "F" * 5000), None, EXIT_PARSE,
     f"parse error: unknown field preset '{'F' * 60}'... (5000 characters); "
     "choices: ['F16', 'F2', 'F27', 'F2_12', 'F2_6', 'F4', 'F8', 'F9']\n"),
    (("field-info", "--config", "c" * 5000), None, EXIT_DOMAIN, None),
    # a negative nu leaves bch2 no designed exponent; refused like bch1's
    (("bch2", "--preset", "F4", "--ext-preset", "F16", "--alpha", "auto", "--delta", "3",
      "--nu", "-1"), None, EXIT_CONDITION, "condition violated: need nu >= 0\n"),
    # a minimal polynomial of 4,097 points of the commutative F_2^13 (every
    # irreducible of degree 13 is primitive): 4,097^2 fold steps
    (("minpoly", "--commutative", "--points", ";".join(f"a^{k}" for k in range(4097))),
     _field_config(2, (1, 1, 0, 1, 1) + (0,) * 8 + (1,)) + "primitive=true\n", EXIT_GUARD,
     "guard exceeded: minimal polynomial fold of 16785409 point-rank steps exceeds 2^24\n"),
]


@pytest.mark.parametrize("argv,config,exit_code,err", _HOSTILE_CALLS,
                         ids=[f"row{i}" for i in range(len(_HOSTILE_CALLS))])
def test_hostile_input_exits_fast(capsys, tmp_path, argv, config, exit_code, err):
    """Each call ends within about a second with its documented exit code;
    a refusal writes one short printable line, its cost in decimal below
    10^100 and by its size past that, and a long token by a prefix and its
    length."""
    if config is not None:
        path = tmp_path / "field.cfg"
        path.write_text(config)
        argv += ("--config", str(path))
    start = time.perf_counter()
    code, out, got = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == exit_code
    if code != EXIT_OK:
        assert out == "" and got.count("\n") == 1 and len(got) < 200
    if err is not None:
        assert got == err


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
# Config files, written once per module under the {configs} placeholder: F_9
# with x of order 4 (not primitive), a primitive F_8, F_25, and a code over F_9.
_CONFIG_FILES = {
    "f9.cfg": "p=3\ne=1\nd=2\nmodpoly=1,0,1\n",
    "f8.cfg": "p=2\ne=1\nd=3\nmodpoly=1,1,0,1\nprimitive=true\n",
    "f25.cfg": "p=5\ne=1\nd=2\nmodpoly=2,1,1\n",
    "code.cfg": "p=3\ne=1\nd=2\nmodpoly=1,0,1\nf=x^4-1\ng=x^2+1\n",
}
_CONFIGS = st.sampled_from(["no-such-dir/no-such-file.cfg",
                            *(f"{{configs}}/{name}" for name in _CONFIG_FILES)])
_VALUES = {
    "--preset": _PRESETS, "--ext-preset": _PRESETS, "--e": _INTS,
    "--config": _CONFIGS, "--code-config": _CONFIGS, "--ext-config": _CONFIGS,
    "--poly": _POLYS, "--f": _POLYS, "--g": _POLYS, "--points": _POINTS,
    "--alpha": _ELEMENTS, "--strategy": _mostly(["auto", "columns", "messages"], ["x"]),
    **{flag: _INTS for flag in ("--degree", "--b", "--t1", "--t2", "--delta", "--nu",
                                "--n", "--k")},
}
_FIELD_FLAGS = ["--config", "--preset", "--e", "--commutative", "--machine"]
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
# usual flags, one in ten for the rare ones and four in ten for the others; after
# --config, --preset comes one time in ten
_USUAL = {"--preset", "--poly", "--f", "--g", "--alpha", "--delta", "--n", "--k", "--points"}
_RARE = {"--code-config", "--ext-config", "--no-such-flag"}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS) + ["no-such-command"]))
    argv = [command]
    for flag in _COMMAND_FLAGS.get(command, []) + ["--no-such-flag"]:
        d = draw(st.integers(0, 9))
        if flag == "--preset" and argv[-1].startswith("--config="):
            present = d == 9
        else:
            present = d < 9 if flag in _USUAL else d == 9 if flag in _RARE else d >= 6
        if present:
            # --flag=value, so that a value starting with '-' stays a value
            argv.append(f"{flag}={draw(_VALUES[flag])}" if flag in _VALUES else flag)
    return argv


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    for name, text in _CONFIG_FILES.items():
        (path / name).write_text(text)
    return path


@given(_argvs())
def test_fuzzed_arguments_exit_with_a_documented_code(configs, argv):
    """Any argv ends in a documented exit status, 0 to 4, returned or raised
    as SystemExit (argparse usage errors); no other exception escapes."""
    argv = [arg.replace("{configs}", str(configs)) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_PARSE, EXIT_GUARD, EXIT_CONDITION), argv
