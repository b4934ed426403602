"""Batch command-line front end.

Subcommands: field-info, divisors, code, dual, distance, bch1, bch2,
eval-code, minpoly, vanish.  Output is human-readable by default;
--machine emits deterministic key=value lines (elements in both power and
tuple form where they appear standalone).

Exit status: 0 success, 2 parse/usage errors (an unknown preset name
included), 3 guard exceeded, 4 condition violated, 1 other domain errors.
A flag value that parses but that the field rejects, such as an --e that
does not divide the field degree, is a domain error (1); an x exponent
above 2^16 in polynomial text is a guard refusal (3).
"""

from __future__ import annotations

import argparse
import sys

from .bch import (
    Bch1Spec,
    Bch2Spec,
    bch1_code,
    bch1_max_length,
    bch2_code,
    bch2_exponent_sets,
    evaluation_code,
    find_normal_element,
    min_distance_exact,
)
from .codes import (
    Modulus,
    SkewCyclicCode,
    check_polynomial,
    count_divisors,
    dual_code,
    enumerate_right_divisors,
)
from .errors import (
    ConditionViolatedError,
    GuardExceededError,
    ParseError,
    SkewError,
)
from .fields import FieldEmbedding, get_field, preset_names
from .rootsets import minimal_polynomial, vanishing_set
from .skewpoly import SkewRing
from .textio import (
    _format_row_i,
    format_element,
    format_poly,
    parse_code_config,
    parse_element,
    parse_field_config,
    parse_poly,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_CONDITION = 4
EXIT_DOMAIN = 1


def _add_field_args(sub, ext=False):
    sub.add_argument("--preset", help=f"field preset, one of {', '.join(preset_names())}")
    sub.add_argument("--config", help="path to a key=value field config file")
    sub.add_argument("--e", type=int, default=None,
                     help="sigma exponent: sigma(a) = a^(p^e); default 1 "
                          "(or the config file's e)")
    sub.add_argument("--commutative", action="store_true",
                     help="use sigma = id instead of the --e power")
    if ext:
        sub.add_argument("--ext-preset", help="extension field preset")
        sub.add_argument("--ext-config", help="extension field config file")
    sub.add_argument("--machine", action="store_true",
                     help="deterministic key=value output")


def _resolve_field(args):
    if args.preset and args.config:
        raise ParseError("give either --preset or --config, not both")
    if args.preset:
        return _preset(args.preset), (1 if args.e is None else args.e)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            field, e = parse_field_config(fh.read())
        return field, (e if args.e is None else args.e)
    raise ParseError("a field is required: --preset or --config")


def _resolve_ring(args):
    field, e = _resolve_field(args)
    if args.commutative:
        e = field.degree
    return SkewRing(field, e)


def _preset(name):
    try:
        return get_field(name)
    except KeyError as exc:   # an unknown name is a usage error
        raise ParseError(exc.args[0]) from None


def _resolve_ext_field(args):
    if getattr(args, "ext_preset", None):
        return _preset(args.ext_preset)
    if getattr(args, "ext_config", None):
        with open(args.ext_config, "r", encoding="utf-8") as fh:
            field, _ = parse_field_config(fh.read())
        return field
    return None


def _emit(args, pairs, human_lines):
    if args.machine:
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        for line in human_lines:
            print(line)


def _element_pairs(key, a):
    return [
        (key, format_element(a)),
        (f"{key}_tuple", format_element(a, style="tuple")),
    ]


def _is_mds(code, d):
    return d == code.n - code.k + 1


def _distance_pairs(code, d):
    return [("distance", d), ("mds", str(_is_mds(code, d)).lower())]


def cmd_field_info(args):
    ring = _resolve_ring(args)
    field = ring.field
    pairs = [
        ("p", field.p),
        ("d", field.degree),
        ("order", field.order),
        ("modpoly", ",".join(str(c) for c in field.modulus)),
        ("primitive", str(field.primitive).lower()),
        ("q", ring.q),
        ("sigma_order", ring.m),
        ("fixed_field_order", ring.q),
        ("center", f"F_{ring.q}[x^{ring.m}]"),
    ]
    human = [f"{k} = {v}" for k, v in pairs]
    _emit(args, pairs, human)
    return EXIT_OK


def cmd_divisors(args):
    ring = _resolve_ring(args)
    f = parse_poly(ring, args.poly)
    degrees = args.degree if args.degree is None else [args.degree]
    result = enumerate_right_divisors(f, degrees=degrees)
    n = f.degree
    total = count_divisors(result)
    nontrivial = (
        count_divisors(result, n, nontrivial=True) if degrees is None else None
    )
    pairs = [("f", format_poly(f)), ("n", n), ("count_total", total)]
    human = [f"f = {format_poly(f)}"]
    if nontrivial is not None:
        pairs.append(("count_nontrivial", nontrivial))
        human.append(
            f"{nontrivial} nontrivial monic right divisors "
            f"({total} including 1 and f)"
        )
    else:
        human.append(f"{total} monic right divisors at degree {args.degree}")
    for d in sorted(result):
        pairs.append((f"count_deg{d}", len(result[d])))
        if not args.count_only:
            for i, g in enumerate(result[d]):
                pairs.append((f"divisor_deg{d}_{i}", format_poly(g)))
    if not args.count_only:
        for d in sorted(result):
            human.append(f"degree {d}: {len(result[d])}")
            human.extend(f"  {format_poly(g)}" for g in result[d])
    else:
        human.extend(f"degree {d}: {len(result[d])}" for d in sorted(result))
    _emit(args, pairs, human)
    return EXIT_OK


def _add_code_args(sub, *flags, strategy=False):
    """The field flags, --f, --g and --code-config, then the given switches
    and, when asked, the distance --strategy."""
    _add_field_args(sub)
    sub.add_argument("--f")
    sub.add_argument("--g")
    sub.add_argument("--code-config", help="file with field config plus f= and g= lines")
    for flag in flags:
        sub.add_argument(flag, action="store_true")
    if strategy:
        sub.add_argument("--strategy", choices=("auto", "columns", "messages"),
                         default="auto")


def _build_code(args):
    if getattr(args, "code_config", None):
        if args.f or args.g or args.preset or args.config:
            raise ParseError("--code-config replaces --preset/--config/--f/--g")
        with open(args.code_config, "r", encoding="utf-8") as fh:
            ring, f, g = parse_code_config(fh.read())
    else:
        if not (args.f and args.g):
            raise ParseError("--f and --g are required without --code-config")
        ring = _resolve_ring(args)
        f = parse_poly(ring, args.f)
        g = parse_poly(ring, args.g)
    return SkewCyclicCode(Modulus(f), g)


def _matrix_report(args, code, pairs, human):
    """The generator matrix from its int rows: genrowN pairs with --machine,
    else the human matrix text."""
    lines = [_format_row_i(code.field, row) for row in code._gen_rows_i]
    if args.machine:
        pairs.extend((f"genrow{i}", line) for i, line in enumerate(lines))
    else:
        human.append("\n".join(lines))


def _code_report(args, code, with_distance=False, with_dual=False, with_check=False):
    pairs = [
        ("f", format_poly(code.modulus.poly)),
        ("g", format_poly(code.generator)),
        ("n", code.n),
        ("k", code.k),
    ]
    human = [
        f"modulus f = {format_poly(code.modulus.poly)}",
        f"generator g = {format_poly(code.generator)}",
        f"length n = {code.n}, dimension k = {code.k}",
        "generator matrix:",
    ]
    _matrix_report(args, code, pairs, human)
    if with_distance and code.k > 0:
        d = min_distance_exact(code, strategy=args.strategy)
        pairs.extend(_distance_pairs(code, d))
        human.append(f"exact minimum distance = {d}"
                     + (" (MDS)" if _is_mds(code, d) else ""))
    if with_dual:
        data = dual_code(code)
        pairs.append(("dual_generator", format_poly(data.code.generator)))
        pairs.append(("dual_generator_raw", format_poly(data.raw_generator)))
        pairs.append(("dual_modulus", format_poly(data.code.modulus.poly)))
        human.append(f"dual generator (monic) = {format_poly(data.code.generator)}")
        human.append(f"dual generator (raw) = {format_poly(data.raw_generator)}")
        human.append(f"dual modulus = {format_poly(data.code.modulus.poly)}")
    if with_check:
        check, c_tilde = check_polynomial(code)
        pairs.append(("check_poly", format_poly(check)))
        pairs.extend(_element_pairs("check_twist", c_tilde))
        human.append(f"check polynomial = {format_poly(check)}")
        human.append(f"check twist constant = {format_element(c_tilde)}")
    _emit(args, pairs, human)


def cmd_code(args):
    code = _build_code(args)
    _code_report(
        args, code,
        with_distance=args.distance,
        with_dual=args.dual,
        with_check=args.check_poly,
    )
    return EXIT_OK


def cmd_dual(args):
    code = _build_code(args)
    _code_report(args, code, with_dual=True)
    return EXIT_OK


def cmd_distance(args):
    code = _build_code(args)
    d = min_distance_exact(code, strategy=args.strategy)
    pairs = [("n", code.n), ("k", code.k)] + _distance_pairs(code, d)
    human = [f"[{code.n},{code.k}] code: exact minimum distance {d}"
             + (" (MDS)" if _is_mds(code, d) else "")]
    _emit(args, pairs, human)
    return EXIT_OK


def _bch_common_args(sub):
    sub.add_argument("--alpha", required=True,
                     help="element token in the extension field, or 'auto' (bch2)")
    sub.add_argument("--b", type=int, default=0)
    sub.add_argument("--t1", type=int, default=1)
    sub.add_argument("--t2", type=int, default=1)
    sub.add_argument("--delta", type=int, required=True)
    sub.add_argument("--nu", type=int, default=0)
    sub.add_argument("--verify-distance", action="store_true",
                     help="run the exact distance oracle")


def _verify_distance(args, code, designed, pairs, human):
    """With --verify-distance, append the exact distance of a nonzero code."""
    if args.verify_distance and code.k > 0:
        d = min_distance_exact(code)
        pairs.extend(_distance_pairs(code, d))
        human.append(f"actual distance = {d} (designed {designed})")


def _bch_tower(args):
    base_ring = _resolve_ring(args)
    ext_field = _resolve_ext_field(args)
    if ext_field is None:
        ext_field = base_ring.field
    emb = FieldEmbedding(base_ring.field, ext_field)
    return base_ring, emb


def cmd_bch1(args):
    base_ring, emb = _bch_tower(args)
    alpha = parse_element(emb.target, args.alpha)
    spec = Bch1Spec(
        base_ring=base_ring, emb=emb, alpha=alpha,
        b=args.b, t1=args.t1, t2=args.t2,
        delta=args.delta, nu=args.nu, n=args.n,
    )
    code, designed = bch1_code(spec)
    g = code.generator
    max_length = bch1_max_length(spec)
    pairs = [
        ("g", format_poly(g)),
        ("designed_distance", designed),
        ("modulus", format_poly(code.modulus.poly)),
        ("n", code.n),
        ("k", code.k),
        ("max_length", max_length),
    ]
    human = [
        f"generator g = {format_poly(g)}",
        f"designed distance = {designed}",
        f"modulus = {format_poly(code.modulus.poly)}",
        f"[{code.n},{code.k}] code over {base_ring.field.name}",
        f"maximal admissible length = {max_length}",
    ]
    _verify_distance(args, code, designed, pairs, human)
    _emit(args, pairs, human)
    return EXIT_OK


def cmd_bch2(args):
    base_ring, emb = _bch_tower(args)
    if args.alpha == "auto":
        alpha = find_normal_element(SkewRing(emb.target, base_ring.e))
    else:
        alpha = parse_element(emb.target, args.alpha)
    spec = Bch2Spec(
        base_ring=base_ring, emb=emb, alpha=alpha,
        b=args.b, t1=args.t1, t2=args.t2, delta=args.delta, nu=args.nu,
    )
    code, designed = bch2_code(spec)
    g = code.generator
    S, closed = bch2_exponent_sets(spec)
    pairs = [
        ("alpha", format_element(alpha)),
        ("alpha_tuple", format_element(alpha, style="tuple")),
        ("g", format_poly(g)),
        ("designed_distance", designed),
        ("modulus", format_poly(code.modulus.poly)),
        ("n", code.n),
        ("k", code.k),
        ("exponents", ",".join(map(str, S))),
        ("exponents_closed", ",".join(map(str, closed))),
    ]
    human = [
        f"normal element alpha = {format_element(alpha)}",
        f"generator g' = {format_poly(g)}",
        f"designed distance = {designed}",
        f"modulus = {format_poly(code.modulus.poly)}",
        f"[{code.n},{code.k}] code over {base_ring.field.name}",
        f"exponent set = {S}, coset closure = {closed}",
    ]
    _verify_distance(args, code, designed, pairs, human)
    _emit(args, pairs, human)
    return EXIT_OK


def cmd_eval_code(args):
    ring = _resolve_ring(args)
    points = [parse_element(ring.field, tok) for tok in args.points.split(";")]
    code = evaluation_code(ring, points, args.k)
    d = min_distance_exact(code)
    pairs = [
        ("points", ";".join(format_element(a) for a in code.points)),
        ("n", code.n),
        ("k", code.k),
    ] + _distance_pairs(code, d)
    human = [
        f"[{code.n},{code.k}] evaluation code, exact distance {d}",
        "generator matrix:",
    ]
    _matrix_report(args, code, pairs, human)
    _emit(args, pairs, human)
    return EXIT_OK


def cmd_minpoly(args):
    ring = _resolve_ring(args)
    points = [parse_element(ring.field, tok) for tok in args.points.split(";")]
    m = minimal_polynomial(ring, points)
    pairs = [("minpoly", format_poly(m)), ("rank", m.degree)]
    human = [f"minimal polynomial = {format_poly(m)}", f"rank = {m.degree}"]
    _emit(args, pairs, human)
    return EXIT_OK


def cmd_vanish(args):
    ring = _resolve_ring(args)
    f = parse_poly(ring, args.poly)
    roots = vanishing_set(f)
    pairs = [
        ("f", format_poly(f)),
        ("count", len(roots)),
        ("roots", ";".join(format_element(a) for a in roots)),
    ]
    human = [
        f"f = {format_poly(f)}",
        f"{len(roots)} right roots: " + ", ".join(format_element(a) for a in roots),
    ]
    _emit(args, pairs, human)
    return EXIT_OK


def _code_args(sub):
    _add_code_args(sub, "--distance", "--dual", "--check-poly", strategy=True)


def _distance_args(sub):
    _add_code_args(sub, strategy=True)


def _divisors_args(sub):
    _add_field_args(sub)
    sub.add_argument("--poly", required=True)
    sub.add_argument("--count-only", action="store_true")
    sub.add_argument("--degree", type=int, default=None)


def _bch1_args(sub):
    _add_field_args(sub, ext=True)
    _bch_common_args(sub)
    sub.add_argument("--n", type=int, required=True)


def _bch2_args(sub):
    _add_field_args(sub, ext=True)
    _bch_common_args(sub)


def _eval_code_args(sub):
    _add_field_args(sub)
    sub.add_argument("--points", required=True,
                     help="semicolon-separated element tokens")
    sub.add_argument("--k", type=int, required=True)


def _minpoly_args(sub):
    _add_field_args(sub)
    sub.add_argument("--points", required=True)


def _vanish_args(sub):
    _add_field_args(sub)
    sub.add_argument("--poly", required=True)


# (name, help, arguments, handler) of each subcommand, in help order
_COMMANDS = (
    ("field-info", "field and ring facts", _add_field_args, cmd_field_info),
    ("divisors", "enumerate monic right divisors", _divisors_args, cmd_divisors),
    ("code", "code report from modulus and generator", _code_args, cmd_code),
    ("dual", "dual code of a constacyclic code", _add_code_args, cmd_dual),
    ("distance", "exact minimum distance", _distance_args, cmd_distance),
    ("bch1", "first-kind skew-BCH construction", _bch1_args, cmd_bch1),
    ("bch2", "second-kind skew-BCH construction", _bch2_args, cmd_bch2),
    ("eval-code", "evaluation code from points", _eval_code_args, cmd_eval_code),
    ("minpoly", "minimal polynomial of a point set", _minpoly_args, cmd_minpoly),
    ("vanish", "vanishing set of a polynomial", _vanish_args, cmd_vanish),
)


def build_parser(argv=None):
    """The parser with every subcommand declared.  When argv[0] names a
    subcommand, only that one gets its arguments: argparse hands the rest
    of argv to it alone, and the top-level help and choice errors read
    only the names.  Otherwise every subcommand gets its arguments."""
    parser = argparse.ArgumentParser(
        prog="skewcodes",
        description="Exact skew-polynomial rings and skew-cyclic codes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in (c[0] for c in _COMMANDS) else None
    for name, text, add_args, func in _COMMANDS:
        sub = subs.add_parser(name, help=text)
        if only in (None, name):
            add_args(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GuardExceededError as exc:
        # most guard messages already state their cost
        shown = not exc.cost or str(exc.cost) in str(exc).split()
        cost = "" if shown else f" (estimated cost {exc.cost})"
        print(f"guard exceeded: {exc}{cost}", file=sys.stderr)
        return EXIT_GUARD
    except ConditionViolatedError as exc:
        print(f"condition violated: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except (SkewError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
