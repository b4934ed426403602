"""Batch command-line front end.

Subcommands: field-info, divisors, code, dual, distance, bch1, bch2,
eval-code, minpoly, vanish.  Each command returns its report as one
ordered list of rows (key, value, human), and _emit prints it: with
--machine a deterministic key=value line for each row whose key is not
None, else the human line of each row whose human is not None.  A fact
shown both ways is one row; a heading or the matrix text is a human-only
row (key None), a tuple form or count a machine-only row (human None).
Standalone elements appear in both power and tuple form under --machine.

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
    _cost_text,
    _quote,
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


def _field(preset, config):
    """(field, e) of a preset name (e = 1) or of a config file (its e), the
    preset first; None without either."""
    if preset:
        try:
            return get_field(preset), 1
        except KeyError as exc:   # an unknown name is a usage error
            raise ParseError(exc.args[0]) from None
    if config:
        return parse_field_config(_read_config(config))
    return None


def _read_config(path):
    """The text of a config file; bytes that are not UTF-8 are a ParseError.
    Both refusals name the path by _quote, not whole."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{_quote(path)} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise OSError(exc.errno, f"{exc.strerror}: {_quote(path)}") from None


def _ring(args):
    if args.preset and args.config:
        raise ParseError("give either --preset or --config, not both")
    found = _field(args.preset, args.config)
    if found is None:
        raise ParseError("a field is required: --preset or --config")
    field, e = found
    if args.commutative:
        e = field.degree
    elif args.e is not None:
        e = args.e
    return SkewRing(field, e)


def _emit(args, rows):
    """Print a report: key=value for each row with a key under --machine,
    else each row's human line."""
    for key, value, human in rows:
        if args.machine and key is not None:
            print(f"{key}={value}")
        elif not args.machine and human is not None:
            print(human)


def _fact(key, value, label):
    """A row whose human line is 'label = value'."""
    return key, value, f"{label} = {value}"


def _element_rows(key, a, label):
    """An element in power form, with its human line, and in tuple form."""
    return [_fact(key, format_element(a), label),
            (f"{key}_tuple", format_element(a, style="tuple"), None)]


def _points(field, text):
    return [parse_element(field, tok) for tok in text.split(";")]


def _distance_rows(code, d, human):
    """The distance row and the machine-only mds row; the {mds} field of the
    human line becomes " (MDS)" for an MDS code, else nothing."""
    mds = d == code.n - code.k + 1
    return [("distance", d, human.format(mds=" (MDS)" if mds else "")),
            ("mds", str(mds).lower(), None)]


def _matrix_rows(code):
    """The generator matrix from its int rows: genrowN rows for --machine,
    and for the human output a heading and one row of all lines (an empty
    line for k = 0)."""
    lines = [_format_row_i(code.field, row) for row in code._gen_rows_i]
    return [(None, None, "generator matrix:"),
            *((f"genrow{i}", line, None) for i, line in enumerate(lines)),
            (None, None, "\n".join(lines))]


def cmd_field_info(args):
    ring = _ring(args)
    field = ring.field
    return [_fact(key, value, key) for key, value in (
        ("p", field.p),
        ("d", field.degree),
        ("order", field.order),
        ("modpoly", ",".join(str(c) for c in field.modulus)),
        ("primitive", str(field.primitive).lower()),
        ("q", ring.q),
        ("sigma_order", ring.m),
        ("fixed_field_order", ring.q),
        ("center", f"F_{ring.q}[x^{ring.m}]"),
    )]


def cmd_divisors(args):
    f = parse_poly(_ring(args), args.poly)
    degrees = None if args.degree is None else [args.degree]
    result = enumerate_right_divisors(f, degrees=degrees)
    total = count_divisors(result)
    rows = [_fact("f", format_poly(f), "f"), ("n", f.degree, None)]
    if degrees is None:
        nontrivial = count_divisors(result, f.degree, nontrivial=True)
        rows += [("count_total", total, None),
                 ("count_nontrivial", nontrivial, f"{nontrivial} nontrivial monic right "
                                                  f"divisors ({total} including 1 and f)")]
    else:
        rows.append(("count_total", total, f"{total} monic right divisors at degree {args.degree}"))
    for d in sorted(result):
        rows.append((f"count_deg{d}", len(result[d]), f"degree {d}: {len(result[d])}"))
        if not args.count_only:
            rows += [(f"divisor_deg{d}_{i}", g, f"  {g}")
                     for i, g in enumerate(map(format_poly, result[d]))]
    return rows


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
    if args.code_config:
        if args.f or args.g or args.preset or args.config:
            raise ParseError("--code-config replaces --preset/--config/--f/--g")
        ring, f, g = parse_code_config(_read_config(args.code_config))
    else:
        if not (args.f and args.g):
            raise ParseError("--f and --g are required without --code-config")
        ring = _ring(args)
        f = parse_poly(ring, args.f)
        g = parse_poly(ring, args.g)
    return SkewCyclicCode(Modulus(f), g)


def _code_rows(args, distance=False, dual=False, check=False):
    code = _build_code(args)
    rows = [
        _fact("f", format_poly(code.modulus.poly), "modulus f"),
        _fact("g", format_poly(code.generator), "generator g"),
        ("n", code.n, None),
        ("k", code.k, f"length n = {code.n}, dimension k = {code.k}"),
        *_matrix_rows(code),
    ]
    if distance and code.k > 0:
        d = min_distance_exact(code, strategy=args.strategy)
        rows += _distance_rows(code, d, f"exact minimum distance = {d}{{mds}}")
    if dual:
        data = dual_code(code)
        rows += [
            _fact("dual_generator", format_poly(data.code.generator), "dual generator (monic)"),
            _fact("dual_generator_raw", format_poly(data.raw_generator), "dual generator (raw)"),
            _fact("dual_modulus", format_poly(data.code.modulus.poly), "dual modulus"),
        ]
    if check:
        check_poly, c_tilde = check_polynomial(code)
        rows.append(_fact("check_poly", format_poly(check_poly), "check polynomial"))
        rows += _element_rows("check_twist", c_tilde, "check twist constant")
    return rows


def cmd_code(args):
    return _code_rows(args, args.distance, args.dual, args.check_poly)


def cmd_dual(args):
    return _code_rows(args, dual=True)


def cmd_distance(args):
    code = _build_code(args)
    d = min_distance_exact(code, strategy=args.strategy)
    return [("n", code.n, None), ("k", code.k, None),
            *_distance_rows(code, d, f"[{code.n},{code.k}] code: exact minimum distance {d}{{mds}}")]


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


def _bch_spec(args, spec_class, **extra):
    """The spec of a BCH command: the base ring in the extension field (the
    base field itself without one; an --ext-config's e is not used), alpha
    (bch2 searches a normal one for 'auto') and the shared parameters."""
    base_ring = _ring(args)
    ext = _field(args.ext_preset, args.ext_config)
    emb = FieldEmbedding(base_ring.field, ext[0] if ext else base_ring.field)
    if spec_class is Bch2Spec and args.alpha == "auto":
        alpha = find_normal_element(SkewRing(emb.target, base_ring.e))
    else:
        alpha = parse_element(emb.target, args.alpha)
    return spec_class(base_ring=base_ring, emb=emb, alpha=alpha, b=args.b, t1=args.t1,
                      t2=args.t2, delta=args.delta, nu=args.nu, **extra)


def _bch_rows(args, spec, code, designed, g_label, extra):
    """The g / designed distance / modulus / n / k block, the command's own
    rows, and with --verify-distance the exact distance of a nonzero code."""
    rows = [
        _fact("g", format_poly(code.generator), g_label),
        _fact("designed_distance", designed, "designed distance"),
        _fact("modulus", format_poly(code.modulus.poly), "modulus"),
        ("n", code.n, None),
        ("k", code.k, f"[{code.n},{code.k}] code over {spec.base_ring.field.name}"),
        *extra,
    ]
    if args.verify_distance and code.k > 0:
        d = min_distance_exact(code)
        rows += _distance_rows(code, d, f"actual distance = {d} (designed {designed})")
    return rows


def cmd_bch1(args):
    spec = _bch_spec(args, Bch1Spec, n=args.n)
    code, designed = bch1_code(spec)
    max_length = _fact("max_length", bch1_max_length(spec), "maximal admissible length")
    return _bch_rows(args, spec, code, designed, "generator g", [max_length])


def cmd_bch2(args):
    spec = _bch_spec(args, Bch2Spec)
    code, designed = bch2_code(spec)
    S, closed = bch2_exponent_sets(spec)
    exponents = [("exponents", ",".join(map(str, S)), None),
                 ("exponents_closed", ",".join(map(str, closed)),
                  f"exponent set = {S}, coset closure = {closed}")]
    return (_element_rows("alpha", spec.alpha, "normal element alpha")
            + _bch_rows(args, spec, code, designed, "generator g'", exponents))


def cmd_eval_code(args):
    ring = _ring(args)
    code = evaluation_code(ring, _points(ring.field, args.points), args.k)
    d = min_distance_exact(code)
    return [
        ("points", ";".join(format_element(a) for a in code.points), None),
        ("n", code.n, None),
        ("k", code.k, None),
        *_distance_rows(code, d, f"[{code.n},{code.k}] evaluation code, exact distance {d}"),
        *_matrix_rows(code),
    ]


def cmd_minpoly(args):
    ring = _ring(args)
    m = minimal_polynomial(ring, _points(ring.field, args.points))
    return [_fact("minpoly", format_poly(m), "minimal polynomial"), _fact("rank", m.degree, "rank")]


def cmd_vanish(args):
    f = parse_poly(_ring(args), args.poly)
    roots = [format_element(a) for a in vanishing_set(f)]
    return [
        _fact("f", format_poly(f), "f"),
        ("count", len(roots), None),
        ("roots", ";".join(roots), f"{len(roots)} right roots: " + ", ".join(roots)),
    ]


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
        _emit(args, args.func(args))
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GuardExceededError as exc:
        # most guard messages already state their cost
        text = exc.cost and _cost_text(exc.cost)
        cost = "" if not text or f" {text} " in f" {exc} " else f" (estimated cost {text})"
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
