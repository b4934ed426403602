"""The library has no runtime dependencies: every module imports only from
the package itself or from the standard library."""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "skewcodes"


def _imported_roots(tree):
    """(line, top-level module) for each absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_relative_or_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 11
    foreign = [
        f"{path.name}:{line}: {root}"
        for path in files
        for line, root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root != "skewcodes" and root not in sys.stdlib_module_names
    ]
    assert foreign == []


# Standard-library modules a cold CLI call must not pay for: dataclasses
# alone pulls in inspect, ast, dis and tokenize.
HEAVY_MODULES = ("dataclasses", "inspect")


def test_cli_import_loads_no_heavy_standard_modules():
    """A fresh interpreter that imports skewcodes.cli, and so the whole
    library, loads none of HEAVY_MODULES."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.parent) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    probe = ("import sys, skewcodes.cli; "
             f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# The table kernel's tables, read as its attributes, and the limit that
# decides between table and polynomial arithmetic.
TABLE_ATTRIBUTES = {"exp", "log", "frob"}
TABLE_LIMIT = "_TABLE_LIMIT"
SCALAR_METHODS = ("mul_i", "inv_i", "pow_i", "frob_i")
# the field's former copies of the kernel's tables, and the former size rule
# of the full digit-add table
RETIRED_TABLE_NAMES = {"_exp", "_log", "_frob_tables", "_add_table", "_ADD_TABLE_LIMIT"}


def _table_references(node):
    """(line, name) for each table attribute, and each attribute, name or
    import of the table limit."""
    for sub in ast.walk(node):
        name = _name(sub) if isinstance(sub, (ast.Attribute, ast.Name, ast.alias)) else None
        if name == TABLE_LIMIT or isinstance(sub, ast.Attribute) and name in TABLE_ATTRIBUTES:
            yield sub.lineno, name


def test_the_kernel_is_the_one_owner_of_the_tables():
    """fields.py names none of the field's former table copies nor the
    former add-table limit: the kernel holds every table, and the full
    digit-add table follows the one-chunk rule of _chunk."""
    tree = ast.parse((SRC / "fields.py").read_text(encoding="utf-8"))
    assert {_name(sub) for sub in ast.walk(tree)} & RETIRED_TABLE_NAMES == set()


def test_tables_stay_behind_the_field_kernel():
    """Only fields.py touches the tables, and there neither the scalar
    methods nor the embedding do: they go through FieldSpec.kernel(), so
    the choice between tables and polynomials is made in one place."""
    outside = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py")) if path.name != "fields.py"
        for line, name in _table_references(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert outside == []
    tree = ast.parse((SRC / "fields.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def methods(cls, names=None):
        return {f"{cls}.{fn.name}": fn for fn in classes[cls].body
                if isinstance(fn, ast.FunctionDef) and (names is None or fn.name in names)}

    checked = {**methods("FieldSpec", SCALAR_METHODS), **methods("FieldEmbedding")}
    assert len(checked) > len(SCALAR_METHODS)
    inside = [
        f"{qualname}:{line}: {name}"
        for qualname, fn in checked.items()
        for line, name in _table_references(fn)
    ]
    assert inside == []


ADDERS = {"xor", "_chunked_adder", "_digit_add_table"}
SCALAR_ADDITION = {"add_i", "sub_i", "neg_i"}


def test_one_adder_per_field():
    """In fields.py only _make_kernel chooses an adder, and builds the
    digit-add table it reads; _powers steps the antilog table with the adder
    it is given.  No FieldSpec method sets a scalar addition, and the
    polynomial kernel has no addition of its own."""
    tree = ast.parse((SRC / "fields.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    functions = [fn for node in tree.body
                 for fn in (node.body if isinstance(node, ast.ClassDef) else [node])
                 if isinstance(fn, ast.FunctionDef)]
    users = {
        fn.name
        for fn in functions
        for sub in ast.walk(fn)
        if getattr(sub, "id", getattr(sub, "attr", None)) in ADDERS
    }
    assert users == {"_make_kernel"}
    assigned = [
        f"FieldSpec:{sub.lineno}: {sub.attr}"
        for sub in ast.walk(classes["FieldSpec"])
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
        and sub.attr in SCALAR_ADDITION
    ]
    assert assigned == []
    assert "add" not in {fn.name for fn in classes["_PolyKernel"].body
                         if isinstance(fn, ast.FunctionDef)}


KERNEL_OPERATIONS = {"__init__", "neg", "mul", "inv", "pow", "frobenius",
                     "scale", "addmul", "dot", "evaluate", "eliminate"}


def test_right_division_has_no_kernel_step_of_its_own():
    """Right division makes each quotient digit from the kernel's scalar
    operations and one addmul, so no class in fields.py has a division
    step, and each kernel defines only scalar and row operations."""
    tree = ast.parse((SRC / "fields.py").read_text(encoding="utf-8"))
    methods = {node.name: {fn.name for fn in node.body if isinstance(fn, ast.FunctionDef)}
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert [name for name, fns in methods.items() if "divstep" in fns] == []
    for name in ("_TableKernel", "_XorKernel", "_PolyKernel"):
        assert methods[name] <= KERNEL_OPERATIONS, name


TABLE_BUILDERS = {"_digit_add_table", "_powers"}


def test_tables_are_built_only_by_make_kernel():
    """FieldSpec._make_kernel is the one function in fields.py that calls a
    table builder (the digit-add and antilog tables; it steps the log and
    Frobenius tables from the antilog table itself), and it hands the
    tables to the kernel it returns: _TableKernel.__init__ stores them from
    its own arguments, and nothing else in fields.py stores a table,
    whole or entry by entry."""
    functions = dict(_functions(ast.parse((SRC / "fields.py").read_text(encoding="utf-8"))))
    builders = {name for name, fn in functions.items()
                for sub in ast.walk(fn) if isinstance(sub, ast.Call)
                and _name(sub.func) in TABLE_BUILDERS}
    assert builders == {"FieldSpec._make_kernel"}
    stores = [
        (name, ast.unparse(sub.value))
        for name, fn in functions.items()
        for sub in ast.walk(fn) if isinstance(sub, (ast.Assign, ast.AugAssign))
        for target in getattr(sub, "targets", [getattr(sub, "target", None)])
        if any(isinstance(leaf, ast.Attribute) and leaf.attr in TABLE_ATTRIBUTES
               for leaf in ast.walk(target))
    ]
    assert stores == [("_TableKernel.__init__", "(exp, log, frob)")]
    init = functions["_TableKernel.__init__"]
    assert {"exp", "log", "frob"} <= {arg.arg for arg in init.args.args}


SKEW_SHIFT = {"_shift_ci", "_circulant_rows_i"}
SIGMA_CALLS = {"frobenius", "apply_i", "frob_i"}
SHIFT_USERS = {"rootsets.py": "_reduced_norm_ci", "codes.py": "constacyclic_shift",
               "linearized.py": "dickson_matrix", "skewpoly.py": "companion_matrix"}


def test_one_skew_shift():
    """skewpoly.py alone defines the skew shift x*w mod_r f (_shift_ci) and
    the circulant rows it steps (_circulant_rows_i); the reduced norm, the
    constacyclic shift, the Dickson matrix and the companion matrix
    reference one of them and apply no sigma of their own."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defined = sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in SKEW_SHIFT
    )
    assert defined == [("skewpoly.py", "_circulant_rows_i"), ("skewpoly.py", "_shift_ci")]
    for module, name in SHIFT_USERS.items():
        fn = next(node for node in trees[module].body
                  if isinstance(node, ast.FunctionDef) and node.name == name)
        referenced = {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(fn)}
        called = {getattr(sub.func, "id", getattr(sub.func, "attr", None))
                  for sub in ast.walk(fn) if isinstance(sub, ast.Call)}
        assert referenced & SKEW_SHIFT, name
        assert not called & SIGMA_CALLS, name


def _functions(tree):
    """(qualified name, node) for each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def _name(node):
    """The identifier a Name, an Attribute or an imported alias stands for."""
    return getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))


def _modules_where(test):
    """The src modules with a node that passes test."""
    return sorted(path.name for path in SRC.glob("*.py")
                  if any(test(node) for node in
                         ast.walk(ast.parse(path.read_text(encoding="utf-8")))))


def _calls(name):
    return lambda node: isinstance(node, ast.Call) and _name(node.func) == name


def test_one_cost_guard():
    """Every cost refusal is an errors._guard call: only errors.py builds
    GuardExceededError, and besides it only cli.py (its except) and
    __init__.py (the export) name it."""
    assert _modules_where(_calls("GuardExceededError")) == ["errors.py"]
    named = _modules_where(lambda node: isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                           and _name(node) == "GuardExceededError")
    assert named == ["__init__.py", "cli.py", "errors.py"]


def test_no_guard_refuses_whatever_the_cost():
    """Every _guard call bounds a cost: none passes the literal limit 0,
    which would refuse its input however small the cost."""
    def zero_limit(node):
        if not _calls("_guard")(node):
            return False
        limit = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "limit"), None)
        return isinstance(limit, ast.Constant) and limit.value == 0

    assert _modules_where(zero_limit) == []


def test_every_guard_has_a_boundary_case():
    """Each _guard call site in src/, listed as module.function (a method as
    module.Class.method), has one entry per call in the boundary tables of
    tests/test_errors.py, and no entry names a site without a call."""
    from test_errors import GUARD_BOUNDARIES, SEARCH_GUARDS

    sites, calls = Counter(), 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(map(_calls("_guard"), ast.walk(tree)))
        for name, fn in _functions(tree):
            sites[f"{path.stem}.{name}"] += sum(map(_calls("_guard"), ast.walk(fn)))
    assert sum(sites.values()) == calls   # no call outside a function or method
    assert +sites == Counter(case.values[0] for case in SEARCH_GUARDS + GUARD_BOUNDARIES)


def test_star_import_binds_no_submodule():
    """__all__ lists the exported names and no submodule, and each resolves."""
    import types

    import skewcodes

    assert len(skewcodes.__all__) == 101
    values = [getattr(skewcodes, name) for name in skewcodes.__all__]
    assert not [v for v in values if isinstance(v, types.ModuleType)]
    namespace = {}
    exec("from skewcodes import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(skewcodes.__all__)


def test_one_cancellation_check():
    """Every long search stops through errors._cancellable: only errors.py
    builds SearchCancelledError or asks a token is_set(), and no module
    catches SearchCancelledError to reword it."""
    assert _modules_where(_calls("SearchCancelledError")) == ["errors.py"]
    assert _modules_where(_calls("is_set")) == ["errors.py"]
    catches = _modules_where(lambda node: isinstance(node, ast.ExceptHandler)
                             and node.type is not None
                             and any(_name(sub) == "SearchCancelledError"
                                     for sub in ast.walk(node.type)))
    assert catches == []


def test_one_token_quote():
    """Every refusal that names a token quotes it through errors._quote:
    only errors.py defines it, and fields, textio and cli import it from
    there."""
    assert _modules_where(lambda node: isinstance(node, ast.FunctionDef)
                          and node.name == "_quote") == ["errors.py"]
    importers = _modules_where(lambda node: isinstance(node, ast.ImportFrom)
                               and node.module == "errors"
                               and "_quote" in {alias.name for alias in node.names})
    assert importers == ["cli.py", "fields.py", "textio.py"]
    assert _modules_where(lambda node: isinstance(node, ast.Name)
                          and node.id == "_QUOTE_LIMIT") == ["errors.py"]


# The element patterns: a power of a, and a digit tuple.
ELEMENT_PATTERNS = (r"a\^\d", r",\d")


def test_one_text_grammar():
    """textio reads every coefficient through parse_element: it defines no
    term splitter or term pattern of its own, the element patterns appear
    only inside parse_element, and no other module imports re."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    textio = trees["textio.py"]
    names = {getattr(node, "name", None) for node in ast.walk(textio)}
    names |= {target.id for node in ast.walk(textio) if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    assert not names & {"_split_terms", "_TERM_RE"}
    parse_element = next(node for node in textio.body
                         if isinstance(node, ast.FunctionDef) and node.name == "parse_element")
    inside = set(ast.walk(parse_element))
    patterns = [
        (module, node.lineno, node in inside)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and any(pattern in node.value for pattern in ELEMENT_PATTERNS)
    ]
    assert patterns and [p for p in patterns if p[0] != "textio.py" or not p[2]] == []
    importers = sorted(module for module, tree in trees.items()
                       for _, root in _imported_roots(tree) if root == "re")
    assert importers == ["textio.py"]


def test_one_cli_report():
    """Each CLI command returns one list of (key, value, human) rows: print
    is called only by _emit and main, no cmd_* function binds a name human
    or pairs, and only _field reads a field config."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = dict(_functions(tree))
    printers = {name for name, fn in functions.items()
                for sub in ast.walk(fn) if isinstance(sub, ast.Call)
                and getattr(sub.func, "id", None) == "print"}
    assert printers == {"_emit", "main"}
    commands = {name: fn for name, fn in functions.items() if name.startswith("cmd_")}
    assert len(commands) == 10
    bound = [
        (name, getattr(sub, "id", None) or sub.arg)
        for name, fn in commands.items() for sub in ast.walk(fn)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) or isinstance(sub, ast.arg)
    ]
    assert [b for b in bound if b[1] in ("human", "pairs")] == []
    readers = {name for name, fn in functions.items()
               for sub in ast.walk(fn) if getattr(sub, "id", None) == "parse_field_config"}
    assert readers == {"_field"}


TUPLE_POLY_MEMBERS = {"__init__", "coefficients", "_same_ring", "__add__", "__eq__", "__hash__",
                      "__bool__", "__str__"}


def test_one_tuple_polynomial():
    """LinearizedPoly takes its constructor, ring check, sum, equality, hash,
    truth value and text from skewpoly's tuple-polynomial base: the base
    defines exactly those members and linearized.py defines none of them."""
    tree = ast.parse((SRC / "skewpoly.py").read_text(encoding="utf-8"))
    base = {name.split(".")[1] for name, _ in _functions(tree) if name.startswith("_TuplePoly.")}
    assert base == TUPLE_POLY_MEMBERS
    tree = ast.parse((SRC / "linearized.py").read_text(encoding="utf-8"))
    defined = {name.rsplit(".", 1)[-1] for name, _ in _functions(tree)}
    assert defined & TUPLE_POLY_MEMBERS == set()


def test_one_polynomial_constructor():
    """Every polynomial is built by calling its class, whose constructor (the
    base's) trims: no module under src reaches a member through a polynomial
    class, as the calls of the former trimming factory did, and SkewPoly
    defines neither __init__ nor __bool__."""
    assert _modules_where(lambda node: isinstance(node, ast.Attribute) and _name(node.value)
                          in {"_TuplePoly", "SkewPoly", "LinearizedPoly"}) == []
    tree = ast.parse((SRC / "skewpoly.py").read_text(encoding="utf-8"))
    skew = {name for name, _ in _functions(tree) if name.startswith("SkewPoly.")}
    assert skew & {"SkewPoly.__init__", "SkewPoly.__bool__"} == set()


def test_self_dual_pairs_from_the_ring_walk():
    """self_dual_search takes its factor pairs from the ring's own divisor
    walk: it calls _monic_right_divisors_ci and maps nothing through the
    mirror ring."""
    tree = ast.parse((SRC / "codes.py").read_text(encoding="utf-8"))
    search = dict(_functions(tree))["self_dual_search"]
    called = {_name(node.func) for node in ast.walk(search) if isinstance(node, ast.Call)}
    assert "_monic_right_divisors_ci" in called
    assert "_mirror_ci" not in called
