"""The library has no runtime dependencies: every module imports only from
the package itself or from the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

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


# The tables and the limit that decides between table and polynomial arithmetic.
TABLE_NAMES = {"_exp", "_log", "_frob_tables", "_add_table", "_gen_index", "_TABLE_LIMIT"}
SCALAR_METHODS = ("mul_i", "inv_i", "pow_i", "frob_i")


def _table_references(node):
    """(line, name) for each attribute, name or import of a TABLE_NAMES entry."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.alias):
            name = sub.name
        else:
            continue
        if name in TABLE_NAMES:
            yield sub.lineno, name


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


def test_tables_are_built_only_by_make_kernel():
    """FieldSpec.__init__ sets each table to None (the Frobenius tables to
    a list of None) and FieldSpec._make_kernel is the one function in
    fields.py that writes a built table, whole or entry by entry."""
    tree = ast.parse((SRC / "fields.py").read_text(encoding="utf-8"))
    stores = [
        (fn.name, ast.unparse(sub.value))
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for sub in ast.walk(fn) if isinstance(sub, ast.Assign)
        if any(isinstance(leaf, ast.Attribute) and leaf.attr in TABLE_NAMES
               for target in sub.targets for leaf in ast.walk(target))
    ]
    assert {name for name, _ in stores} == {"__init__", "_make_kernel"}
    assert sorted(value for name, value in stores if name == "__init__") == (
        ["None"] * 4 + ["[None] * self.degree"])
