"""Every name a library module imports is used in that module, and every
module-level private name and UPPER_CASE constant is read by some module of
the package.

There is no linter in the toolchain, so these scans keep dead imports and
orphaned helpers out of src/. The import scan skips the package's
__init__.py: its imports are the public re-exports. One more scan keeps the
Monte Carlo route apart from the divided-difference engine it cross-checks:
in expderiv only exp_derivative_dd reads what comes from divided, apart from
the shared rotation to_eigenbasis. And one keeps the caps behind the helpers
of errors: no other module raises CapExceededError itself, but for the one
guard named in CAP_RAISES.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hermcalc"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source):
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom . import rng\nfrom .a import b, c\nnp.x(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "rng"), (4, "b")]


def test_scan_covers_the_package():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def is_private(node, name):
    return name[:1] == "_" and name[:2] != "__"


def is_constant(node, name):
    return isinstance(node, (ast.Assign, ast.AnnAssign)) and name.isupper()


def unread_names(sources, wanted=is_private):
    """(module, line, name) of each module-level name defined in one of the
    sources, a {module: source} map, for which wanted(node, name) holds and
    that none of them reads as a name, an attribute or an import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, n) for n in names if wanted(node, n)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a.py": "_A = 1\n_b, c = 2, 3\ndef _f():\n    return _b\nclass _K: pass\n__all__ = []\n",
        "b.py": "from .a import _f\nimport a\n_f(a._K)\n",
    }
    assert unread_names(sources) == [("a.py", 1, "_A")]


def test_package_reads_every_private_name():
    assert unread_names({p.name: p.read_text() for p in SOURCES}) == []


def test_the_scan_finds_an_orphaned_constant():
    sources = {
        "a.py": "A_MAX = 1\nB_MAX: int = 2\nC = D = 3\ndef E(): pass\nx = A_MAX\n",
        "b.py": "from .a import D\nimport a\nprint(a.B_MAX)\n",
    }
    assert unread_names(sources, is_constant) == [("a.py", 3, "C")]


def test_package_reads_every_constant():
    assert unread_names({p.name: p.read_text() for p in SOURCES}, is_constant) == []


def engine_reads(source, engine="divided", reader="exp_derivative_dd", shared=("to_eigenbasis",)):
    """(line, name) of each read, outside the function reader and the imports,
    of a name the source imports from the module engine (or of the module
    itself), shared names apart."""
    tree = ast.parse(source)
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module == engine or (node.module is None and alias.name == engine):
                    names.add(alias.asname or alias.name)
    names -= set(shared)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "name", None) == reader:
            continue
        found += [
            (n.lineno, n.id)
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in names
        ]
    return sorted(found)


def test_the_scan_finds_a_read_of_the_engine():
    source = (
        "from .divided import to_eigenbasis, derivative_matrix as dm, SLAB\n"
        "from . import divided, rng\n"
        "def exp_derivative_dd(x):\n    return dm(to_eigenbasis(x), SLAB)\n"
        "def _mc(x):\n    return to_eigenbasis(x) + SLAB\n"
        "def exp_derivative_mc(x):\n    return divided.chain_tensor(rng.f(x), dm)\n"
        "LIMIT = SLAB\n"
    )
    assert engine_reads(source) == [(6, "SLAB"), (8, "divided"), (8, "dm"), (9, "SLAB")]


def test_monte_carlo_reads_nothing_of_the_dd_engine():
    source = (PACKAGE / "expderiv.py").read_text()
    assert "exp_derivative_dd" in source and "from .divided import" in source
    assert engine_reads(source) == []


def cap_raises(source, name):
    """(line, enclosing class and function names) of each raise of the
    exception class name in source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == name:
                    found.append((child.lineno, ".".join(scope)))
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


def test_the_scan_finds_a_cap_raise():
    source = (
        "from . import errors\nfrom .errors import CapExceededError\n"
        "def f(n):\n    if n:\n        raise CapExceededError(n)\n"
        "class K:\n    def g(self):\n        raise errors.CapExceededError\n"
        "def h():\n    raise ValueError(CapExceededError)\n"
    )
    assert cap_raises(source, "CapExceededError") == [(5, "f"), (8, "K.g")]
    assert cap_raises(source, "ValueError") == [(10, "h")]


# module -> the scopes that may raise CapExceededError themselves: a
# monomial's power is refused by its digit count, before int() reads a
# string of thousands of digits
CAP_RAISES = {"functions.py": ["MonomialFunction.__init__"]}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.name)
def test_caps_are_refused_through_the_helpers_of_errors(path):
    scopes = [scope for _, scope in cap_raises(path.read_text(), "CapExceededError")]
    assert scopes == CAP_RAISES.get(path.name, [])


# module -> the scopes that may raise OverflowRangeError: g at the nodes on
# the way in, one finite check on the way out, and the probe's re-prefix of
# either
OVERFLOW_RAISES = {
    "errors.py": ["check_finite"],
    "functions.py": ["ScalarFunction.values"],
    "bounds.py": ["_evaluate"],
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_overflow_is_refused_at_the_nodes_or_by_the_finite_check(path):
    scopes = [scope for _, scope in cap_raises(path.read_text(), "OverflowRangeError")]
    assert scopes == OVERFLOW_RAISES.get(path.name, [])
