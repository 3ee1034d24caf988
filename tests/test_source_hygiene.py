"""Every name a package module imports is used there or re-exported, every
private name it defines at module level is read there, every name it exports,
through its __all__ or the package __init__, is defined there, every name in
its __all__ and every public top-level def and class is read by some caller,
the package __init__ republishes the numerical modules' __all__ lists without
naming a public name itself, no package module imports scipy, no test writes
a private attribute, and only tensor_ops checks that a setting is an
integer or a real number in its interval."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cpcomplete"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Sources whose reads make a public name used: the package, the acceptance
# criteria, the benchmark and the scripts.  Unit tests do not count, so a
# helper that only tests read belongs with the tests (tests/oracles.py).
CALLERS = [
    *sorted(PACKAGE.glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "bench").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
]
# The modules whose __all__ the package republishes; fileio and cli stay
# submodules, so importing the package reads no file and parses no argument.
NUMERICAL = ["completion", "cp_model", "exceptions", "factor_updates", "hybrid_l1", "mor", "tensor_ops"]
# Test sources: they build package objects through public names only.
TESTS = [*sorted((ROOT / "tests").glob("test_*.py")), *sorted((ROOT / "bench").glob("test_*.py"))]


def unused_imports(source):
    """Names bound by import statements that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used | exported)


def defined_names(source):
    """{name: first line} for the names a module binds at top level by def, class
    or assignment; imports do not count."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.setdefault(name.id, node.lineno)
    return defined


def unread_private_names(source):
    """Module-level ``_name`` functions, classes and assignments the module never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    defined = defined_names(source)
    private = {n: line for n, line in defined.items() if n.startswith("_") and not n.startswith("__")}
    return sorted(f"{name} (line {line})" for name, line in private.items() if name not in read)


def test_checker_flags_leftover_imports():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "from .factor_updates import StepControl, mm_update\n"
        "__all__ = ['field']\n"
        "mm_update(dataclass)\n"
    )
    assert unused_imports(source) == ["StepControl (line 3)", "dataclasses (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unread_private_names():
    source = (
        "_GRID = 3\n"
        "_UNUSED, _PAIR = 1, 2\n"
        "__all__ = ['f']\n"
        "def _helper(x):\n"
        "    return x * _GRID\n"
        "def _old_helper(x):\n"
        "    return x\n"
        "class _Cache:\n"
        "    pass\n"
        "def f():\n"
        "    _local = _PAIR\n"
        "    return _helper(_local)\n"
    )
    assert unread_private_names(source) == ["_Cache (line 8)", "_UNUSED (line 2)", "_old_helper (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def all_names(source):
    """The names a module lists in its top-level __all__."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names += ast.literal_eval(node.value)
    return names


def undefined_exports(init_source, sources):
    """``module.name`` for each name in a module's __all__, or imported from it by the
    package ``__init__``, that the module does not define itself.

    ``sources`` maps module names to their source; a name re-exported from
    another module counts as undefined, so every export has one home.  A star
    import exports the module's __all__, or reads as ``module.*`` when the
    module has none.
    """
    exports = [(module, name) for module, source in sources.items() for name in all_names(source)]
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                if alias.name != "*":
                    exports.append((node.module, alias.name))
                else:
                    listed = all_names(sources.get(node.module, ""))
                    exports += [(node.module, name) for name in listed or ["*"]]
    return sorted(
        {f"{module}.{name}" for module, name in exports if name not in defined_names(sources.get(module, ""))}
    )


def test_checker_flags_undefined_exports():
    init_source = (
        "from .model import CPModel, normalize\nfrom .ops import khatri_rao\nfrom .gone import f\n"
        "from .ops import *\nfrom .errors import *\nfrom .missing import *\n"
    )
    sources = {
        "model": "from .ops import khatri_rao\n__all__ = ['CPModel', 'khatri_rao']\nclass CPModel:\n    pass\n",
        "ops": "__all__ = ['GRID', 'khatri_rao', 'tensorize']\nGRID = 3\ndef khatri_rao(x, y):\n    return x\n",
        "errors": "class DataError(Exception):\n    pass\n",
    }
    assert undefined_exports(init_source, sources) == [
        "errors.*", "gone.f", "missing.*", "model.khatri_rao", "model.normalize", "ops.tensorize",
    ]


def test_exports_are_defined():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert undefined_exports((PACKAGE / "__init__.py").read_text(), sources) == []


def read_names(source):
    """Names a source reads: loaded identifiers and attribute names.  Import
    statements and __all__ strings do not count."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
    return reads


def public_names(source):
    """The names a module lists in its __all__, and the public functions and
    classes it defines at top level, listed or not."""
    defs = (
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    )
    return {*all_names(source), *defs}


def unread_public_names(sources, caller_sources):
    """``module.name`` for each public name of a module that no caller source reads."""
    read = set().union(*(read_names(source) for source in caller_sources))
    return sorted(
        f"{module}.{name}" for module, source in sources.items() for name in public_names(source) if name not in read
    )


def test_checker_flags_unread_exports():
    sources = {
        "ops": "__all__ = ['khatri_rao', 'vectorize', 'Mask']\ndef khatri_rao(x, y):\n    return x\n"
        "def vectorize(t):\n    return t\nclass Mask:\n    pass\n",
        "model": "from .ops import khatri_rao\n__all__ = ['reconstruct']\ndef reconstruct(m):\n    return khatri_rao(m, m)\n",
    }
    callers = [
        *sources.values(),
        "from cpcomplete.ops import vectorize\n",
        "import cpcomplete\nmask = cpcomplete.tensor_ops.Mask((2, 2, 2), [])\n",
    ]
    assert unread_public_names(sources, callers) == ["model.reconstruct", "ops.vectorize"]


def test_checker_flags_helpers_read_only_by_unit_tests():
    # unfold and Grid are public but not in __all__: the package reads Grid,
    # a benchmark reads khatri_rao, and only a unit test reads unfold
    sources = {
        "ops": "__all__ = ['khatri_rao']\n_PERM = (0, 2, 1)\ndef khatri_rao(x, y):\n    return x\n"
        "def unfold(t):\n    return t.transpose(_PERM)\nclass Grid:\n    pass\n",
    }
    package = [*sources.values(), "from .ops import Grid\nGrid()\n"]
    bench = "from cpcomplete.ops import khatri_rao\nkhatri_rao(a, b)\n"
    unit_test = "from cpcomplete.ops import unfold\nassert unfold(t).ndim == 2\n"
    assert unread_public_names(sources, [*package, bench]) == ["ops.unfold"]
    # counted as a caller, the unit test would hide it
    assert unread_public_names(sources, [*package, bench, unit_test]) == []


def test_every_export_has_a_caller():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unread_public_names(sources, [p.read_text() for p in CALLERS]) == []


def republishing_faults(init_source, sources):
    """Faults that keep a package ``__init__`` from republishing exactly the
    __all__ lists of the modules in ``sources``: any statement besides the
    docstring, relative star imports and dunder assignments; a module of
    ``sources`` it does not star-import, or another module it does; and a name
    that two modules list.
    """
    faults = []
    starred = set()
    for idx, node in enumerate(ast.parse(init_source).body):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and [a.name for a in node.names] == ["*"]:
            starred.add(node.module)
        elif idx == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        elif not (
            isinstance(node, ast.Assign)
            and all(isinstance(t, ast.Name) and t.id.startswith("__") and t.id.endswith("__") for t in node.targets)
        ):
            faults.append(f"line {node.lineno} binds by hand: {ast.unparse(node)}")
    faults += [f"does not republish {module}" for module in sorted(set(sources) - starred)]
    faults += [f"republishes {module}" for module in sorted(starred - set(sources))]
    homes = {}
    for module, source in sources.items():
        for name in all_names(source):
            homes.setdefault(name, []).append(module)
    faults += [f"{name} is listed by {', '.join(mods)}" for name, mods in sorted(homes.items()) if len(mods) > 1]
    return faults


def test_checker_flags_republishing_faults():
    init_source = (
        '"""Package."""\n'
        "from .model import *\nfrom .io import *\nfrom .ops import khatri_rao\n"
        "__version__ = '1'\nVERSION = __version__\n"
    )
    sources = {
        "model": "__all__ = ['CPModel', 'khatri_rao']\n",
        "ops": "__all__ = ['khatri_rao']\n",
    }
    assert republishing_faults(init_source, sources) == [
        "line 4 binds by hand: from .ops import khatri_rao",
        "line 6 binds by hand: VERSION = __version__",
        "does not republish ops",
        "republishes io",
        "khatri_rao is listed by model, ops",
    ]


def test_package_republishes_the_numerical_modules():
    sources = {name: (PACKAGE / f"{name}.py").read_text() for name in NUMERICAL}
    assert republishing_faults((PACKAGE / "__init__.py").read_text(), sources) == []


def test_package_names_are_the_union_of_the_lists():
    import cpcomplete

    public = {name for name, value in vars(cpcomplete).items() if not (name.startswith("_") or inspect.ismodule(value))}
    listed = [name for module in NUMERICAL for name in importlib.import_module(f"cpcomplete.{module}").__all__]
    assert sorted(public) == sorted(listed)


def test_import_loads_no_file_or_command_line_code():
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import cpcomplete; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('cpcomplete.'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.split() == sorted(f"cpcomplete.{module}" for module in NUMERICAL)


def scipy_imports(source):
    """``module (line n)`` for each import statement, at any depth, that loads
    scipy or one of its submodules.  The package runs on numpy alone; scipy is
    a test dependency."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name.split(".")[0] == "scipy"]
    return sorted(found)


def test_checker_flags_scipy_imports():
    source = (
        "import numpy as np, scipy\n"
        "from .scipy_free import f\n"
        "import scipyx\n"
        "def g():\n"
        "    import scipy.linalg as sl\n"
        "    from scipy.sparse import kron\n"
        "    return sl, kron\n"
    )
    assert scipy_imports(source) == ["scipy (line 1)", "scipy.linalg (line 5)", "scipy.sparse (line 6)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert scipy_imports(path.read_text()) == []


def private_attribute_writes(source):
    """``owner._name (line n)`` for each assignment to, or ``setattr`` of, a
    single-underscore attribute of any object but ``self``.  A test that writes
    one fakes a package object's internal state instead of building its input
    through public names, and breaks silently when those internals change."""
    writes = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            owner, attr = node.value, node.attr
        elif (
            isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            owner, attr = node.args[0], node.args[1].value
        else:
            continue
        private = isinstance(attr, str) and attr.startswith("_") and not attr.startswith("__")
        if private and not (isinstance(owner, ast.Name) and owner.id == "self"):
            writes.append(f"{ast.unparse(owner)}.{attr} (line {node.lineno})")
    return sorted(writes)


def test_checker_flags_private_attribute_writes():
    source = (
        "state = fgk_init(h, d)\n"
        "state.k = 3\n"
        "state._m = m_mat\n"
        "state._svd_cache = None\n"
        "model.factors[0]._cache += 1\n"
        "monkeypatch.setattr(hybrid_l1, '_TAU1', 1e-3)\n"
        "setattr(state, '_nu', 2)\n"
        "monkeypatch.setattr(hybrid_l1, 'fgk_expand', expand)\n"
        "class Fake:\n"
        "    def __init__(self):\n"
        "        self._rows = []\n"
        "obj.__dict__ = {}\n"
        "rows = state._m\n"
    )
    assert private_attribute_writes(source) == [
        "hybrid_l1._TAU1 (line 6)",
        "model.factors[0]._cache (line 5)",
        "state._m (line 3)",
        "state._nu (line 7)",
        "state._svd_cache (line 4)",
    ]


@pytest.mark.parametrize("path", TESTS, ids=[p.name for p in TESTS])
def test_no_private_attribute_writes(path):
    assert private_attribute_writes(path.read_text()) == []


def own_checks(source, predicate, wording):
    """``what (line n)`` for each read of the name ``predicate``, as a name or
    an attribute, and each string in which the regex ``wording`` finds the
    words of a setting's rule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if predicate in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(f"reads {predicate} (line {node.lineno})")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and (match := re.search(wording, node.value)):
            found.append(f"writes {match.group()!r} (line {node.lineno})")
    return sorted(found)


def own_integer_checks(source):
    """Every integer setting goes through ``tensor_ops.check_count``, so no
    other module reads ``is_integer`` or writes "must be an integer"."""
    return own_checks(source, "is_integer", "must be an integer")


# The words of a real range: check_real's "must be a real number in", and
# the six wordings the package wrote by hand before it, such as "must lie in
# (0, 1)", "must be finite and nonnegative" and "must be finite with |mu|".
REAL_RULE = r"must (?:be|lie) (?:in [(\[]|a (?:real )?number|(?:finite and )?(?:non)?(?:negative|positive)|finite with)"


def own_real_checks(source):
    """Every real setting goes through ``tensor_ops.check_real``, so no other
    module reads ``is_real`` or words a real range itself."""
    return own_checks(source, "is_real", REAL_RULE)


def test_checker_flags_own_integer_checks():
    source = (
        "from .tensor_ops import check_count, is_integer\n"
        "def f(n, k, x):\n"
        "    check_count('n', n, 1)\n"
        "    if not is_integer(k):\n"
        "        raise ValueError(f'{k!r}: k must be an integer')\n"
        "    if not tensor_ops.is_integer(x) or not float(x).is_integer():\n"
        "        raise ValueError('x must be an integer >= 1')\n"
        "    return all(map(is_integer, (n, k)))\n"
    )
    assert own_integer_checks(source) == [
        "reads is_integer (line 4)",
        "reads is_integer (line 6)",
        "reads is_integer (line 6)",
        "reads is_integer (line 8)",
        "writes 'must be an integer' (line 5)",
        "writes 'must be an integer' (line 7)",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tensor_ops.py"], ids=lambda p: p.name)
def test_only_tensor_ops_checks_integers(path):
    assert own_integer_checks(path.read_text()) == []


def test_checker_flags_own_real_checks():
    source = (
        "from .tensor_ops import check_real, is_real\n"
        "def f(eps, lam, rho, omega, mu, h):\n"
        "    check_real('eps', eps, 0, 1, '()')\n"
        "    if not is_real(lam) or not lam >= 0.0:\n"
        "        raise ValueError(f'lambda must be nonnegative, got {lam}')\n"
        "    if not tensor_ops.is_real(rho):\n"
        "        raise ValueError(f'rho must be finite and nonnegative, got {rho!r}')\n"
        "    if not 0.0 < omega <= 1.0:\n"
        "        raise ValueError(f'omega must lie in (0, 1], got {omega}')\n"
        "    if abs(mu) > 0.99:\n"
        "        raise ValueError(f'mu must be a real number in [-0.99, 0.99], got {mu!r}')\n"
        "    if not h.all():\n"
        "        raise ValueError('operator must be finite; mode must be one of A, B, C')\n"
        "    return check_count('n', 3, 1)\n"
    )
    assert own_real_checks(source) == [
        "reads is_real (line 4)",
        "reads is_real (line 6)",
        "writes 'must be a real number' (line 11)",
        "writes 'must be finite and nonnegative' (line 7)",
        "writes 'must be nonnegative' (line 5)",
        "writes 'must lie in (' (line 9)",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tensor_ops.py"], ids=lambda p: p.name)
def test_only_tensor_ops_checks_reals(path):
    assert own_real_checks(path.read_text()) == []
