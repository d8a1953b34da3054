"""Source hygiene: every name a library module imports is used there, every
private module-level name is used somewhere in the package, every public
name of every module (exported or not: a function, a class, a method or a
property) is read by the library or by a non-test perfbench module (a test
is no reader; ``UNREAD_PUBLIC_NAMES`` lists the documented names that no
library code reads yet, and may only shrink), every private class member
is read somewhere in the package or its tests, and only ``torus.py``
enumerates the lattice.  Each convention is written once: only ``L_of``
and ``M_of`` read a model's Lax coefficient rows (``_l_coeffs``,
``_m_coeffs``), and no identity declaration or guard of ``fourier.py``
reads ``params``, which ``fourier._identity`` alone unpacks.

An AST scan stands in for a linter; ``__init__.py`` is exempt because its
imports are the package's re-exports.  Sums over the T-basis go through
``torus.pair_sum``, ``reconstruct`` and ``t_stack``, and index sweeps
read ``torus._grid``; a module that names ``lattice`` (the tests' own
enumerator), or calls ``meshgrid`` or ``np.indices``, is building the
row-major order of Z_n^2 a second time.  No module
fits an order with ``polyfit``: a fixed fit window decides the verdict, so
every order is read from successive ratios (``dynamics._order_window``).
Only ``fourier.py`` draws from a generator's ``uniform``: every random
point comes from the one sampling box, ``fourier._draw_box``.  No module
starts threads or processes or reads the environment: every command runs
in one thread, and flags and config files are its only settings.  Every
backticked dotted name that starts with an elliptop module, in the README
and in the library's docstrings, names something that exists, and so does
every bare double-backticked private name in the library's docstrings;
the dotted names in the tests' docstrings resolve too.
"""
import ast
import collections
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "elliptop"
TESTS = Path(__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"
README = SRC.parents[1] / "README.md"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
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
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_sees_modules():
    assert {p.name for p in MODULES} >= {"elliptic.py", "fourier.py", "models.py"}


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def lattice_references(source: str) -> list[int]:
    """Lines that name ``lattice`` (an import of it, a call, or an
    attribute), or call ``meshgrid`` (bare or as an attribute) or
    ``indices`` as an attribute (``np.indices``)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "lattice" for alias in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == "lattice") or (
                isinstance(node, ast.Attribute) and node.attr == "lattice"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and (
                "meshgrid" in (getattr(node.func, "attr", None),
                               getattr(node.func, "id", None))
                or getattr(node.func, "attr", None) == "indices"):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_lattice_scan_flags_a_reference():
    assert lattice_references("from .torus import T, lattice\n") == [1]
    assert lattice_references("from . import torus\nfor a in torus.lattice(3):\n"
                              "    pass\n") == [2]
    assert lattice_references('"""a lattice sum"""\nlattice_distance = 1\n') == []
    assert lattice_references("import numpy as np\nx = np.meshgrid(a, b)\n"
                              "from numpy import meshgrid\ny = meshgrid(a)\n"
                              "a1, a2 = np.indices((3, 3))\n") == [2, 4, 5]
    assert lattice_references('"""a meshgrid"""\nindices = [1]\nf(indices)\n'
                              "meshgrid_size = 2\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "torus.py"],
                         ids=lambda p: p.name)
def test_only_torus_enumerates_the_lattice(path):
    assert lattice_references(path.read_text()) == []


COEFFICIENT_ROWS = ("_l_coeffs", "_m_coeffs")


def coefficient_row_reads(source: str) -> list[tuple[int, str]]:
    """(line, function) of each read of ``_l_coeffs`` or ``_m_coeffs`` (an
    attribute, so a call or a reference), the function being the innermost
    def around it ('' at module level); defining the methods is no read."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in COEFFICIENT_ROWS:
            out.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(source), "")
    return sorted(out)


def test_coefficient_row_scan_flags_a_reader():
    source = ("class Top:\n    def _l_coeffs(self, z):\n        return z\n\n"
              "    def L_of(self, f, z):\n        return self._l_coeffs(z) * f\n\n\n"
              "def residual(model, zs):\n    rows = model._l_coeffs(zs)\n"
              "    return lambda: model._m_coeffs(zs)\n\n\nROWS = Top._m_coeffs\n")
    assert coefficient_row_reads(source) == [(6, "L_of"), (10, "residual"),
                                             (11, "residual"), (14, "")]
    assert coefficient_row_reads('"""_l_coeffs"""\n_m_coeffs_cache = {}\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_lax_evaluators_read_the_coefficient_rows(path):
    # L(z) = sum_i c_i(z) B_i is contracted in L_of and M_of alone
    readers = {where for _, where in coefficient_row_reads(path.read_text())}
    assert readers <= {"L_of", "M_of"}
    assert path.name != "models.py" or readers == {"L_of", "M_of"}


def identity_params_reads(source: str) -> tuple[int, list[int]]:
    """The number of ``@_identity(...)`` declarations in ``source``, and the
    lines where one of them or its guard (the second argument of
    ``_identity``: a module-level function by name, or a lambda) reads an
    attribute of ``params``.  Both take (n, m, p, ...); only ``_identity``
    unpacks a DressedFnParams."""
    tree = ast.parse(source)
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    declared = [(node, deco) for node in funcs.values() for deco in node.decorator_list
                if isinstance(deco, ast.Call)
                and getattr(deco.func, "id", None) == "_identity"]
    scanned = [node for node, _ in declared]
    for _, deco in declared:
        scanned += [funcs[g.id] if isinstance(g, ast.Name) else g for g in deco.args[1:2]]
    lines = {sub.lineno for node in scanned for sub in ast.walk(node)
             if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
             and sub.value.id == "params"}
    return len(declared), sorted(lines)


def test_identity_scan_flags_a_params_read():
    source = ("def _g(params, z):\n    return [params.N * z]\n\n\n"
              "@_identity('a', _g)\ndef _a(n, m, p, z):\n    return z, z\n\n\n"
              "@_identity('b', lambda n, m, p, z: [params.M])\ndef _b(n, m, p, z):\n"
              "    return params.N, z\n\n\n@other\ndef _c(params):\n"
              "    return params.N\n\n\ndef helper(params):\n    return params.elliptic\n")
    assert identity_params_reads(source) == (2, [2, 10, 12])


def test_identity_declarations_read_no_params():
    from elliptop.fourier import REGISTRY
    count, lines = identity_params_reads((SRC / "fourier.py").read_text())
    assert count == len(REGISTRY) and lines == []


def polyfit_calls(source: str) -> list[int]:
    """Lines that call ``polyfit``, as an attribute (``np.polyfit``) or bare."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call)
                   and "polyfit" in (getattr(node.func, "attr", None),
                                     getattr(node.func, "id", None))})


def test_polyfit_scan_flags_a_call():
    assert polyfit_calls("import numpy as np\nslope = np.polyfit(x, y, 1)[0]\n") == [2]
    assert polyfit_calls("from numpy import polyfit\n\npolyfit(x, y, 1)\n") == [3]
    assert polyfit_calls('"""no polyfit here"""\npolyfit_window = 3\n') == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_fits_with_polyfit(path):
    assert polyfit_calls(path.read_text()) == []


def uniform_calls(source: str) -> list[int]:
    """Lines that call ``uniform``, as an attribute (``rng.uniform``) or bare."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call)
                   and "uniform" in (getattr(node.func, "attr", None),
                                     getattr(node.func, "id", None))})


def test_uniform_scan_flags_a_call():
    assert uniform_calls("import numpy as np\nrng = np.random.default_rng(0)\n"
                         "a, b = rng.uniform(0.05, 0.45, 2)\n") == [3]
    assert uniform_calls("from random import uniform\n\nuniform(0, 1)\n") == [3]
    assert uniform_calls('"""a uniform box"""\nuniform_margin = 0.05\n') == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "fourier.py"], ids=lambda p: p.name)
def test_only_fourier_draws_from_the_box(path):
    assert uniform_calls(path.read_text()) == []


def test_the_box_is_drawn_once():
    assert len(uniform_calls((SRC / "fourier.py").read_text())) == 1


CONCURRENCY_MODULES = ("concurrent", "threading", "multiprocessing")


def threads_and_environment(source: str) -> list[int]:
    """Lines that import a thread or process module, or read ``os.environ``
    or ``os.getenv``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{alias.name}"
                                           for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name.split(".")[0] in CONCURRENCY_MODULES
               or name in ("os.environ", "os.getenv") for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_thread_scan_flags_a_pool_and_an_environment_read():
    assert threads_and_environment(
        "import os\nfrom concurrent.futures import ProcessPoolExecutor\n"
        "cap = os.environ.get('CAP')\n") == [2, 3]
    assert threads_and_environment("import threading\nimport multiprocessing.pool\n"
                                   "from os import getenv\nos.getenv('X')\n") == [
        1, 2, 3, 4]
    assert threads_and_environment('"""a thread pool"""\nimport os\n'
                                   "os.path.join('a', 'b')\nthreading = 1\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_threads_or_reads_the_environment(path):
    assert threads_and_environment(path.read_text()) == []


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level names and their defining statements.  A decorated
    definition is left out: its decorator receives it, which is its use."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                defs.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs.append((name.id, node))
    return defs


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level private names (one leading underscore) and their
    defining statements, as ``definitions`` gives them."""
    return [(name, node) for name, node in definitions(tree)
            if name.startswith("_") and not name.startswith("__")]


def references(node: ast.AST) -> list[str]:
    """Names read under ``node``: loaded names, attributes and imported names."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name)
    return out


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module reads outside their own
    definition; public names are the package's interface and are left out."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    counts = collections.Counter(ref for tree in trees.values() for ref in references(tree))
    return sorted(f"{module}: {name} (line {node.lineno})"
                  for module, tree in trees.items()
                  for name, node in private_definitions(tree)
                  if counts[name] == references(node).count(name))


def test_leftover_scan_flags_an_unreferenced_private_name():
    sources = {
        "a.py": "def _used():\n    return 1\n\n\ndef _stranded():\n"
                "    return _stranded()\n\n\n_LIMIT = 3\nX = _used()\n",
        "b.py": "from .a import _LIMIT\n\n\n@register\ndef _declared():\n"
                "    pass\n\n\ndef public():\n    pass\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _stranded (line 5)"]
    sources["a.py"] += "_A, _B = 1, 2\nprint(_A)\n"
    assert unreferenced_private_names(sources) == [
        "a.py: _B (line 11)", "a.py: _stranded (line 5)"]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def reads(tree: ast.AST) -> list[str]:
    """``references``, and the module of each ``from ... import``: a module
    is read where something imports from it."""
    return references(tree) + [node.module.rsplit(".", 1)[-1]
                               for node in ast.walk(tree)
                               if isinstance(node, ast.ImportFrom) and node.module]


def dead_exports(exports: list[str], sources: dict[str, str],
                 tests: dict[str, str]) -> list[str]:
    """Exported names that no module of ``sources`` reads outside their own
    definition and no test reads at all.  ``__init__.py`` is left out,
    since its imports are the exports themselves."""
    trees = [ast.parse(src) for name, src in sources.items() if name != "__init__.py"]
    test_trees = [ast.parse(src) for src in tests.values()]
    counts = collections.Counter(ref for tree in trees for ref in reads(tree))
    for tree in trees:
        for name, node in definitions(tree):
            counts[name] -= references(node).count(name)
    counts.update(ref for tree in test_trees for ref in reads(tree))
    return sorted(name for name in exports if counts[name] <= 0)


def test_export_scan_flags_a_dead_name():
    sources = {
        "__init__.py": "from .a import live, dead, tested\nfrom . import a\n",
        "a.py": "def live():\n    return 1\n\n\ndef dead():\n    return dead()\n\n\n"
                "def tested():\n    pass\n",
        "b.py": "from .a import live\n",
    }
    tests = {"test_a.py": "from pkg.a import tested\n"}
    exports = ["a", "dead", "live", "tested"]
    assert dead_exports(exports, sources, tests) == ["dead"]
    assert dead_exports(exports, sources, {}) == ["dead", "tested"]
    bench = {"bench/run.py": "from pkg.a import tested\n"}
    assert dead_exports(exports, {**sources, **bench}, {}) == ["dead"]


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Public module-level functions and classes, decorated ones included,
    and the public methods and properties of every module-level class, as
    (qualified name, defining node); module constants are left out."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                     if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(qualname, node) for qualname, node in defs if not node.name.startswith("_")]


def unread_public_names(library: dict[str, str], readers: dict[str, str],
                        exempt: dict[str, str]) -> list[str]:
    """The ``public_definitions`` of the ``library`` modules that nothing in
    ``library`` or ``readers`` reads (``reads``) outside their own
    definition; ``__init__.py`` is no reader, since its imports are the
    exports.  Reads are counted by name, as for the private members.  An
    ``exempt`` qualified name is reported the other way round: when it has
    a reader, or when no module defines it, so the exemptions can only
    shrink."""
    trees = {module: ast.parse(src) for module, src in library.items()}
    defs = [(module, qualname, node) for module, tree in trees.items()
            for qualname, node in public_definitions(tree)]
    counts = collections.Counter(ref for module, tree in trees.items()
                                 if module != "__init__.py" for ref in reads(tree))
    counts.update(ref for src in readers.values() for ref in reads(ast.parse(src)))
    for _, _, node in defs:
        counts[node.name] -= references(node).count(node.name)
    unread = {qualname for _, qualname, node in defs if counts[node.name] <= 0}
    out = [f"{module}: {qualname} (line {node.lineno})" for module, qualname, node in defs
           if qualname in unread and qualname not in exempt]
    defined = {qualname for _, qualname, _ in defs}
    out += [f"exempt {qualname}: " + ("not defined" if qualname not in defined else "read")
            for qualname in exempt if qualname not in unread]
    return sorted(out)


def test_public_name_scan_flags_a_test_only_reader():
    library = {
        "__init__.py": "from .a import live, tested, A\n",
        "a.py": "def live():\n    return A().used()\n\n\ndef tested():\n"
                "    return tested()\n\n\nclass A:\n    def used(self):\n"
                "        return 1\n\n    @property\n    def probe(self):\n"
                "        return self.probe\n\n    def _hidden(self):\n        pass\n",
        "b.py": "from .a import live\n",
    }
    tests = {"test_a.py": "from pkg.a import tested, A\n\nassert A().probe\n"}
    # a test is a reader only where it is passed as one; the module-level
    # name A is read by ``live``, its public method ``probe`` only by the test
    assert unread_public_names(library, {}, {}) == ["a.py: A.probe (line 14)",
                                                    "a.py: tested (line 5)"]
    assert unread_public_names(library, tests, {}) == []
    bench = {"bench/run.py": "from pkg.a import tested\n"}
    assert unread_public_names(library, bench, {}) == ["a.py: A.probe (line 14)"]


def test_public_name_scan_keeps_the_exemptions_exact():
    library = {"a.py": "def kept():\n    return A\n\n\nclass A:\n    def doc(self):\n"
                       "        pass\n"}
    exempt = {"kept": "documented", "A.doc": "documented"}
    assert unread_public_names(library, {}, exempt) == []
    # an exempt name that gains a reader, or is deleted, fails the scan
    reader = {"bench/run.py": "import a\n\na.A().doc()\n"}
    assert unread_public_names(library, reader, exempt) == ["exempt A.doc: read"]
    library["a.py"] = "class A:\n    def doc(self):\n        pass\n\n\nB = A\n"
    assert unread_public_names(library, {}, exempt) == ["exempt kept: not defined"]


def bench_modules() -> dict[str, str]:
    """perfbench's non-test modules, keyed by their path in the repository."""
    return {f"perfbench/{p.name}": p.read_text() for p in sorted(PERFBENCH.glob("*.py"))
            if not p.name.startswith("test_")}


# documented names that no library code reads yet; a name leaves this dict
# when it gains a reader or is deleted, and the scan fails until it does
UNREAD_PUBLIC_NAMES = {
    "CoupledTop.to_big": "README: the coupled model's big-lattice coordinates",
    "CoupledTop.from_big": "README: the inverse of to_big",
    "coupled_form_w305": "ROADMAP item 9: a dual form with no CLI path yet",
    "coupled_form_w307": "ROADMAP item 9: a dual form with no CLI path yet",
    "coupled_form_w308": "ROADMAP item 9: a dual form with no CLI path yet",
}


def test_no_dead_exports():
    import elliptop
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    tests = {p.name: p.read_text() for p in sorted(TESTS.glob("*.py"))}
    assert dead_exports(elliptop.__all__, sources, tests) == []
    # without the tests: the library or the benchmark's own modules read each name
    bench = bench_modules()
    assert bench and dead_exports(elliptop.__all__, {**sources, **bench}, {}) == []
    # every public name of every module, not only the exports, likewise
    assert unread_public_names(sources, bench, UNREAD_PUBLIC_NAMES) == []


def private_members(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Private class members (one leading underscore) and their defining
    nodes: methods, class attributes and ``self._x`` stores in methods."""
    defs = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((node.name, node))
                defs += [(sub.attr, sub) for sub in ast.walk(node)
                         if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                         and isinstance(sub.value, ast.Name) and sub.value.id == "self"]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(name.id, node) for target in targets
                         for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [(name, node) for name, node in defs
            if name.startswith("_") and not name.startswith("__")]


def member_reads(node: ast.AST) -> list[str]:
    """Names read under ``node`` as attributes, or bare in a class body."""
    return [sub.attr if isinstance(sub, ast.Attribute) else sub.id
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Attribute, ast.Name)) and isinstance(sub.ctx, ast.Load)]


def unreferenced_private_members(sources: dict[str, str], tests: dict[str, str]) -> list[str]:
    """Private class members of ``sources`` that nothing in ``sources`` or
    ``tests`` reads outside their own definition.  Reads are counted by
    name, so a member counts as read wherever any object's member of the
    same name is read."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    counts = collections.Counter(
        ref for tree in list(trees.values()) + [ast.parse(t) for t in tests.values()]
        for ref in member_reads(tree))
    return sorted(f"{module}: {name} (line {node.lineno})"
                  for module, tree in trees.items()
                  for name, node in private_members(tree)
                  if counts[name] == member_reads(node).count(name))


def test_member_scan_flags_a_stranded_member():
    sources = {"a.py": "class A:\n    _LIMIT = 3\n\n    def __init__(self):\n"
                       "        self._x = 1\n        self._y = 2\n\n"
                       "    def _used(self):\n        return self._x + self._LIMIT\n\n"
                       "    def _stranded(self):\n        return self._stranded()\n\n\n"
                       "print(A()._used())\n"}
    tests = {"test_a.py": "def test_y():\n    assert A()._y == 2\n"}
    assert unreferenced_private_members(sources, tests) == ["a.py: _stranded (line 11)"]
    assert unreferenced_private_members(sources, {}) == [
        "a.py: _stranded (line 11)", "a.py: _y (line 6)"]


def test_no_unreferenced_private_members():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    tests = {p.name: p.read_text() for p in sorted(TESTS.glob("*.py"))}
    assert unreferenced_private_members(sources, tests) == []


DOTTED = re.compile(r"`+([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`+")


def dotted_names(text: str, modules) -> list[str]:
    """Backticked dotted names (one or two backticks) whose first part is
    one of ``modules`` or the package, ``elliptop``; file names such as
    ``torus.py`` are left out."""
    heads = set(modules) | {"elliptop"}
    return [m.group(1) for m in DOTTED.finditer(text)
            if m.group(1).split(".")[0] in heads and not m.group(1).endswith(".py")]


def docstrings(source: str) -> str:
    """The module, class and function docstrings of ``source``, joined."""
    return "\n".join(ast.get_docstring(node, clean=False) or ""
                     for node in ast.walk(ast.parse(source))
                     if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                          ast.AsyncFunctionDef)))


def unresolved(names) -> list[str]:
    """The dotted names that do not resolve to an attribute of an elliptop
    module (``elliptop.`` in front is optional)."""
    out = []
    for name in names:
        parts = name.split(".")
        parts = parts[1:] if parts[0] == "elliptop" else parts
        try:
            obj = importlib.import_module(".".join(["elliptop"] + parts[:1]))
        except ImportError:
            out.append(name)
            continue
        for part in parts[1:]:
            if not hasattr(obj, part):
                out.append(name)
                break
            obj = getattr(obj, part)
    return out


def test_name_scan_flags_a_stale_name():
    text = ('"""Uses `torus.reconstruct`, ``dynamics._trace_powers`` and\n'
            "``dynamics.spectral_invariants``, in ``elliptop.cli``; not `np.sum`,\n"
            '``model.reduction``, ``torus`` or the file ``torus.py``."""\n')
    names = dotted_names(docstrings(text), ["torus", "dynamics", "cli"])
    assert names == ["torus.reconstruct", "dynamics._trace_powers",
                     "dynamics.spectral_invariants", "elliptop.cli"]
    assert unresolved(names + ["elliptop.nowhere", "torus.T.missing"]) == [
        "dynamics.spectral_invariants", "elliptop.nowhere", "torus.T.missing"]
    assert dotted_names("x = 1\n", ["torus"]) == []


def test_name_scan_sees_the_readme_and_the_docstrings():
    modules = [p.stem for p in MODULES]
    assert dotted_names(README.read_text(), modules)
    assert any(dotted_names(docstrings(p.read_text()), modules) for p in MODULES)


@pytest.mark.parametrize("path", [README] + sorted(SRC.glob("*.py"))
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_documented_names_resolve(path):
    text = path.read_text()
    text = text if path.suffix == ".md" else docstrings(text)
    assert unresolved(dotted_names(text, [p.stem for p in MODULES])) == []


BARE_PRIVATE = re.compile(r"(?<!`)``(_[A-Za-z]\w*)``(?!`)")


def undefined_private_names(sources: dict[str, str]) -> list[str]:
    """Bare double-backticked private names (``_name``, no dots, no call) in
    the docstrings of ``sources`` that no module of ``sources`` defines: as
    a module-level name (decorated definitions included), a class member
    or a ``self.`` attribute."""
    defined = set()
    for tree in map(ast.parse, sources.values()):
        defined.update(name for name, _ in definitions(tree) + private_members(tree))
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return sorted({f"{module}: {name}" for module, src in sources.items()
                   for name in BARE_PRIVATE.findall(docstrings(src))
                   if name not in defined})


def test_private_name_scan_flags_an_undefined_name():
    sources = {
        "a.py": '"""Uses ``_helper``, ``_cached``, ``_LIMIT``, ``_x`` and ``_method``,\n'
                "not ``_gone`` or ``_stale``; ``_helper(x)``, ``a._gone``, `_gone`\n"
                'and ``__init__`` are not bare private names."""\n'
                "import functools\n_LIMIT = 3\n\n\ndef _helper():\n    pass\n\n\n"
                "@functools.cache\ndef _cached():\n    pass\n\n\nclass A:\n"
                "    def _method(self):\n        self._x = 1\n",
        "b.py": 'def f():\n    """Reads ``_stale`` and ``_method``."""\n',
    }
    assert undefined_private_names(sources) == ["a.py: _gone", "a.py: _stale",
                                                "b.py: _stale"]


def test_documented_private_names_are_defined():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert undefined_private_names(sources) == []
