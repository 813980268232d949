"""Every library name and import has a reader outside the tests.

A value only the tests read belongs in the tests.  So a top-level function
or class of `src/coverpack`, or a method (other than a dunder) of one of
its classes, must be referenced from `src/coverpack`, `scripts/` or
`perfbench/`, not only from `tests/`.  A top-level name is referenced by a
name read in its own module, or by an import (the `__init__` exports
included) or a module attribute, such as `classify.connected_graphs`, that
resolves to it; a method by any attribute read.  A definition's references
to itself, as in a recursive function, do not count.  A name that only the
tests need belongs in `tests/oracles.py`.

No module under `src/`, `tests/` or `scripts/` imports a name it never
reads; `__future__` imports and the re-exports of an `__init__` module are
exempt.

No library function takes a resource limit as a parameter: the guards read
`DEFAULT_GEN_CAP` and `DEFAULT_SCAN_CAP` from `coverpack.ideals`.  Every
parameter of a library function is read in its body.

A private format has one owner: no module but `coverpack.duality` defines,
imports or reads (as an attribute of the owner module) a name of the fold's
packed exponent layout, and none but `coverpack.lpdual` the packing search
behind nu, its column builder, or the gap search's packed prime weights.
"""

import ast
import os
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "coverpack")
OTHERS = (os.path.join(ROOT, "scripts"), os.path.join(ROOT, "perfbench"))
TESTS = os.path.join(ROOT, "tests")


def _parse_dir(path: str) -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read(), name)
    return trees


def _bindings(tree: ast.Module, package: str) -> dict[str, str]:
    """The dotted path each name bound by an import of a module stands for;
    relative imports are read inside `package`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    root = alias.name.partition(".")[0]
                    out[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, (package, base)))
            for alias in node.names:
                out[alias.asname or alias.name] = f"{base}.{alias.name}"
    return out


def _dotted(node: ast.expr, bound: dict[str, str]):
    """`node` as a dotted path when it is an attribute chain on an imported name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(attrs)])
    return None


def _references(tree: ast.AST, bound: dict[str, str]) -> tuple[Counter, Counter, Counter]:
    """Under `tree`, counted: the names read in load context, the dotted
    paths imported or read as attributes of an imported name (such as
    `coverpack.ideals.minimalize`), and the attributes read."""
    names, paths, attrs = Counter(), Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                paths[bound[alias.asname or alias.name]] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs[node.attr] += 1
            dotted = _dotted(node, bound)
            if dotted:
                paths[dotted] += 1
    return names, paths, attrs


def unreferenced(library: dict[str, ast.Module], others: list[ast.Module],
                 package: str = "coverpack") -> list[str]:
    """`module.name` or `module.Class.method` for every definition in the
    modules of `library` that no tree in `library` or `others` references.

    A top-level definition is referenced by a name its own module reads, or
    by an import or module attribute that resolves to it; a method by any
    attribute read.  References inside the definition itself do not count.
    """
    paths, attrs = Counter(), Counter()
    for tree in [*library.values(), *others]:
        _, p, a = _references(tree, _bindings(tree, package))
        paths += p
        attrs += a
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for module, tree in library.items():
        bound = _bindings(tree, package)
        names = _references(tree, bound)[0]
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            own = _references(node, bound)[0][node.name]
            if names[node.name] - own + paths[f"{package}.{module}.{node.name}"] <= 0:
                out.append(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for meth in node.body:
                if (isinstance(meth, defs[:2]) and not meth.name.startswith("__")
                        and attrs[meth.name] - _references(meth, bound)[2][meth.name] <= 0):
                    out.append(f"{module}.{node.name}.{meth.name}")
    return out


def _trees() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    return _parse_dir(LIBRARY), [t for d in OTHERS for t in _parse_dir(d).values()]


def test_every_library_name_has_a_caller_outside_the_tests():
    assert unreferenced(*_trees()) == []


def test_guard_sees_methods_recursion_and_every_reference_kind():
    library = {"m": ast.parse(
        "class A:\n"
        "    def used(self):\n"
        "        return self.used()\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def unused(self):\n"
        "        return unused_top()\n"
        "def unused_top():\n"
        "    return unused_top()\n"
        "def by_module_attr():\n"
        "    pass\n"
        "def by_own_module():\n"
        "    return A().used()\n"
        "def imported():\n"
        "    pass\n"
        "def same_name_elsewhere():\n"
        "    pass\n"
        "VALUE = by_own_module()\n")}
    others = [ast.parse("import coverpack.m\n"
                        "from coverpack.m import imported\n"
                        "from other import same_name_elsewhere\n"
                        "coverpack.m.by_module_attr()\n"
                        "same_name_elsewhere()\n"
                        "A().same_name_elsewhere\n")]
    # unused_top's only caller outside itself is a method nothing calls,
    # which still counts; a method's call to itself does not, and neither
    # does a name, import or attribute that resolves to another module
    assert unreferenced(library, others) == ["m.A.unused", "m.same_name_elsewhere"]
    library["m"].body[0].body.pop(2)
    assert unreferenced(library, others) == ["m.unused_top", "m.same_name_elsewhere"]


# library names that only the tests reached; each moved to tests/oracles.py
# or gave way to an existing route
REMOVED = [
    ("ideals", None, "from_masks"),
    ("ideals", None, "zero_ideal"),
    ("ideals", None, "unit_ideal"),
    ("ideals", None, "height"),
    ("ideals", None, "parse_monomial"),
    ("ideals", "MonomialIdeal", "from_json"),
    ("graphs", "Graph", "neighbors"),
    ("graphs", "Graph", "degree"),
]


@pytest.mark.parametrize("module, cls, name", REMOVED)
def test_guard_flags_a_removed_name_put_back(module, cls, name):
    library, others = _trees()
    body = library[module].body
    if cls:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == cls).body
    body.append(ast.parse(f"def {name}(*args):\n    pass\n").body[0])
    assert unreferenced(library, others) == [".".join(filter(None, (module, cls, name)))]


def unused_imports(trees: dict[str, ast.Module]) -> list[str]:
    """`module.name` for every name an import in a module of `trees` binds
    that the module never reads: a name read anywhere in it, or for
    `import a.b` the chain `a.b` read as an attribute.  `__future__` imports
    and `__init__` modules (by the last part of their key) are skipped."""
    out = []
    for module, tree in trees.items():
        if module.rpartition("/")[2] == "__init__":
            continue
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        # and every attribute chain on a name, such as `coverpack.ideals`
        identity = {name: name for name in read}
        read |= {_dotted(n, identity) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out += [f"{module}.{alias.asname or alias.name}" for alias in node.names
                        if (alias.asname or alias.name) not in read]
    return sorted(out)


def test_no_module_imports_a_name_it_never_reads():
    trees = {}
    for path in (LIBRARY, TESTS, OTHERS[0]):
        trees.update({f"{os.path.basename(path)}/{name}": tree
                      for name, tree in _parse_dir(path).items()})
    assert unused_imports(trees) == []


def test_unused_import_guard_flags_a_planted_import():
    trees = {"m": ast.parse(
        "from __future__ import annotations\n"
        "import json\n"
        "import collections.abc\n"
        "import collections\n"
        "import itertools as it\n"
        "from typing import Optional, Sequence\n"
        "from math import comb as choose\n"
        "def f(x: Optional[int]):\n"
        "    from string import digits\n"
        "    return it.chain(digits, collections.OrderedDict(), comb)\n"),
        "__init__": ast.parse("from .m import f\n")}
    # an annotation, an attribute chain and a nested function's read count;
    # `import a.b` needs `a.b` read, and a name read under another binding
    # does not count
    assert unused_imports(trees) == ["m.Sequence", "m.choose", "m.collections.abc", "m.json"]
    trees["m"].body.append(ast.parse("print(json.dumps(collections.abc.Sized, Sequence))").body[0])
    assert unused_imports(trees) == ["m.choose"]


CAP_PARAMETERS = {"cap", "gen_cap", "scan_cap"}


def _functions(tree: ast.AST):
    """Every function and lambda under `tree`, as (node, parameter names)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            yield node, [p.arg for p in params]


def cap_parameters(library: dict[str, ast.Module]) -> list[str]:
    """`module.function` for every function or lambda in `library` with a
    parameter named like a resource limit."""
    out = []
    for module, tree in library.items():
        for node, params in _functions(tree):
            if CAP_PARAMETERS & set(params):
                out.append(f"{module}.{getattr(node, 'name', '<lambda>')}")
    return sorted(out)


def test_no_library_function_takes_a_cap_parameter():
    assert cap_parameters(_parse_dir(LIBRARY)) == []


def test_cap_guard_sees_every_kind_of_parameter():
    library = {"m": ast.parse(
        "def f(a, cap=1):\n"
        "    pass\n"
        "class A:\n"
        "    def g(self, *, scan_cap):\n"
        "        pass\n"
        "def h(capacity, **gen_cap):\n"
        "    return lambda gen_cap: gen_cap\n"
        "def k(limit, caps):\n"
        "    cap = limit\n")}
    # a local named cap is not a parameter
    assert cap_parameters(library) == ["m.<lambda>", "m.f", "m.g", "m.h"]


def unread_parameters(library: dict[str, ast.Module]) -> list[str]:
    """`module.function.parameter` for every parameter of a function or
    lambda in `library` that no name in its body reads; a nested function's
    read counts, an annotation or a default value does not."""
    out = []
    for module, tree in library.items():
        for node, params in _functions(tree):
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            out += [f"{module}.{name}.{p}" for p in params if p not in read]
    return sorted(out)


def test_every_library_parameter_is_read():
    assert unread_parameters(_parse_dir(LIBRARY)) == []


def test_unread_parameter_guard_sees_every_kind_of_parameter():
    library = {"m": ast.parse(
        "def f(a, /, b, *args, c, **kw):\n"
        "    return a + len(kw)\n"
        "class A:\n"
        "    def g(self, x):\n"
        "        def inner():\n"
        "            return x\n"
        "        return inner\n"
        "    def h(self, y: y = y):\n"
        "        y_ = self\n"
        "k = lambda z, w: z\n")}
    # a closure's read counts; `y` in an annotation or a default does not,
    # nor does a longer name that starts with it
    assert unread_parameters(library) == [
        "m.<lambda>.w", "m.f.args", "m.f.b", "m.f.c", "m.g.self", "m.h.y"]


# each private format, by the one module that may define or import its names:
# the packed exponent layout of the symbolic-power fold, and the packing
# program behind nu with its columns
PRIVATE_FORMATS = {
    "duality": {"FIELD_MAX", "_FIELD", "unpack", "field_shift", "_high_mask", "_ones", "_fold"},
    "lpdual": {"max_packing", "_columns", "_weight_kernel", "_lightest"},
}


def foreign_format_names(library: dict[str, ast.Module],
                         formats: dict[str, set[str]] = PRIVATE_FORMATS) -> list[str]:
    """`module.name` for every name of a private format in `formats` that a
    module of `library` other than its owner defines, assigns at any depth,
    imports, or reads as an attribute of the imported owner module."""
    out = set()
    for module, tree in library.items():
        foreign = set().union(*(names for owner, names in formats.items() if owner != module))
        bound = _bindings(tree, "coverpack")
        reads = {f"coverpack.{owner}.{name}"
                 for owner, names in formats.items() if owner != module for name in names}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {name for a in node.names for name in (a.name, a.asname)}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = {node.id}
            elif isinstance(node, ast.Attribute) and _dotted(node, bound) in reads:
                names = {node.attr}
            else:
                continue
            out.update(f"{module}.{name}" for name in names & foreign)
    return sorted(out)


def test_each_private_format_stays_with_its_owner():
    assert foreign_format_names(_parse_dir(LIBRARY)) == []


def test_private_format_guard_sees_every_kind_of_binding():
    library = {
        "duality": ast.parse("FIELD_MAX = 1\ndef unpack(p, n):\n    pass\n"
                             "from .lpdual import max_packing\n"),
        "lpdual": ast.parse("def max_packing(rows, capacity):\n    pass\n"
                            "def _columns(j):\n    pass\nfrom .duality import unpack\n"),
        "a": ast.parse("from .duality import FIELD_MAX as cap, unpack\n"),
        "b": ast.parse("def f():\n    _FIELD = 16\nclass field_shift:\n    pass\n"),
        "c": ast.parse("import struct\ndef _high_mask(n):\n    return n\n"
                       "def g(_ones):\n    return _ones.FIELD_MAX\n"),
        "d": ast.parse("from .lpdual import _columns as cols\n"
                       "def max_packing(rows):\n    pass\n"),
        "e": ast.parse("def f(max_packing):\n    return max_packing._columns\n"),
        "f": ast.parse("from . import lpdual\nlpdual.max_packing((), ())\n"),
        "g": ast.parse("from . import duality, tconn\nduality._fold(None, 2)\ntconn._fold\n"),
    }
    # an import counts under its own name and its alias; a parameter or an
    # attribute read is no binding of the module's own, but a read through
    # the imported owner module counts; an owner may bind its own format's
    # names and no other's
    assert foreign_format_names(library) == [
        "a.FIELD_MAX", "a.unpack", "b._FIELD", "b.field_shift", "c._high_mask",
        "d._columns", "d.max_packing", "duality.max_packing", "f.max_packing", "g._fold",
        "lpdual.unpack"]
