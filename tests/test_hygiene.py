"""Source hygiene: every imported name is used by the module importing it,
every private helper of the package is used somewhere in it, every public
function or method of the package is used somewhere in the repo, every
defaulted parameter of the package is set by some call in the repo, and
every dataclass field of the package is read somewhere in the repo."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cosetlab").glob("*.py"))
# __init__.py is left out: its imports are the package's public re-exports.
MODULES = sorted(
    path
    for path in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)
# every Python file that may refer to a public function of the package
REPO = [*PACKAGE, *(path for folder in ("tests", "demos", "bench")
                    for path in sorted((ROOT / folder).glob("*.py")))]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements anywhere in the module that no
    other node of the module refers to; `from __future__` is exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                          key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import pi, tau\n"
        "def f():\n"
        "    import json\n"
        "    return system.argv, tau\n"
    )
    assert unused_imports(tree) == ["line 2: os", "line 3: pi", "line 5: json"]


def _foreign_modules(tree: ast.Module) -> frozenset:
    """Names that `import x` or `import x as y` binds to a module outside
    the cosetlab package."""
    return frozenset(
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.split(".")[0] != "cosetlab"
    )


def _referenced_names(tree, foreign: frozenset):
    """The names that the Name, attribute-access and imported-alias nodes
    of tree refer to.  An attribute reached from a foreign module
    (ast.parse, np.linalg.norm) refers to that module, not to the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unreferenced(defined, trees: dict) -> list[str]:
    """The (module, node) definitions whose name no module of trees refers
    to outside the node's own definition.  Names are matched module-blind,
    so a definition sharing its name with a used one passes."""
    foreign = {module: _foreign_modules(tree) for module, tree in trees.items()}
    refs = Counter(name for module, tree in trees.items()
                   for name in _referenced_names(tree, foreign[module]))
    dead = []
    for module, node in defined:
        own = sum(1 for name in _referenced_names(node, foreign[module])
                  if name == node.name)
        if refs[node.name] == own:
            dead.append(f"{module}:{node.lineno}: {node.name}")
    return dead


def dead_private_helpers(trees: dict) -> list[str]:
    """`_name` functions and classes (dunders exempt) of the modules in
    trees that no module refers to outside the helper's own definition."""
    defined = [
        (module, node) for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    ]
    return _unreferenced(defined, trees)


def dead_public_functions(package: dict, trees: dict) -> list[str]:
    """Functions and methods without a leading underscore, at any depth of
    the modules in package, that no module of trees (which should include
    package) refers to outside the function's own definition."""
    defined = [
        (module, node) for module, tree in package.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]
    return _unreferenced(defined, trees)


def test_no_dead_private_helpers():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE}
    assert dead_private_helpers(trees) == []


def test_no_dead_public_functions():
    trees = {f"{path.parent.name}/{path.name}": ast.parse(path.read_text(), str(path))
             for path in REPO}
    package = {name: tree for name, tree in trees.items() if name.startswith("cosetlab/")}
    assert dead_public_functions(package, trees) == []


def test_the_scan_sees_a_dead_private_helper():
    trees = {
        "a.py": ast.parse(
            "def _dead():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "def _called():\n"
            "    return 2\n"
            "def __dunder__():\n"
            "    return 3\n"
            "class _Box:\n"
            "    def _method(self):\n"
            "        return 4\n"
            "    def _unused_method(self):\n"
            "        return 5\n"
            "def public():\n"
            "    return _Box()._method()\n"
        ),
        "b.py": ast.parse("from a import _called\n"),
    }
    assert dead_private_helpers(trees) == [
        "a.py:1: _dead", "a.py:3: _recursive", "a.py:12: _unused_method",
    ]


def test_the_scan_sees_a_dead_public_function():
    package = {
        "a.py": ast.parse(
            "def dead():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def used_by_a_test():\n"
            "    return 2\n"
            "def _private():\n"
            "    return 3\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.x = 4\n"
            "    def method(self):\n"
            "        return 5\n"
            "    def unused_method(self):\n"
            "        return 6\n"
            "def caller():\n"
            "    return Box().method()\n"
            "def parse(text):\n"
            "    return text\n"
            "def norm(v):\n"
            "    return v\n"
            "def used_through_the_package():\n"
            "    return 7\n"
        ),
    }
    # ast.parse and np.linalg.norm name attributes of foreign modules, so
    # they do not keep a.parse or a.norm alive; cosetlab.a.<name> does.
    trees = {
        **package,
        "test_a.py": ast.parse(
            "import ast\n"
            "import numpy as np\n"
            "import cosetlab.a\n"
            "from a import caller, used_by_a_test\n"
            "ast.parse('x')\n"
            "np.linalg.norm(0)\n"
            "cosetlab.a.used_through_the_package()\n"
        ),
    }
    assert dead_public_functions(package, trees) == [
        "a.py:1: dead", "a.py:3: recursive", "a.py:18: parse", "a.py:20: norm",
        "a.py:14: unused_method",
    ]


def _defaulted_parameters(tree: ast.Module):
    """(node, name, position, parameter) for every defaulted parameter of
    the functions and methods of tree.  name is the name a call spells: the
    function's own, or the class name for __init__.  position is the
    parameter's index among the positional arguments of a call (self and
    cls skipped), None for a keyword-only parameter."""
    scopes = [(tree, None)]
    while scopes:
        scope, owner = scopes.pop()
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                scopes.append((node, node.name))
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, owner))
                continue
            name = owner if node.name == "__init__" else node.name
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if owner and not static else 0
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield node, name, i - skip, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node, name, None, arg.arg
            scopes.append((node, None))


def _calls(tree, foreign: frozenset, bases=()):
    """(names, positional count, keywords, star, double star) for every
    call of tree that spells a name: f(...), x.f(...), super().f(...).
    super().__init__(...) names the enclosing class's bases.  A call
    through a foreign module (np.linalg.norm(...)) is left out."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _calls(node, foreign, tuple(
                b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                for b in node.bases))
            continue
        yield from _calls(node, foreign, bases)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            names = {func.id}
        elif isinstance(func, ast.Attribute):
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in foreign:
                continue
            names = {func.attr}
            if (func.attr == "__init__" and isinstance(root, ast.Call)
                    and isinstance(root.func, ast.Name) and root.func.id == "super"):
                names = set(bases)
        else:
            continue
        star = any(isinstance(a, ast.Starred) for a in node.args)
        count = next((i for i, a in enumerate(node.args)
                      if isinstance(a, ast.Starred)), len(node.args))
        keywords = {kw.arg for kw in node.keywords}
        yield names, count, keywords - {None}, star, None in keywords


def unset_defaults(package: dict, trees: dict) -> list[str]:
    """Defaulted parameters of the functions and methods in package that
    no call in trees sets, by keyword, by position, or through *args or
    **kwargs; a wrapper passing its own parameter on sets it too.  Calls
    are matched by the name they spell, module-blind: a class call only
    reaches that class's own __init__, and a call through another name
    (cls(...), a stored function) is not seen."""
    calls = [call for module, tree in trees.items()
             for call in _calls(tree, _foreign_modules(tree))]
    unset = []
    for module, tree in package.items():
        for node, name, position, param in _defaulted_parameters(tree):
            if not any(
                name in names and (
                    param in keywords or double
                    or (position is not None and (count > position or star)))
                for names, count, keywords, star, double in calls
            ):
                unset.append((module, node.lineno, name, param))
    return [f"{module}:{line}: {name}({param})"
            for module, line, name, param in sorted(unset)]


def test_every_default_is_set_by_some_call():
    trees = {f"{path.parent.name}/{path.name}": ast.parse(path.read_text(), str(path))
             for path in REPO}
    package = {name: tree for name, tree in trees.items() if name.startswith("cosetlab/")}
    assert unset_defaults(package, trees) == []


def test_the_scan_sees_an_unset_default():
    package = {
        "a.py": ast.parse(
            "def f(x, flag=False, *, mode='a', unused=1):\n"
            "    return g(x, level=1)\n"
            "def g(x, level=0):\n"
            "    return x\n"
            "def h(x, depth=0, width=0):\n"
            "    return x\n"
            "def spread(*args):\n"
            "    return h(*args)\n"
            "def never(x, y=None):\n"
            "    return x\n"
            "class Box:\n"
            "    def __init__(self, size=1, color='red'):\n"
            "        self.size = size\n"
            "    def grow(self, by=1, limit=None):\n"
            "        return by\n"
            "    @staticmethod\n"
            "    def make(n, fill=0):\n"
            "        return n\n"
            "class Small(Box):\n"
            "    def __init__(self, size=1):\n"
            "        super().__init__(size)\n"
        ),
    }
    # keyword (mode, level), position (Box.grow's by, with self skipped;
    # Box.make's fill, static), super() pass-through (Box's size, but not
    # Small's, which no Small(...) call sets), *args (depth, width);
    # np.never(1, 2) calls a foreign module
    trees = {
        **package,
        "test_a.py": ast.parse(
            "import numpy as np\n"
            "from a import Box, f, spread\n"
            "f(1, mode='b')\n"
            "spread(1, 2, 3)\n"
            "Box().grow(2)\n"
            "Box.make(1, 2)\n"
            "np.never(1, 2)\n"
        ),
    }
    assert unset_defaults(package, trees) == [
        "a.py:1: f(flag)", "a.py:1: f(unused)", "a.py:9: never(y)",
        "a.py:12: Box(color)", "a.py:14: grow(limit)", "a.py:20: Small(size)",
    ]


def _is_dataclass(decorator) -> bool:
    """@dataclass, @dataclass(...) or @dataclasses.dataclass(...)."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def unread_dataclass_fields(package: dict, trees: dict) -> list[str]:
    """Annotated fields of the dataclasses in package whose name no module
    of trees reads as an attribute (x.name in a load context).  Names are
    matched module-blind, so a field sharing its name with a read
    attribute passes."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [
        f"{module}:{stmt.lineno}: {cls.name}.{stmt.target.id}"
        for module, tree in package.items() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]


def test_every_dataclass_field_is_read():
    trees = {f"{path.parent.name}/{path.name}": ast.parse(path.read_text(), str(path))
             for path in REPO}
    package = {name: tree for name, tree in trees.items() if name.startswith("cosetlab/")}
    assert unread_dataclass_fields(package, trees) == []


def test_the_scan_sees_an_unread_dataclass_field():
    package = {
        "a.py": ast.parse(
            "import dataclasses\n"
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Stats:\n"
            "    values: tuple\n"
            "    hits: int\n"
            "    def __post_init__(self):\n"
            "        assert self.values\n"
            "@dataclasses.dataclass\n"
            "class Box:\n"
            "    size: int\n"
            "    color: str = 'red'\n"
            "class Plain:\n"
            "    weight: int\n"
        ),
    }
    # Stats.values is read in its own class and Box.size in a test; a
    # store (box.color = ...) is not a read; Plain is not a dataclass
    trees = {
        **package,
        "test_a.py": ast.parse(
            "from a import Box\n"
            "box = Box(1)\n"
            "box.color = 'blue'\n"
            "print(box.size)\n"
        ),
    }
    assert unread_dataclass_fields(package, trees) == [
        "a.py:6: Stats.hits", "a.py:12: Box.color",
    ]
