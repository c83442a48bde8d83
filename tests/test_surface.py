"""The library has no test-only surface: every function, class and method
defined in ``src/csvgd`` is named by some library code other than its own
definition, its module's ``__all__`` and the package ``__init__``.

A name counts as used where it appears as an identifier (a name or an
attribute) in any module of the package outside its own ``def`` or
``class``.  A default is no use: a name that library code gives only as a
parameter default or as a dataclass ``field(default_factory=...)`` is
never called unless a caller leaves that default in place, which no library
code may be the only one to do.  The scan has no types, so a method would count as used wherever
any attribute of its name is read.  So no two library definitions share a
bare name, except the methods of a protocol that the library calls through
it (``PROTOCOL``).  Code that only tests or demos call belongs in
``tests/_oracles.py`` or the demo, not in ``src/``.  ``ALLOWED`` exempts a
name only with the reason it stays.

A special method is called through syntax, not by its name, so the scan
cannot see its callers.  Every one but ``__post_init__`` (which a dataclass
calls on construction) is listed in ``DUNDERS`` with the library use that
needs it.
"""

import ast
from collections import Counter
from pathlib import Path

import csvgd

PACKAGE = Path(csvgd.__file__).resolve().parent

ALLOWED = {
    "resume_csvgd": "the public way to continue a run from a stage checkpoint; "
                    "no command resumes yet",
    "permute_hidden": "the node-permutation tool of the planned uncertainty "
                      "output (parameter alignment across particles)",
    "LayeredNet.with_values": "the benchmark's probe imports it and its span "
                              "tracer patches it; it goes with that benchmark "
                              "change",
}

# Bare names that several classes define, each the method of a protocol that
# the library calls without knowing the class.
PROTOCOL = {
    "score_and_mse_batch": "the target protocol: the engine scores every "
                           "target (MvnTarget, RegressionTarget) through it",
}

# Special methods of library classes, each with the library code that calls it.
DUNDERS = {
    "Dataset.__len__": "RegressionTarget.score_and_mse_batch sizes its particle "
                       "blocks by the strain rows, len(self.dataset)",
}


def _definitions(tree):
    """(qualified name, bare name, node) of every module-level function and
    class and every non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def _is_default(node, child):
    """Whether ``child`` of ``node`` is a parameter default or the value of a
    ``default_factory`` keyword."""
    if isinstance(node, ast.arguments):
        return any(child is d for d in node.defaults + node.kw_defaults)
    return isinstance(node, ast.keyword) and node.arg == "default_factory"


def _identifiers(node, skip):
    """Names and attribute names under ``node``, except under ``skip`` and in
    defaults."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        if not _is_default(node, child):
            yield from _identifiers(child, skip)


def _dunders(tree):
    """Qualified names of the special methods of module-level classes, but
    ``__post_init__``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and item.name != "__post_init__"
                        and item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}"


def _library(package):
    # ``__all__`` is a list of strings, so the package ``__init__`` names nothing
    return [ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))
            if p.name != "__init__.py"]


def _shared_names(package=PACKAGE):
    """Bare names that two or more library definitions share."""
    counts = Counter(bare for tree in _library(package)
                     for _, bare, _ in _definitions(tree))
    return sorted(name for name, n in counts.items() if n > 1)


def _unused_names(package=PACKAGE):
    library = _library(package)
    unused = []
    for tree in library:
        for qualified, bare, node in _definitions(tree):
            if not any(bare in set(_identifiers(other, node)) for other in library):
                unused.append(qualified)
    return sorted(unused)


def test_every_definition_has_a_library_caller():
    unused = set(_unused_names())
    assert unused - set(ALLOWED) == set(), (
        "defined in src/csvgd but named by no library code; give it a library "
        "caller or move it to tests/_oracles.py")


def test_no_two_definitions_share_a_name():
    assert all(reason.strip() for reason in PROTOCOL.values())
    # a protocol name that only one class still defines leaves the list
    assert set(_shared_names()) == set(PROTOCOL), (
        "two library definitions share a bare name, so the name scan cannot "
        "tell their callers apart; rename one or delete the one without a caller")


def test_every_special_method_has_a_listed_library_use():
    assert all(reason.strip() for reason in DUNDERS.values())
    # a special method that left the library leaves the list
    found = sorted(q for tree in _library(PACKAGE) for q in _dunders(tree))
    assert found == sorted(DUNDERS), (
        "a special method of a library class is not in DUNDERS; name the library "
        "code that calls it, or delete it")


def test_allowlist_is_short_and_current():
    assert len(ALLOWED) <= 3
    assert all(reason.strip() for reason in ALLOWED.values())
    # an exempt name that gained a library caller leaves the list
    assert set(ALLOWED) <= set(_unused_names())


def test_scan_sees_a_name_used_only_in_its_own_body(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(n):\n    return f(n - 1) if n else 0\n\n"
        "def g():\n    return h()\n\n"
        "def h():\n    return 1\n\n"
        "class C:\n    def used(self):\n        return self.spare\n\n"
        "    def spare(self):\n        return 0\n\n"
        "    def orphan(self):\n        return 0\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def __post_init__(self):\n        pass\n")
    assert _unused_names(tmp_path) == ["C", "C.orphan", "C.used", "f", "g"]
    assert list(_dunders(_library(tmp_path)[0])) == ["C.__len__"]


def test_scan_counts_a_default_as_no_use(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "class Factory:\n    pass\n\n"
        "def fallback():\n    return 0\n\n"
        "def keyword_fallback():\n    return 0\n\n"
        "@dataclass\nclass Holder:\n    made: object = field(default_factory=Factory)\n\n"
        "def user(a=fallback, *, b=keyword_fallback):\n"
        "    return Holder(), a, b\n")
    assert _unused_names(tmp_path) == ["Factory", "fallback", "keyword_fallback", "user"]


def test_scan_sees_a_name_two_classes_define(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n    def flatten(self):\n        return 0\n\n"
        "def flatten(x):\n    return x\n")
    (tmp_path / "b.py").write_text(
        "class B:\n    def flatten(self):\n        return A().flatten()\n\n"
        "    def only(self):\n        return 1\n")
    assert _shared_names(tmp_path) == ["flatten"]
