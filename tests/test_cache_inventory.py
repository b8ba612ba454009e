"""The package keeps one cache, and it is bounded.

Every weight vector a matrix function reads lives in one lru_cache with an
integer bound in engine.  The border-strip and quasi-shuffle memos are
plain dicts that live for one table or one product.  Any other cache,
decorated or called, fails this test.
"""

import ast
from pathlib import Path

import quasimm

PACKAGE_DIR = Path(quasimm.__file__).parent
CACHE_NAMES = {"cache", "lru_cache", "cached_property"}


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _describe(node) -> str:
    """A cache decorator or call as text; an lru_cache says whether its bound is an int."""
    if _name(node) != "lru_cache":
        return _name(node)
    bound = None
    if isinstance(node, ast.Call):
        args = node.args + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
        bound = args[0] if args else None
    is_int = isinstance(bound, ast.Constant) and type(bound.value) is int and bound.value > 0
    return "lru_cache(maxsize=int)" if is_int else "lru_cache(unbounded or default)"


def _caches(package_dir=PACKAGE_DIR) -> list:
    """(module, function, cache) for every cache decorator or cache call in the package."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    if _name(decorator) in CACHE_NAMES:
                        decorators.add(id(decorator))
                        found.append((path.stem, node.name, _describe(decorator)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node) in CACHE_NAMES:
                if id(node) not in decorators:
                    found.append((path.stem, "<call>", _describe(node)))
    return found


def test_one_bounded_weight_cache():
    assert _caches() == [("engine", "_weights", "lru_cache(maxsize=int)")]


def test_the_scan_sees_each_spelling_of_a_cache(tmp_path):
    (tmp_path / "spellings.py").write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@lru_cache\n"
        "def b(): pass\n"
        "@lru_cache(64)\n"
        "def c(): pass\n"
        "@cache\n"
        "def d(): pass\n"
        "e = functools.lru_cache(maxsize=8)(len)\n"
    )
    assert _caches(tmp_path) == [
        ("spellings", "a", "lru_cache(unbounded or default)"),
        ("spellings", "b", "lru_cache(unbounded or default)"),
        ("spellings", "c", "lru_cache(maxsize=int)"),
        ("spellings", "d", "cache"),
        ("spellings", "<call>", "lru_cache(maxsize=int)"),
    ]
