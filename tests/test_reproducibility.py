"""Seeded results pinned by digest, so every supported Python gives the same floats.

Python 3.12 made the builtin sum() compensate float rounding; the library
adds floats left to right instead (numerics.ordered_sum), and these
digests fail on any interpreter where a seeded result moves.  The module
also runs without pytest, printing the digests:

    PYTHONPATH=src python tests/test_reproducibility.py
"""

import ast
import hashlib
import subprocess
import sys
from pathlib import Path

from rulecover import search, smooth

SRC = Path(__file__).resolve().parent.parent / "src" / "rulecover"

PINNED = {
    "search_best_areas": "f1a4fd2e63a86511",
    "smooth128_vertices": "6c98c2185cf8b147",
}


def digest(value) -> str:
    """Short content hash of a value's repr (floats keep every digit)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def digests() -> dict:
    trace = search.local_search(
        search.SearchConfig(edges=16, iterations=400, seed=3))
    _, co, _ = smooth.optimize_smooth(tol=1e-12)
    return {
        "search_best_areas": digest(trace.best_areas),
        "smooth128_vertices": digest(smooth.discretize_smooth(co, 128).vertices),
    }


def test_seeded_results_match_pinned_digests():
    assert digests() == PINNED


def test_library_never_calls_builtin_sum():
    # the digests catch a sum() only where a pinned result passes through it
    modules = sorted(SRC.glob("*.py"))
    assert modules
    calls = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "sum"]
    assert calls == []


def test_library_never_imports_dataclasses():
    # @dataclass compiles its generated methods on every import; records
    # are __slots__ classes or NamedTuples instead (README, Layout)
    imports = [f"{path.name}:{node.lineno}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
               or isinstance(node, ast.Import)
               and any(a.name == "dataclasses" for a in node.names)]
    assert imports == []


# Functions and methods kept without a caller, each for its reason.
KEPT_UNCALLED = {
    "right_arcs": "CoverBundle's run views: the README names them as the "
                  "one place that knows the boundary layout",
    "left_arcs": "the other run view, kept with right_arcs",
    "involute_points": "the smooth cover's involutes, which the ROADMAP's "
                       "smooth-cover verifier is to call",
    "ell_squared_antiderivative": "test_smooth's reference for the odd-part "
                                  "formula of the integral of l^2",
}


def _mentions(path):
    """Every name, attribute and string in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_library_function_has_a_caller():
    # a top-level function or non-dunder method counts as used when src/,
    # a script, the benchmark (its tracer's SITES) or the acceptance module
    # names it
    root = SRC.parent.parent
    used = set()
    for path in [*sorted(SRC.glob("*.py")), *sorted(root.glob("scripts/*.py")),
                 *sorted(root.glob("perfbench/*.py")),
                 root / "tests" / "test_acceptance.py"]:
        used.update(_mentions(path))
    defs = ast.FunctionDef, ast.AsyncFunctionDef
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if isinstance(member, defs) and not member.name.startswith("__"):
                    defined[member.name] = f"{path.name}:{member.lineno}"
    uncalled = {name: where for name, where in defined.items()
                if name not in used and name not in KEPT_UNCALLED}
    assert uncalled == {}
    assert set(KEPT_UNCALLED) <= set(defined)


def _fresh_import(module):
    # the modules a fresh interpreter gains by importing module
    code = ("import sys; bare = set(sys.modules); "
            f"sys.path.insert(0, {str(SRC.parent)!r}); import {module}; "
            "print(*sorted(set(sys.modules) - bare))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True).stdout.split()


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    added = _fresh_import("rulecover.cli")
    assert "rulecover.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added)


def test_package_import_loads_no_module():
    added = _fresh_import("rulecover")
    assert [m for m in added if m.startswith("rulecover.")] == []


def test_each_module_imports_on_its_own():
    # the package init orders no import, so each module, including both
    # ends of the involute <-> constructions cycle, must load unaided
    names = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert len(names) == 10
    failed = [m for m in names
              if f"rulecover.{m}" not in _fresh_import(f"rulecover.{m}")]
    assert failed == []


if __name__ == "__main__":
    for name, value in digests().items():
        print(f"{name} {value}")
