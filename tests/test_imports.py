"""Every module of the package and of its tests uses each name it imports.

This is pyflakes' unused-import rule (F401) as a test, on the standard
library's ``ast`` alone. An import whose line carries ``# noqa: F401`` is
exempt, and so is the package ``__init__``, whose imports are its public
API.

Beside it, a check of the project's pytest settings: with every warning an
error, a failing hypothesis test still reports its assertion.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.name: p for p in sorted((ROOT / "src" / "safestream").glob("*.py"))
           if p.name != "__init__.py"}
MODULES.update({p.name: p for p in sorted((ROOT / "tests").glob("*.py"))})
NOQA = "# noqa: F401"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no other line reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if NOQA in lines[node.lineno - 1] or NOQA in lines[alias.lineno - 1]:
                continue
            bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_has_no_unused_import(name):
    assert unused_imports(MODULES[name].read_text()) == []


def test_rule_flags_unused_and_honours_noqa():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from a import (\n    b,\n    c,\n)\nc()\n") == ["line 2: b"]
    assert unused_imports("from a import b as c\nb()\n") == ["line 1: c"]
    assert unused_imports(f"import os  {NOQA}\n") == []
    assert unused_imports(f"from a import (\n    b,  {NOQA}\n    c,\n)\n") == ["line 3: c"]
    assert unused_imports("from __future__ import annotations\n") == []


FAILING_GIVEN = """from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_failing_hypothesis_test_reports_its_assertion(tmp_path):
    # run under pyproject.toml's warning filters, the failure must end in its
    # assertion, not in an INTERNALERROR raised while hypothesis reports it
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "assert x != x" in out
    assert "INTERNALERROR" not in out
