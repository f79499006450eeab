import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import salemlab

PACKAGE = Path(salemlab.__file__).parent


def _names_used(path) -> set[str]:
    """Every name a module reads, as a bare name or as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_is_used_by_the_package():
    # a name only the tests reach belongs in the tests, not in __all__
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_used(path)
    assert sorted(set(salemlab.__all__) - used) == []


# A ** parameter whose keys become named fields: the detail of a check record
# and the ConstructionParams overrides, which the dataclass itself checks.
NAMED_FIELD_KWARGS = {("checks.py", "record"), ("params.py", "derive_params")}


def test_no_function_takes_pass_through_keywords():
    # a **kwargs knob forwarded to another function widens every API above it
    found = {(path.name, node.name)
             for path in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.args.kwarg is not None}
    assert sorted(found - NAMED_FIELD_KWARGS) == []


def test_importing_the_cli_loads_no_scipy():
    # scipy is the tests' oracle only; the stage processes never pay its import
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = ("import sys, salemlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    runtime = {re.match(r"[\w.-]+", spec).group() for spec in project["dependencies"]}
    test = {re.match(r"[\w.-]+", spec).group()
            for spec in project["optional-dependencies"]["test"]}
    assert "scipy" not in runtime
    assert "scipy" in test


def test_blas_threads_do_not_change_the_levels():
    # N = 25, j = 4 checks its sampled rotation draws by matrix products,
    # which OpenBLAS may split over threads; at c_eta = 1 the base blocks
    # are drawn, and their deviations go through matrix products too
    code = ("import hashlib; from salemlab import build_construction, derive_params; "
            "from salemlab.storage import level_to_text; "
            "configs = [dict(j_max=5, seed=7), dict(j_max=4, seed=5, c_eta=1.0)]; "
            "print([[hashlib.sha256(level_to_text(p, level).encode()).hexdigest() "
            "for level in build_construction(p).levels] "
            "for p in (derive_params(5, 2, 1, **c) for c in configs)])")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent),
               "OPENBLAS_NUM_THREADS": threads}
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1]


def test_readme_library_example_runs():
    # the README's one python block, run as a script against the source tree
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    [code] = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, text=True)
