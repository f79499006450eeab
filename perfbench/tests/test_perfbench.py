"""Tests of the benchmark's own code; not part of the repository's test suite.

    python3 -m pytest -q perfbench/tests
"""

import ast
import json
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers    # noqa: E402
import run       # noqa: E402
import verdict   # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = run.Workload("tiny", 4, 2, 1, 2, run.PIPELINE, level=2, kmax=256)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_named_metric_with_its_unit(
        trace, section, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(run.PIPELINE)
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_names_what_the_run_reports():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
            == run.per_layer_units())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def _module_level_imports(path):
    """(source module, name) pairs of the file's top-level relative imports."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield f"salemlab.{node.module}", alias.name


def test_every_target_exists_and_is_replaced_wherever_imported(monkeypatch):
    import importlib

    importlib.import_module("salemlab.cli")
    modules = {p.stem: importlib.import_module(f"salemlab.{p.stem}")
               for p in (run.SRC / "salemlab").glob("*.py") if p.stem != "__init__"}
    modules["__init__"] = importlib.import_module("salemlab")
    by_attr = {(mod, path): name for name, (mod, path) in layers.TARGETS.items()}

    # undo every patch after the test
    for name, (mod, path) in layers.TARGETS.items():
        owner = importlib.import_module(mod)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
        for other in modules.values():
            if not owner_path and hasattr(other, attr):
                monkeypatch.setattr(other, attr, getattr(other, attr))

    layers.Tracer().install()
    for name, (mod, path) in layers.TARGETS.items():
        owner = importlib.import_module(mod)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert getattr(owner, "__wrapped_by_perfbench__", None) == name, name
    expected = 0
    for stem, module in modules.items():
        for source, attr in _module_level_imports(run.SRC / "salemlab" / f"{stem}.py"):
            name = by_attr.get((source, attr))
            if name is None:
                continue
            expected += 1
            assert getattr(module, attr).__wrapped_by_perfbench__ == name
    assert expected >= 10   # e.g. cli imports run_verification's callees by name


def test_a_missing_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS",
                        {"spectral.gone": ("salemlab.spectral", "no_such_function")})
    with pytest.raises(LookupError, match="no_such_function"):
        layers.Tracer().install()


def test_self_time_subtracts_direct_children():
    spans = [(1, "b", 0, 2.0, 5.0), (2, "c", 1, 3.0, 4.0), (0, "a", None, 0.0, 10.0)]
    out, root_s = layers.summarize(spans, {"a.points": 7})
    assert out["a.s"] == 10.0 and out["a.self_s"] == 7.0
    assert out["b.self_s"] == 2.0 and out["c.self_s"] == 1.0
    assert out["a.calls"] == 1 and out["a.points"] == 7 and root_s == 10.0


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("ell", [0, 1])
def test_energy_oracle_matches_enumeration(r, ell):
    rng = np.random.default_rng(r + ell)
    N, j = 5, 3
    atoms = np.sort(rng.choice(N**j, size=12, replace=False))
    structured = atoms[:3]
    Y = atoms
    if ell:
        shift = N ** (j - ell)
        Y = atoms[np.isin(atoms // shift, structured // shift)]
    sums = {}
    for tup in product(Y.tolist(), repeat=r):
        sums[sum(tup)] = sums.get(sum(tup), 0) + 1
    assert verdict.energy_counts(atoms, structured, N, j, ell, r) == (
        sum(c * c for c in sums.values()), len(sums))
