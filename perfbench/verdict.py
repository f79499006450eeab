"""Output checks for the benchmark's stage runs.

Each check returns a list of failure messages; an empty list means the
stage's output is correct. The checks read only the files the stage wrote.

- verify: every check line reads PASS and the manifest agrees.
- analyze: the exact integer fields of the energy report match an
  independent count (pairwise-sum histogram, then shifted adds) and the
  closed-form sumset bound.
- seeds with a recorded reference (`reference.json`, made by
  `record_reference.py`): level-file SHA-256s match, the energy report's
  integers match exactly, and every float of the verify check records and
  of the reports agrees within `REL_TOL`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9     # relative; floats come from FFTs and float sums
ABS_TOL = 1e-12    # for floats that should be zero
EXACT_ENERGY_KEYS = ("M", "support_size", "z_bound_3_3")


def level_hashes(run_dir) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(run_dir).glob("level_*.txt"))
    }


def read_level(path):
    lines = Path(path).read_text().split("\n")
    sep = lines.index("--")
    atoms = np.array([int(x) for x in lines[1:sep]], dtype=np.int64)
    structured = np.array([int(x) for x in lines[sep + 1:] if x], dtype=np.int64)
    return atoms, structured


def verify_output(run_dir, stdout_text: str) -> list[str]:
    lines = [ln for ln in stdout_text.splitlines() if ln.startswith(("PASS", "FAIL"))]
    fails = [f"verify: {ln}" for ln in lines if not ln.startswith("PASS ")]
    if not lines:
        fails.append("verify: printed no check lines")
    checks = json.loads((Path(run_dir) / "manifest.json").read_text())["checks"]
    if len(checks) != len(lines) or not all(c["passed"] for c in checks):
        fails.append("verify: manifest checks disagree with the printed verdicts")
    return fails


def energy_counts(atoms, structured, N: int, j: int, ell: int, r: int):
    """(M, support size) of the r-fold sum distribution (r >= 2) of the
    level-j atoms whose top-ell digit prefix is structured."""
    if ell:
        shift = N ** (j - ell)
        atoms = atoms[np.isin(atoms // shift, structured // shift)]
    Y = atoms - atoms.min()
    g = np.bincount((Y[:, None] + Y[None, :]).ravel())
    for _ in range(r - 2):
        nxt = np.zeros(len(g) + int(Y.max()), dtype=np.int64)
        for y in Y:
            nxt[y:y + len(g)] += g
        g = nxt
    M = sum(int(v) * int(v) for v in g[g > 0])
    return M, int(np.count_nonzero(g))


def analyze_output(run_dir, N: int, t: int, level: int) -> list[str]:
    rows = json.loads((Path(run_dir) / "reports" / f"energy_j{level}.json").read_text())
    atoms, structured = read_level(Path(run_dir) / f"level_{level}.txt")
    s = math.isqrt(t)
    fails = []
    for row in rows:
        j, ell, r = row["j"], row["ell"], row["r"]
        M, support = energy_counts(atoms, structured, N, j, ell, r)
        z_bound = (r * s) ** ell * r * N ** (j - ell)
        got = (row["M"], row["support_size"], row["z_bound_3_3"])
        if got != (M, support, z_bound):
            fails.append(f"analyze: energy ell={ell} r={r}: (M, support, z_bound) "
                         f"{got} != {(M, support, z_bound)}")
    return fails


# ---------------------------------------------------------------------------
# recorded reference

def _float_leaves(obj, prefix=""):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        yield prefix, float(obj)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            yield from _float_leaves(obj[k], f"{prefix}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _float_leaves(v, f"{prefix}/{i}")


def _spectrum_summary(path):
    with open(path) as f:
        mags = np.array([float(row["abs"]) for row in csv.DictReader(f)])
    return {"n": len(mags), "abs_sum": float(mags.sum()), "abs_max": float(mags.max())}


def report_values(run_dir) -> dict:
    """Floats of every report file, keyed by file and JSON path; spectra are
    summarised by their length, sum and maximum of |coefficient|."""
    reports = Path(run_dir) / "reports"
    values = {}
    if not reports.is_dir():
        return values
    for p in sorted(reports.iterdir()):
        if p.suffix == ".json" and p.name != "manifest.json":
            values.update(_float_leaves(json.loads(p.read_text()), p.name))
        elif p.name.startswith("spectrum_") and p.suffix == ".csv":
            values.update(_float_leaves(_spectrum_summary(p), p.name))
    return values


def energy_integers(run_dir) -> list:
    paths = sorted((Path(run_dir) / "reports").glob("energy_j*.json"))
    return [
        {k: row[k] for k in ("ell", "r") + EXACT_ENERGY_KEYS}
        for p in paths for row in json.loads(p.read_text())
    ]


def check_values(run_dir) -> dict:
    """Floats of the check records `verify` leaves in the run's manifest."""
    manifest = json.loads((Path(run_dir) / "manifest.json").read_text())
    return dict(_float_leaves(manifest["checks"], "manifest.json/checks"))


def snapshot(run_dir) -> dict:
    """What `reference.json` records for one (workload, seed)."""
    return {
        "level_sha256": level_hashes(run_dir),
        "checks": check_values(run_dir),
        "energy": energy_integers(run_dir),
        "floats": report_values(run_dir),
    }


def _compare_floats(got: dict, want: dict) -> list[str]:
    fails = []
    for key, value in want.items():
        have = got.get(key)
        if have is not None and math.isnan(have) and math.isnan(value):
            continue
        if have is None or not math.isclose(have, value, rel_tol=REL_TOL,
                                            abs_tol=ABS_TOL):
            fails.append(f"reference: {key} = {have!r}, recorded {value!r}")
    return fails


def against_reference(run_dir, ref: dict, stage: str) -> list[str]:
    fails = []
    if stage == "construct":
        got = level_hashes(run_dir)
        for name, digest in ref["level_sha256"].items():
            if got.get(name) != digest:
                fails.append(f"reference: {name} SHA-256 differs")
    elif stage == "verify":
        fails += _compare_floats(check_values(run_dir), ref["checks"])
    elif stage == "analyze":
        if energy_integers(run_dir) != ref["energy"]:
            fails.append("reference: exact energy integers differ")
        fails += _compare_floats(report_values(run_dir), ref["floats"])
    return fails
