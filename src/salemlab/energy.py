"""Additive-energy machinery: r-fold sum distributions, exact energy counts,
the structured lower bound, and exact even-order norms via B-splines.

Counts are exact integers throughout; B-spline values are exact rationals,
so even-order norms come out as exact fractions.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .construction import LevelSet
from .expsums import sorted_unique
from .params import ConstructionParams
from .spectral import restricted_atoms


class EnergyError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# sum distributions

@dataclass(frozen=True)
class EnergyTable:
    r: int
    M: int                   # sum of g^2, the order-r additive energy
    correlation: MappingProxyType   # d -> sum_z g(z) g(z+d), for |d| < r
    support_size: int


# Tables kept by the memo of ``sum_distribution``. analyze's norms and ratios
# reread the 2(lmax + 1) of its energy rows, lmax <= j_max < 19 for every
# accepted base. verify's holder chain rereads the energy gate's tables of the
# top level's windows 0..2, built among its last 2(j_max + 1), and adds its
# order-1 tables (and its order-r ones where the gate builds no such r): 64
# keeps them.
_TABLES_KEPT = 64


# Widest table of ``_sum_counts``, r (max Y - min Y) + 1 sums, read at call
# time; 2^26 keeps N = 16's j = 6 tables (3 * 2^24 sums). Memory is g_(r-1)
# and one run of g_r: 348,043 + 168,190 counts in desk's widest (3 * 2^20).
WIDTH_BUDGET = 2**26


# Most shift-adds of one ``_sum_counts``, read at call time: step s adds
# |Y| shifts of g_(s-1), at most (s - 1) (max Y - min Y) + 1 counts wide.
# 2^38 keeps deep verify's level-6 table (about 2.1e11 adds) and refuses the
# level-3 tables of N0 = 10, t0 = 9 (5.2e11 at r = 2), about ten minutes each.
WORK_BUDGET = 2**38


# Refused orders r >= MAX_ORDER: any |Y| >= 2 has |Y|^r >= 2^63 there, and
# the B-spline values of ``bspline_integers`` cost O(r^2) rational terms.
MAX_ORDER = 63


# Zero gap beyond which a table is split into runs; at least MAX_ORDER, so no
# correlation with |d| < r straddles two runs. All desk tables (2-vCPU Xeon
# guest, numpy 2.4.6) took 0.16-0.20 s at 4096 or 16384, 0.25-0.32 s at 1024.
_RUN_GAP = 4096


def sum_distribution(Y, r: int) -> EnergyTable:
    """Exact order-r energy of Y and the short-range correlations that the
    B-spline norm identity needs, summed exactly beyond int64. A table depends
    on the set and r alone: each is built once per process, without counts."""
    return _table(sorted_unique(np.asarray(Y, dtype=np.int64)).tobytes(), r)


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _table(key: bytes, r: int) -> EnergyTable:
    """M, the |d| < r correlations and the support of g_r, run by run."""
    runs = _sum_counts(np.frombuffer(key, dtype=np.int64), r)   # refuses first
    corr, support = [0] * r, 0
    for _, g in runs:
        for d in range(min(r, len(g))):
            corr[d] += _exact_dot(g[: len(g) - d], g[d:])
        support += int(np.count_nonzero(g))
        del g              # before the next run is formed
    return EnergyTable(r=r, M=corr[0], support_size=support, correlation=MappingProxyType(
        {d: corr[abs(d)] for d in range(1 - r, r)}))


def _sum_counts(Y, r: int):
    """The r-fold sum counts over Y as an iterator of sorted runs (start, g):
    g[i] r-tuples sum to r * min(Y) + start + i, and none sums between runs.
    A run starts and ends on a nonzero count, and runs lie more than _RUN_GAP
    zeros apart.

    g_s = g_{s-1} (+) 1_Y adds each run of g_{s-1}, shifted by each y in Y,
    into the run of g_s that holds it, one contiguous add each. The runs of
    g_{s-1} and of 1_Y summed pairwise cover g_s, and such a sum holds no
    zero gap over _RUN_GAP, so joining them across shorter gaps needs no split.
    g_1 ... g_{r-1} are built whole, g_r one run at a time as it is read.
    An r-tuple's last element is fixed by its sum, so g is int32 when
    |Y|^(r-1) < 2^31 and int64 otherwise; the counts sum to |Y|^r < 2^63.
    Any |Y| >= 2 reaches 2^63 by r = 63, so r >= 63 is refused on every Y,
    one atom included, before the power is formed or a step is run; so is a
    table wider than WIDTH_BUDGET, or one whose shift-adds could exceed
    WORK_BUDGET; each is raised by the call itself, before any run is read.
    """
    Y = sorted_unique(np.asarray(Y, dtype=np.int64))
    if len(Y) == 0:
        raise EnergyError("empty set")
    if r < 1:
        raise EnergyError(f"need r >= 1, got {r}")
    if r >= MAX_ORDER or len(Y) ** r >= 2**63:
        raise EnergyError(f"order r = {r} on |Y| = {len(Y)} atoms: r >= 63 or "
                          f"|Y|^r >= 2^63 would overflow exact int64 energy counts")
    Y0 = Y - Y[0]          # translation leaves g's shape, M and correlations alone
    top = int(Y0[-1])
    if r * top + 1 > WIDTH_BUDGET:
        raise EnergyError(f"order-{r} sum counts of width {r * top + 1} "
                          f"exceed the width budget {WIDTH_BUDGET}")
    adds = len(Y) * (r + top * r * (r - 1) // 2)    # sum over s < r of |Y| (s top + 1)
    if adds > WORK_BUDGET:
        raise EnergyError(f"order-{r} sum counts of |Y| = {len(Y)} atoms need up to "
                          f"{adds:.3g} shift-adds, over the work budget {WORK_BUDGET}")
    runs = [(0, np.ones(1, dtype=np.int32 if len(Y) ** (r - 1) < 2**31 else np.int64))]
    for _ in range(r - 1):     # from g_0, the one empty sum
        runs = list(_step(runs, Y0))
    return _step(runs, Y0)


def _step(runs: list, Y0: np.ndarray):
    """The runs of g_s = g_{s-1} (+) 1_Y in order: a run holds the pairs (run of
    g_{s-1} at a, y) not yet added with a + y below its end, one searchsorted."""
    lo, hi = np.array([(a, a + len(g)) for a, g in runs]).T
    out_lo = out_hi = lo[:0]
    for b, e in zip(*_cover(Y0, Y0 + 1)):   # one run of 1_Y at a time bounds the pairs held
        out_lo, out_hi = _cover(np.r_[out_lo, lo + b], np.r_[out_hi, hi + e - 1])
    done = np.zeros(len(runs), dtype=np.intp)     # the ys added, per run of g_{s-1}
    for b, e in zip(out_lo.tolist(), out_hi.tolist()):
        out, upto = np.zeros(e - b, dtype=runs[0][1].dtype), np.searchsorted(Y0, e - lo)
        for i in np.flatnonzero(upto > done).tolist():
            a, g = runs[i]
            for off in (Y0[done[i] : upto[i]] + (a - b)).tolist():
                out[off : off + len(g)] += g
        done = upto
        yield b, out
        del out


def _cover(lo: np.ndarray, hi: np.ndarray):
    """Sorted runs [start, end) covering the intervals [lo, hi), joined
    across gaps of at most _RUN_GAP."""
    order = np.argsort(lo, kind="stable")
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    cut = np.flatnonzero(lo[1:] - reach[:-1] > _RUN_GAP)
    return lo[np.r_[0, cut + 1]], reach[np.r_[cut, len(lo) - 1]]


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """sum a * b of nonnegative counts as an exact int: an einsum adding in int64
    (np.dot wraps on int32; astype copies) when max(a) * sum(b) < 2^63, else ints."""
    if int(a.max()) * int(b.sum(dtype=np.int64)) < 2**63:
        return int(np.einsum("i,i->", a, b, dtype=np.int64))
    nz = np.flatnonzero(a)
    return sum(map(operator.mul, a[nz].tolist(), b[nz].tolist()))


# ---------------------------------------------------------------------------
# the structured lower bound

def energy_lower_bound(params: ConstructionParams, j: int, ell: int, r: int) -> dict:
    """Exact rational lower bound for the structured energy, the sumset-size
    bound it rests on, and the Cauchy-Schwarz floor |Y|^(2r) / |Z|."""
    if ell > j:
        raise ValueError(f"ell={ell} exceeds j={j}")
    N, t, s = params.N, params.t, params.sqrt_t
    bound = (
        Fraction(1, r ** (ell + 1))
        * Fraction(s ** ((2 * r - 1) * ell))
        * Fraction(t ** (2 * r), N) ** (j - ell)
    )
    z_bound = (r * s) ** ell * r * N ** (j - ell)
    y_size = s**ell * t ** (j - ell)
    holder_floor = Fraction(y_size ** (2 * r), z_bound)
    return {
        "j": j, "ell": ell, "r": r,
        "bound": bound, "bound_float": float(bound),
        "z_bound": z_bound,
        "holder_floor": holder_floor, "holder_floor_float": float(holder_floor),
        "y_size": y_size,
    }


# ---------------------------------------------------------------------------
# B-splines

@dataclass
class BsplineTable:
    r: int
    values: dict             # integer d -> Fraction, nonzero only for |d| < r
    C2r: Fraction            # value at 0 = integral of sinc^(2r)


def _centered_bspline_at(n: int, x: Fraction) -> Fraction:
    # n-fold convolution of the unit box, centered: truncated-power formula
    total = Fraction(0)
    for k in range(n + 1):
        u = x + Fraction(n, 2) - k
        if u > 0:
            total += (-1) ** k * math.comb(n, k) * u ** (n - 1)
    return total / math.factorial(n - 1)


def bspline_integers(r: int) -> BsplineTable:
    """Exact rational values of the order-2r centered cardinal B-spline at
    the integers; the support is (-r, r) so only |d| < r is nonzero."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r >= MAX_ORDER:
        raise EnergyError(f"order r = {r}: r >= {MAX_ORDER} is refused, as for "
                          "exact int64 energy counts")
    values = {d: _centered_bspline_at(2 * r, Fraction(d)) for d in range(-r, r + 1)}
    return BsplineTable(r=r, values=values, C2r=values[0])


# ---------------------------------------------------------------------------
# exact even-order norms

def exact_l2r_norm(params: ConstructionParams, level: LevelSet, ell: int,
                   r: int) -> dict:
    """Exact 2r-th power of the L^{2r} norm of the structured-window
    transform: (N^j / t^{2rj}) * sum over |d| < r of corr(d) * B_{2r}(d).

    Atoms are integers at scale N^j, so only integer B-spline values enter
    and the result is an exact rational.
    """
    j = level.j
    table = sum_distribution(restricted_atoms(params, level, ell), r)
    spline = bspline_integers(r)
    scale = Fraction(params.N**j, params.t ** (2 * r * j))
    value = scale * sum(table.correlation[d] * spline.values[d]
                        for d in range(-(r - 1), r))
    floor = scale * spline.C2r * table.M   # keeping only the d = 0 term
    return {
        "value": value, "value_float": float(value),
        "d0_floor": floor, "d0_floor_float": float(floor),
        "M": table.M, "r": r, "j": j, "ell": ell,
    }


def l2r_lower_bound(params: ConstructionParams, ell: int, r: int) -> dict:
    """Exact rational lower bound C_{2r} N^ell r^(-ell-1) t^(-ell(2r+1)/2)
    for the 2r-th norm power, valid at every level >= ell."""
    s = params.sqrt_t
    C2r = bspline_integers(r).C2r
    bound = C2r * Fraction(params.N**ell, r ** (ell + 1) * s ** (ell * (2 * r + 1)))
    return {
        "bound": bound, "bound_float": float(bound),
        "C2r": C2r, "ell": ell, "r": r,
        "in_hypothesis": r > 1.0 / params.alpha,
    }
