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


# Share of the width of g_{s-1} that its support must cover for the step to
# add g whole at each shift; below it the step adds only the support. Summed
# over the verify tables of the desk and N = 9 configs at j_max = 5 (2-vCPU
# Xeon guest, numpy 2.4.6), 1/8 and 1/4 were fastest (1.6-1.8 s and 0.16-0.21
# s); 1/16 took desk to 4.0-4.7 s, and 1/2 took N = 9 to 0.44 s.
_DENSE_SHARE = 1 / 8

# Tables kept by the memo of ``sum_distribution``. verify builds one per
# window and order, and its interpolation chain rereads the 2(j_max + 1)
# top-level ones; j_max + 1 <= 19 for every accepted base, so 64 keeps them.
_TABLES_KEPT = 64


# Widest count array of ``_sum_counts``, r (max Y - min Y) + 1 entries, read
# at call time; 2^26 keeps N = 16's j = 6 tables (3 * 2^24 int32, 192 MB).
WIDTH_BUDGET = 2**26


# Refused orders r >= MAX_ORDER: any |Y| >= 2 has |Y|^r >= 2^63 there, and
# the B-spline values of ``bspline_integers`` cost O(r^2) rational terms.
MAX_ORDER = 63


def sum_distribution(Y, r: int) -> EnergyTable:
    """Exact order-r energy of Y and the short-range correlations that the
    B-spline norm identity needs, summed exactly beyond int64. A table depends
    on the set and r alone: each is built once per process, without counts."""
    return _table(np.unique(np.asarray(Y, dtype=np.int64)).tobytes(), r)


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _table(key: bytes, r: int) -> EnergyTable:
    g = _sum_counts(np.frombuffer(key, dtype=np.int64), r)
    M = _exact_dot(g, g)
    corr = {0: M}
    for d in range(1, r):
        corr[d] = corr[-d] = _exact_dot(g[:-d], g[d:]) if d < len(g) else 0
    return EnergyTable(r=r, M=M, correlation=MappingProxyType(corr),
                       support_size=int(np.count_nonzero(g)))


def _sum_counts(Y, r: int) -> np.ndarray:
    """g[i] = the number of r-tuples over Y summing to r * min(Y) + i.

    g_s = g_{s-1} (+) 1_Y is built by one integer shift-add per element of Y.
    An r-tuple's last element is fixed by its sum, so g is int32 when
    |Y|^(r-1) < 2^31 and int64 otherwise; the counts sum to |Y|^r < 2^63.
    Any |Y| >= 2 reaches 2^63 by r = 63, so r >= 63 is refused on every Y,
    one atom included, before the power is formed or a step is run.
    """
    Y = np.unique(np.asarray(Y, dtype=np.int64))
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
    g = np.zeros(top + 1, dtype=np.int32 if len(Y) ** (r - 1) < 2**31 else np.int64)
    g[Y0] = 1
    for _ in range(r - 1):
        new = np.zeros(len(g) + top, dtype=g.dtype)
        if np.count_nonzero(g) >= _DENSE_SHARE * len(g):
            for y in Y0:
                new[y : y + len(g)] += g
        else:
            # the indices supp + y are distinct, so the buffered add is exact
            supp = np.flatnonzero(g)
            vals = g[supp]
            for y in Y0:
                new[supp + y] += vals
        g = new
    return g


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
