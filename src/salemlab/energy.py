"""Additive-energy machinery: r-fold sum distributions, exact energy counts,
the structured lower bound, and exact even-order norms via B-splines.

Counts are exact integers throughout; B-spline values are exact rationals,
so even-order norms come out as exact fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construction import LevelSet
from .params import ConstructionParams
from .spectral import restricted_atoms


class EnergyError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# sum distributions

@dataclass
class EnergyTable:
    r: int
    z_min: int               # offset: g[i] counts r-fold sums equal to z_min + i
    g: np.ndarray | None     # int64 counts, dense; None where only M and
                             # the correlations are kept
    M: int                   # sum of g^2, the order-r additive energy
    correlation: dict        # d -> sum_z g(z) g(z+d), for |d| < r
    support_size: int

    def to_json_dict(self, extra=None):
        out = {"r": self.r, "M": self.M, "support_size": self.support_size}
        if extra:
            out.update(extra)
        return out


# Cost of one element add of the integer loop, in units of one point * log2(n)
# of a rounded rfft convolution step of power-of-two length n (transforms,
# product, rounding and certificate). Measured on a 2-vCPU Xeon guest with
# numpy 2.4.6: 0.6-1.1 ns per add against 2.3-5.1 ns per unit, a ratio of
# 0.15-0.29 for n from 2^16 to 2^22.
_LOOP_ADD_WEIGHT = 0.2

# Constant of the a-priori roundoff bound c * log2(n) * 2^-53 * |x|_2 * |y|_2
# of an FFT convolution of length n (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., sec. 24.1; Percival, Math. Comp. 72 (2003),
# Thm. 2.1, whose first-order constant is 3 + 3 sqrt(5) + 3 / sqrt(2), about
# 11.8, for a radix-2 transform with accurate twiddles). Taken with margin for
# the real-input, mixed-radix transforms of pocketfft.
_FFT_ERROR_C = 32.0


def sum_distribution(Y, r: int) -> EnergyTable:
    """Exact distribution g(z) of r-fold sums over Y, with energy and the
    short-range correlation table needed by the B-spline norm identity.

    g comes from the integer loop or from r - 1 rounded FFT convolutions,
    whichever the cost rule prices lower. Each rounded convolution must carry
    its certificate (an a-priori roundoff bound below 1/2 and the first two
    moments of g); otherwise the loop recomputes g.
    """
    Y = np.unique(np.asarray(Y, dtype=np.int64))
    if len(Y) == 0:
        raise EnergyError("empty set")
    if r < 1:
        raise EnergyError(f"need r >= 1, got {r}")
    base = int(Y.min())
    Y0 = Y - base          # translation leaves g's shape, M and correlations alone
    top = int(Y0.max())
    if len(Y) ** (2 * r) >= 2**63:
        raise EnergyError(
            f"|Y|^(2r) = {len(Y)}^{2 * r} would overflow exact int64 energy counts"
        )
    n = 1 << (r * top).bit_length()   # power-of-two length above r * top
    loop_adds = len(Y) * (r + top * r * (r - 1) // 2)
    g = None
    if (r - 1) * n * math.log2(n) <= _LOOP_ADD_WEIGHT * loop_adds:
        g = _fft_counts(Y0, r, n)
    if g is None:
        g = _loop_counts(Y0, r)
    M = int(np.dot(g, g))
    corr = {}
    for d in range(0, r):
        if d == 0:
            corr[0] = M
        else:
            v = int(np.dot(g[:-d], g[d:])) if d < len(g) else 0
            corr[d] = v
            corr[-d] = v
    return EnergyTable(
        r=r, z_min=r * base, g=g, M=M, correlation=corr,
        support_size=int(np.count_nonzero(g)),
    )


def _loop_counts(Y0, r: int) -> np.ndarray:
    """r-fold sum counts over Y0 (min 0) by shifted integer adds."""
    top = int(Y0.max())
    g = np.ones(1, dtype=np.int64)
    width = 0
    for _ in range(r):
        new = np.zeros(width + top + 1, dtype=np.int64)
        for y in Y0:
            new[y : y + width + 1] += g
        g, width = new, width + top
    return g


def _fft_counts(Y0, r: int, n: int) -> np.ndarray | None:
    """r-fold sum counts over Y0 (min 0) by the rounded convolutions
    g_s = rint(g_{s-1} * 1_Y) of length n, or None when a step lacks its
    certificate.

    A step is accepted when the a-priori roundoff bound is below 1/2, so that
    rounding recovers every exact count, and when the rounded g_s has the
    exact moments sum g_s = |Y|^s and sum z g_s(z) = s |Y|^(s-1) sum Y0.
    """
    size, top = len(Y0), int(Y0.max())
    ind = np.zeros(top + 1)
    ind[Y0] = 1.0
    if r == 1:
        return ind.astype(np.int64)
    # the moment sum z g(z) is at most (len(g) - 1) |Y|^r, exact in int64 below
    if r * top * size**r >= 2**63:
        return None
    y_hat = np.fft.rfft(ind, n)
    first = int(Y0.sum())
    gf = ind
    for s in range(2, r + 1):
        bound = _FFT_ERROR_C * math.log2(n) * 2.0**-53 * math.sqrt(
            float(np.dot(gf, gf)) * size
        )
        if bound >= 0.5:
            return None
        spectrum = y_hat * (y_hat if s == 2 else np.fft.rfft(gf, n))
        gf = np.rint(np.fft.irfft(spectrum, n)[: s * top + 1])
        del spectrum
        g = gf.astype(np.int64)
        if (int(g.sum()) != size**s
                or int(np.dot(np.arange(len(g), dtype=np.int64), g))
                != s * size ** (s - 1) * first):
            return None
    return g


def brute_force_energy(Y, r: int) -> int:
    """Independent enumeration of 2r-tuples with equal r-fold sums."""
    from collections import Counter
    from itertools import product

    counts = Counter(sum(tup) for tup in product(list(Y), repeat=r))
    return sum(c * c for c in counts.values())


def additive_energy(params: ConstructionParams, level: LevelSet, ell: int,
                    r: int) -> int:
    """Order-r additive energy of the structured-window atoms at this level."""
    Y = restricted_atoms(params, level, ell)
    return sum_distribution(Y, r).M


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
    n = 2 * r
    values = {}
    for d in range(-r, r + 1):
        values[d] = _centered_bspline_at(n, Fraction(d))
    return BsplineTable(r=r, values=values, C2r=values[0])


# ---------------------------------------------------------------------------
# exact even-order norms

def exact_l2r_norm(params: ConstructionParams, level: LevelSet, ell: int,
                   r: int, table: EnergyTable | None = None) -> dict:
    """Exact 2r-th power of the L^{2r} norm of the structured-window
    transform: (N^j / t^{2rj}) * sum over |d| < r of corr(d) * B_{2r}(d).

    Atoms are integers at scale N^j, so only integer B-spline values enter
    and the result is an exact rational.
    """
    j = level.j
    N, t = params.N, params.t
    if table is None:
        Y = restricted_atoms(params, level, ell)
        table = sum_distribution(Y, r)
    if table.r != r:
        raise ValueError("energy table order mismatch")
    spline = bspline_integers(r)
    scale = Fraction(N**j, t ** (2 * r * j))
    total = Fraction(0)
    for d in range(-(r - 1), r):
        total += table.correlation[d] * spline.values[d]
    value = scale * total
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
