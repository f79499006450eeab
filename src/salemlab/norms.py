"""Norms on the line, masses against the measure, restriction ratios,
the interpolation chain, and the ball condition scan.

Quadrature uses a uniform lattice aligned with the integrand's period. The
samples beyond the reported window [-K, K] are folded in exactly through
Hurwitz zeta values, so the lattice sum covers the whole line; the envelope
tail bound is reported alongside for the truncated window. A period of the
lattice is evaluated one residue class of at most ``expsums.BLOCK`` points
at a time, so no array of half a period is formed. The samples of a class
lie at one offset from the grid k / B, so their weights over every period
past the first are read by Horner's rule from one Taylor table per call,
folded once over the mirror.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .construction import LevelSet, structured_mask
from .energy import exact_l2r_norm, l2r_lower_bound
from .expsums import half_classes, split
from .params import ConstructionParams


class NormError(RuntimeError):
    pass


@dataclass
class NormEstimate:
    p: float
    value: float
    method: str              # exact-bspline | quadrature
    tail_bound: float = 0.0
    grid: dict = field(default_factory=dict)   # {"K": cutoff, "h": step}
    head_value: float = 0.0  # lattice sum restricted to [-K, K]
    tail_value: float = 0.0  # exact lattice tail beyond K (included in value)


# ---------------------------------------------------------------------------
# quadrature on the lattice

# The lattice xi = i * h with h = 1 / _SAMPLES_PER_UNIT; the reported window
# [-K, K] spans K = _HEAD_PERIODS * N^j, that is _HEAD_PERIODS periods of T.
_SAMPLES_PER_UNIT = 4
_HEAD_PERIODS = 32


# B_2k / (2k)! for k = 1..8, the Euler-Maclaurin coefficients
_EM_COEFFS = tuple(
    float(Fraction(*b) / math.factorial(2 * k))
    for k, b in enumerate([(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
                           (-691, 2730), (7, 6), (-3617, 510)], start=1)
)
# The expansion (DLMF 25.11) starts at a >= max(_EM_START, 1.5 p), the terms
# below summed directly (none for p <= 32/3). Its remainder is at most the
# first omitted term, |B_18| / 18! (p)_17 a^(-p-17) (F. Johansson, Numer.
# Algorithms 69, 2015): 1.6e-15 relative at p = 8, a = 16. Against scipy, p
# in [1.5, 200] and a in [16, 48] agree within 2.3e-14 (p = 10.9, a = 16.4).
_EM_START = 16


def _hurwitz(p: float, a):
    """zeta(p, a) = sum over m >= 0 of (a + m)^-p, for p > 1 and a > 0: the
    terms below max(_EM_START, 1.5 p) one by one, then at that a

    a^(1-p)/(p-1) + a^-p/2 + sum_k B_2k/(2k)! (p)_(2k-1) a^(-p-2k+1),

    with (p)_n the rising factorial; one pow and a polynomial in a^-2.
    """
    n = max(0, math.ceil(max(_EM_START, 1.5 * p) - np.min(a)))
    # stop at a term that underflows: all later ones, and the expansion, do too
    head = sum(itertools.takewhile(np.any, ((a + m) ** -p for m in range(n))))
    a = a + n
    coeffs, rising = [], p
    for k, c in enumerate(_EM_COEFFS, start=1):
        coeffs.append(c * rising)
        rising *= (p + 2 * k - 1) * (p + 2 * k)
    u = 1.0 / a
    w = u * u
    poly = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        poly = poly * w + c
    return head + a ** -p * (a / (p - 1.0) + 0.5 + u * poly)


def _weight_table(p: float, B: int, delta: float):
    """Taylor rows in the class offset of the smooth lattice weights of a
    sample and its mirror, at k / B, k < B: a list of (2, B) arrays.

    A sample eta stands for the points eta + m of every period m >= 0. The
    head sum H(eta) = sum over 1 <= m < _HEAD_PERIODS of (eta + m)^-p and the
    tail T(eta) = zeta(p, eta + _HEAD_PERIODS) are smooth on [0, 1]; their
    n-th derivatives over n! are (-1)^n C(p + n - 1, n) times the same sums
    at exponent p + n, R_n: H, term by term below _EM_START and then
    zeta(p + n, x + _EM_START) - zeta(p + n, x + _HEAD_PERIODS), and T. The
    mirror of eta = k / B + delta is (B - k) / B - delta, so array n holds
    R_n(k / B) + (-1)^n R_n((B - k) / B), folded once. The list stops at the
    first n with C(p + n - 1, n) delta^n < 2^-60, which bounds the first
    omitted term of each direction against its sum at every x and offset
    |delta| or less, as x + m >= 1; the terms after it fall geometrically.
    """
    x = np.arange(B + 1) / B
    rows, coeff, n = [], 1.0, 0
    while abs(coeff) * delta**n >= 2.0**-60:
        q = p + n
        beyond = _hurwitz(q, x + _HEAD_PERIODS)
        direct = sum((x + m) ** -q for m in range(1, _EM_START))
        row = np.array((direct + _hurwitz(q, x + _EM_START) - beyond, beyond)) * coeff
        rows.append(row[:, :B] + (-1.0) ** n * row[:, B:0:-1])
        n += 1
        coeff *= -(q / n)
    return rows


def _class_weights(table, c: int, n_per: int, p: float):
    """Head and tail weights, one (2, len(i)) array, of the lattice samples
    eta = i / n_per of class c, i = c + M k, 0 < i < n_per, each with its
    mirror 1 - eta, of the same |T|; B is the width of the rows of the
    folded ``_weight_table`` ``table`` and M = n_per / B.

    The sample at eta stands for the points eta + m of every period m >= 0,
    weighted |sin(pi eta)|^p / (pi (eta + m))^p: summed over m < _HEAD_PERIODS
    for the head, and beyond for the tail. With eta = k / B + delta, delta =
    c / n_per, the smooth sums over the periods m >= 1 of eta and 1 - eta
    are one Horner pass in delta over the table's columns k. The m = 0
    terms are formed as (|sin(pi eta)| / (pi eta))^p <= 1, and at 1 - eta
    alike, and the rest, each at most 1, scaled by (|sin(pi eta)| / pi)^p,
    so no large p forms inf * 0.
    """
    B = table[0].shape[-1]
    skip = int(c == 0)
    i = c + n_per // B * np.arange(skip, B)
    # sin(pi eta) = sin(pi (1 - eta)), formed below 1/2: near eta = 1 the
    # rounding of pi eta would cost digits
    amp = np.abs(np.sin(np.pi * (np.minimum(i, n_per - i) / n_per))) / math.pi
    weights = table[-1][:, skip:].copy()
    for row in table[-2::-1]:
        weights *= c / n_per
        weights += row[:, skip:]
    weights *= amp**p
    weights[0] += (amp / (i / n_per)) ** p + (amp / ((n_per - i) / n_per)) ** p
    return weights


def lp_norm_quadrature(params: ConstructionParams, level: LevelSet, ells,
                       p: float) -> list[NormEstimate]:
    """Lattice quadrature of the p-th power of each structured window's
    transform norm over the line, at step h = 1/4; one estimate per window
    of ``ells``.

    The reported value is the full lattice sum: the window [-K, K],
    K = 32 N^j, is summed directly and the remaining periods are folded
    through Hurwitz zeta values, which is exact for the lattice.
    ``tail_bound`` is the analytic envelope bound on the |xi| > K
    contribution.

    The n_per = 4 N^j samples of a period are read in the residue classes
    i = c + M m, m < B, of ``expsums.split``, one length-B FFT each. |T| is
    even, so only the classes c <= M/2 are evaluated
    (``expsums.half_classes``), each sample weighted with its mirror, in
    one product with |T|^p of each window, a mask of the level's atoms.
    Class c samples eta = m / B + delta, delta = c / n_per <= 1 / (2B):
    the weights of every period past the first come by Horner in delta
    from one folded ``_weight_table`` on the grid m / B.

    For even p = 2r the lattice sum is the integral itself, up to roundoff:
    the window measure lives on [0, 1], so |phi|^(2r) is the Fourier
    transform of its r-fold autocorrelation, supported in [-r, r], and by
    Poisson summation the h-lattice sum equals the integral whenever
    r <= 1/h.
    """
    if not p > 1:
        raise NormError(f"need p > 1, got {p}: the tail under the 1/|xi| "
                        "envelope diverges")
    j = level.j
    period = params.period(j)
    h = 1 / _SAMPLES_PER_UNIT
    K = _HEAD_PERIODS * period
    n_per = period * _SAMPLES_PER_UNIT
    B, M = split(n_per)
    table = _weight_table(p, B, M // 2 / n_per)
    windows = [structured_mask(params, level, ell) for ell in ells]
    tj = float(params.t) ** (-j)
    # the origin counts once; lattice points at nonzero multiples of the
    # period carry sin = 0 and drop out, and -xi doubles the rest. The
    # weights of a self-mirrored class (0 or M/2) hold each sample twice,
    # itself and its partner's mirror, so that class counts once
    head = [(int(np.count_nonzero(mask)) * tj) ** p for mask in windows]
    tail = [0.0] * len(windows)
    for ks, sums, mirrored in half_classes(n_per):
        c = int(ks[0])
        skip = int(c == 0)
        weights = _class_weights(table, c, n_per, p)
        count = 2.0 if mirrored else 1.0
        for w, s in enumerate(sums(level.atoms, masks=windows)):
            A = np.abs(s[skip:])
            A *= tj
            hd, tl = weights @ np.power(A, p, out=A)
            head[w] += count * float(hd)
            tail[w] += count * float(tl)
    # 2 (N^j env_peak / pi)^p K^(1-p) / (p - 1), with no large power formed
    return [NormEstimate(
        p=p, value=h * (hd + tl), method="quadrature", grid={"K": K, "h": h},
        tail_bound=2.0 * K * (float(params.t) ** (-ell / 2)
                              / (_HEAD_PERIODS * math.pi)) ** p / (p - 1),
        head_value=h * hd, tail_value=h * tl,
    ) for ell, hd, tl in zip(ells, head, tail)]


def lp_norm(params: ConstructionParams, level: LevelSet, ells, p) -> list[NormEstimate]:
    """p-th norm power of each window of ``ells``; even integer p goes
    through the exact B-spline route, any other through one lattice pass."""
    if float(p) == int(p) and int(p) % 2 == 0 and int(p) >= 2:
        return [NormEstimate(p=float(p), method="exact-bspline", value=exact_l2r_norm(
            params, level, ell, int(p) // 2)["value_float"]) for ell in ells]
    return lp_norm_quadrature(params, level, ells, float(p))


# ---------------------------------------------------------------------------
# masses against the measure

def lq_mass(params: ConstructionParams, ell: int, q: float) -> dict:
    """Closed-form mass and norm of the level-ell window: mass t^(-ell/2),
    norm its q-th root."""
    if q < 1:
        raise NormError(f"need q >= 1, got {q}")
    mass = Fraction(1, params.sqrt_t**ell)
    return {"mass": float(mass), "mass_exact": mass,
            "norm": float(mass) ** (1.0 / q), "q": q, "ell": ell}


def direct_mass(params: ConstructionParams, level: LevelSet, ell: int) -> Fraction:
    """Window mass by direct atom counting; equals t^(-ell/2) exactly for a
    valid construction."""
    count = int(np.count_nonzero(structured_mask(params, level, ell)))
    return Fraction(count, params.t**level.j)


# ---------------------------------------------------------------------------
# thresholds and restriction ratios

def thresholds(alpha: float, beta: float | None = None, q: float | None = None) -> dict:
    out = {
        "p_necessary": 2.0 / alpha,
        "p_sharp": 4.0 / alpha - 2.0,
    }
    if beta is not None:
        out["p_mock"] = 2.0 * (2.0 - 2.0 * alpha + beta) / beta
    if q is not None:
        # unbounded at q = 1; None keeps the reports strict JSON
        out["pq_bound"] = (q * (2.0 - alpha) / (alpha * (q - 1.0))
                           if q > 1 else None)
    return out


@dataclass
class RatioReport:
    j: int
    ell: int
    p: float
    q: float
    numerator: float         # p-norm of the windowed transform
    denominator: float       # q-norm of the window against the measure
    ratio: float
    thresholds: dict
    bound_3_1: float         # structured lower bound on numerator^p
    slack: float             # numerator^p - bound


def pick_r(params: ConstructionParams, p: float) -> int:
    """Smallest convolution order covering exponent p inside the standing
    hypothesis r > 1/alpha."""
    return max(math.ceil(p / 2.0), math.floor(1.0 / params.alpha) + 1)


def _bound_3_1(params: ConstructionParams, ell: int, p: float, r: int) -> float:
    """Theorem 3.1's lower bound on ||phi_ell||_p^p, C_2r N^ell r^(-ell-1) t^(-ell(p+1)/2)."""
    return float(l2r_lower_bound(params, ell, r)["bound"]) * params.t ** (ell * (2 * r - p) / 2)


def restriction_ratio(params: ConstructionParams, level: LevelSet, ells,
                      p: float, q: float) -> list[RatioReport]:
    """One report per window of ``ells``, their norms from one ``lp_norm``."""
    r = pick_r(params, p)
    th = thresholds(params.alpha, beta=params.alpha, q=q)
    reports = []
    for ell, est in zip(ells, lp_norm(params, level, ells, p)):
        numerator = est.value ** (1.0 / p)
        denominator = lq_mass(params, ell, q)["norm"]
        bound = _bound_3_1(params, ell, p, r)
        reports.append(RatioReport(
            j=level.j, ell=ell, p=p, q=q, numerator=numerator,
            denominator=denominator, ratio=numerator / denominator,
            thresholds=th, bound_3_1=bound, slack=est.value - bound,
        ))
    return reports


# ---------------------------------------------------------------------------
# interpolation chain

def holder_chain_check(params: ConstructionParams, level: LevelSet, ells,
                       p: float, r: int, estimates) -> list[dict]:
    """Check the interpolation chain on each window's transform phi:

        ||phi||_{2r}^{2r} <= ||phi||_p^p * ||phi||_inf^{2r-p},

    with ||phi||_inf <= t^(-ell/2) (attained at 0), and the implied lower
    bound on ||phi||_p^p against the structured-energy bound. ``estimates``
    holds the p-th powers, one per window of ``ells``, as ``lp_norm``
    returns them; the 2r-th come from ``exact_l2r_norm``.
    """
    if not 1 <= p < 2 * r:
        raise NormError(f"need 1 <= p < 2r, got p={p}, r={r}")
    reports = []
    for ell, est in zip(ells, estimates):
        lhs, pp = exact_l2r_norm(params, level, ell, r)["value_float"], est.value
        sup = float(params.t) ** (-ell / 2)
        rhs = pp * sup ** (2 * r - p)
        lift = float(params.t) ** (ell * (2 * r - p) / 2)
        implied = lhs * lift
        bound31 = _bound_3_1(params, ell, p, r)
        reports.append({
            "j": level.j, "ell": ell, "p": p, "r": r,
            "lhs_2r": lhs, "p_norm_power": pp, "sup_bound": sup,
            "rhs": rhs, "slack": rhs - lhs,
            "implied_p_lower": implied, "bound_3_1": bound31,
            "chain_holds": lhs <= rhs * (1 + 1e-9),
            "implied_holds": pp >= implied * (1 - 1e-9),
            "bound_3_1_holds": pp >= bound31,
        })
    return reports


# ---------------------------------------------------------------------------
# ball condition

def ball_condition_report(params: ConstructionParams, level: LevelSet) -> dict:
    """Mass-to-length ratios mu(I)/|I|^alpha over all N-adic intervals at
    every scale up to the level, and over width-2 N-adic windows straddling
    endpoints. Uses the exact identity N^(m*alpha) = t^m. Each supremum's
    witness is the first scale m that reaches it, with its first cell or
    window start there."""
    j = level.j
    N, t = params.N, params.t
    per_scale = []
    sup_adic, adic_at = Fraction(0), None
    sup_window, window_at = 0.0, None
    two_alpha = 2.0**params.alpha
    for m in range(j + 1):
        cells, counts = np.unique(level.atoms // N ** (j - m), return_counts=True)
        # N-adic ratio: (count * t^{-j}) / N^{-m alpha} = count * t^{m-j}
        i = int(counts.argmax())
        ratio = Fraction(int(counts[i]) * t**m, t**j)
        if ratio > sup_adic:
            sup_adic, adic_at = ratio, {"m": m, "cell": int(cells[i])}
        # a window [u, u + 2) as full as any starts at an occupied cell u; at
        # u = N^m - 1, past the last window, the count is at most the window
        # at u - 1's, and at m = 0 the one cell is the window
        windows = counts + np.append(np.where(np.diff(cells) == 1, counts[1:], 0), 0)
        i = int(windows.argmax())
        wratio = float(Fraction(int(windows[i]) * t**m, t**j)) / two_alpha
        if wratio > sup_window:
            sup_window, window_at = wratio, {"m": m, "start": int(cells[i])}
        per_scale.append({"m": m, "adic_ratio": float(ratio),
                          "window_ratio": wratio})
    return {
        "j": j,
        "sup_adic_ratio": float(sup_adic),
        "sup_adic_exact_one": sup_adic == 1,
        "sup_adic_witness": adic_at,
        "sup_window_ratio": sup_window,
        "sup_window_witness": window_at,
        "per_scale": per_scale,
    }
