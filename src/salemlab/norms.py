"""Norms on the line, masses against the measure, restriction ratios,
the interpolation chain, and the ball condition scan.

Quadrature uses a uniform lattice aligned with the integrand's period. The
samples beyond the reported window [-K, K] are folded in exactly through
Hurwitz zeta values, so the lattice sum covers the whole line; the envelope
tail bound is reported alongside for the truncated window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .construction import LevelSet
from .energy import bspline_integers, exact_l2r_norm, l2r_lower_bound
from .expsums import half_table
from .params import ConstructionParams
from .spectral import restricted_atoms


class NormError(RuntimeError):
    pass


@dataclass
class NormEstimate:
    p: float
    value: float
    method: str              # exact-bspline | quadrature | lower-bound | closed-form
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
# The expansion (DLMF 25.11) is used at a >= _EM_START only. For real p > 1
# its remainder after the eight terms is at most the first omitted one,
# |B_18| / 18! (p)_17 a^(-p-17) (F. Johansson, Numer. Algorithms 69, 2015),
# which relative to zeta(p, a) is below 1.6e-15 at p = 8 and 2.3e-19 at
# p = 3 (a = 16); at a = 8 it would reach 2e-10 at p = 8.
_EM_START = 16
_BLOCK = 2**16      # half-lattice points per block of _lattice_weights


def _hurwitz(p: float, a):
    """zeta(p, a) = sum over m >= 0 of (a + m)^-p, for p > 1 and a >= _EM_START:

    a^(1-p)/(p-1) + a^-p/2 + sum_k B_2k/(2k)! (p)_(2k-1) a^(-p-2k+1),

    with (p)_n the rising factorial; one pow and a polynomial in a^-2.
    """
    coeffs, rising = [], p
    for k, c in enumerate(_EM_COEFFS, start=1):
        coeffs.append(c * rising)
        rising *= (p + 2 * k - 1) * (p + 2 * k)
    u = 1.0 / a
    w = u * u
    poly = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        poly = poly * w + c
    return a ** -p * (a / (p - 1.0) + 0.5 + u * poly)


@functools.lru_cache(maxsize=1)
def _lattice_weights(n_per: int, p: float):
    """Head and tail weights of the half lattice 1 <= i <= n_per/2.

    The sample at eta = i / n_per stands for the points eta + m of every
    period m >= 0 and, by the evenness of |T|, for their mirrors
    1 - eta + m. Its weight |sin(pi eta)|^p / (pi (eta + m))^p summed over
    m < _HEAD_PERIODS is the head weight; summed over the periods beyond it
    is the Hurwitz tail pi^-p zeta(p, eta + _HEAD_PERIODS). The periods
    m < _EM_START are summed term by term, and the rest of the head is
    zeta(p, eta + _EM_START) - zeta(p, eta + _HEAD_PERIODS). Each is folded
    with its mirror, and eta = 1/2 (n_per is even), its own mirror, counts
    once. The m = 0 terms, where eta^-p may overflow, are formed as
    (|sin(pi eta)| / (pi eta))^p <= 1, and the rest, each at most 1, are
    scaled by (|sin(pi eta)| / pi)^p, so no large p forms inf * 0. The
    weights depend on neither the level's atoms nor the window, so the
    windows of one lattice share them; the arrays are read-only. They are
    filled in blocks, which keeps the temporaries small.
    """
    n_half = n_per // 2
    head, tail = np.zeros(n_half), np.zeros(n_half)
    for lo in range(0, n_half, _BLOCK):
        i = np.arange(lo + 1, min(lo + _BLOCK, n_half) + 1)
        h, t = head[lo:lo + len(i)], tail[lo:lo + len(i)]
        amp = np.abs(np.sin(np.pi * (i / n_per))) / math.pi
        near = np.zeros(len(i))
        for eta in (i / n_per, (n_per - i) / n_per):
            near += (amp / eta) ** p
            for m in range(1, _EM_START):
                h += (eta + m) ** -p
            beyond = _hurwitz(p, eta + _HEAD_PERIODS)
            h += _hurwitz(p, eta + _EM_START) - beyond
            t += beyond
        scale = amp**p
        h *= scale
        t *= scale
        h += near
    head[-1] /= 2
    tail[-1] /= 2
    head.flags.writeable = tail.flags.writeable = False
    return head, tail


def lp_norm_quadrature(params: ConstructionParams, level: LevelSet, ell: int,
                       p: float) -> NormEstimate:
    """Lattice quadrature of the p-th power of the structured-window
    transform's norm over the line, at step h = 1/4.

    The reported value is the full lattice sum: the window [-K, K],
    K = 32 N^j, is summed directly and the remaining periods are folded
    through Hurwitz zeta values, which is exact for the lattice.
    ``tail_bound`` is the analytic envelope bound on the |xi| > K
    contribution.

    For even p = 2r the lattice sum is the integral itself, up to roundoff:
    the window measure lives on [0, 1], so |phi|^(2r) is the Fourier
    transform of its r-fold autocorrelation, supported in [-r, r], and by
    Poisson summation the h-lattice sum equals the integral whenever
    r <= 1/h.
    """
    if not p > 1:
        raise NormError(
            f"need p > 1, got {p}: the tail under the 1/|xi| envelope diverges"
        )
    j = level.j
    period = params.period(j)
    h = 1 / _SAMPLES_PER_UNIT
    K = _HEAD_PERIODS * period
    n_per = period * _SAMPLES_PER_UNIT
    # zero-padding the length-N^j indicator to n_per points samples the
    # exponential sum at xi = i*h; T(-xi) is the conjugate of T(xi), so the
    # half period holds every |T|
    T = np.abs(half_table(restricted_atoms(params, level, ell), period, n_per))
    tj = float(params.t) ** (-j)
    # the origin, then each half-lattice sample for both signs of xi; lattice
    # points at nonzero multiples of the period carry sin = 0 and drop out
    head_w, tail_w = _lattice_weights(n_per, float(p))
    A = (T[1:] * tj) ** p
    head = (T[0] * tj) ** p + 2.0 * float(np.dot(A, head_w))
    tail = 2.0 * float(np.dot(A, tail_w))
    value = h * (head + tail)

    # 2 (N^j env_peak / pi)^p K^(1-p) / (p - 1), with no large power formed
    env_peak = float(params.t) ** (-ell / 2)
    tail_bound = 2.0 * K * (env_peak / (_HEAD_PERIODS * math.pi)) ** p / (p - 1)

    return NormEstimate(
        p=p, value=value, method="quadrature", tail_bound=tail_bound,
        grid={"K": K, "h": h}, head_value=h * head, tail_value=h * tail,
    )


def lp_norm(params: ConstructionParams, level: LevelSet, ell: int, p) -> NormEstimate:
    """p-th norm power; even integer p goes through the exact B-spline route."""
    if float(p) == int(p) and int(p) % 2 == 0 and int(p) >= 2:
        r = int(p) // 2
        res = exact_l2r_norm(params, level, ell, r)
        return NormEstimate(p=float(p), value=res["value_float"],
                            method="exact-bspline")
    return lp_norm_quadrature(params, level, ell, float(p))


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
    count = len(restricted_atoms(params, level, ell))
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


def restriction_ratio(params: ConstructionParams, level: LevelSet, ell: int,
                      p: float, q: float) -> RatioReport:
    est = lp_norm(params, level, ell, p)
    numerator = est.value ** (1.0 / p)
    denominator = lq_mass(params, ell, q)["norm"]
    r = pick_r(params, p)
    C2r = float(bspline_integers(r).C2r)
    bound = (
        C2r * params.N**ell * float(r) ** (-ell - 1)
        * float(params.t) ** (-ell * (p + 1) / 2)
    )
    th = thresholds(params.alpha, beta=params.alpha, q=q)
    return RatioReport(
        j=level.j, ell=ell, p=p, q=q, numerator=numerator,
        denominator=denominator, ratio=numerator / denominator,
        thresholds=th, bound_3_1=bound, slack=est.value - bound,
    )


# ---------------------------------------------------------------------------
# interpolation chain

def holder_chain_check(params: ConstructionParams, level: LevelSet, ell: int,
                       p: float, r: int) -> dict:
    """Check the interpolation chain on the windowed transform phi:

        ||phi||_{2r}^{2r} <= ||phi||_p^p * ||phi||_inf^{2r-p},

    with ||phi||_inf <= t^(-ell/2) (attained at 0), and the implied lower
    bound on ||phi||_p^p against the structured-energy bound.
    """
    if not 1 <= p < 2 * r:
        raise NormError(f"need 1 <= p < 2r, got p={p}, r={r}")
    exact = exact_l2r_norm(params, level, ell, r)
    lhs = exact["value_float"]
    pp = lp_norm(params, level, ell, p).value
    sup = float(params.t) ** (-ell / 2)
    rhs = pp * sup ** (2 * r - p)
    implied = lhs * float(params.t) ** (ell * (2 * r - p) / 2)
    bound31 = float(l2r_lower_bound(params, ell, r)["bound"]) * float(
        params.t
    ) ** (ell * (2 * r - p) / 2)
    return {
        "j": level.j, "ell": ell, "p": p, "r": r,
        "lhs_2r": lhs, "p_norm_power": pp, "sup_bound": sup,
        "rhs": rhs, "slack": rhs - lhs,
        "implied_p_lower": implied, "bound_3_1": bound31,
        "chain_holds": lhs <= rhs * (1 + 1e-9),
        "implied_holds": pp >= implied * (1 - 1e-9),
        "bound_3_1_holds": pp >= bound31,
    }


# ---------------------------------------------------------------------------
# ball condition

def ball_condition_report(params: ConstructionParams, level: LevelSet) -> dict:
    """Mass-to-length ratios mu(I)/|I|^alpha over all N-adic intervals at
    every scale up to the level, and over width-2 N-adic windows straddling
    endpoints. Uses the exact identity N^(m*alpha) = t^m."""
    j = level.j
    N, t = params.N, params.t
    per_scale = []
    sup_adic = Fraction(0)
    sup_window = 0.0
    two_alpha = 2.0**params.alpha
    for m in range(j + 1):
        prefixes = level.atoms // N ** (j - m)
        counts = np.bincount(prefixes, minlength=N**m)
        # N-adic ratio: (count * t^{-j}) / N^{-m alpha} = count * t^{m-j}
        top = int(counts.max())
        ratio = Fraction(top * t**m, t**j)
        sup_adic = max(sup_adic, ratio)
        window_counts = counts[:-1] + counts[1:] if m >= 1 else counts
        wtop = int(window_counts.max()) if len(window_counts) else top
        wratio = float(Fraction(wtop * t**m, t**j)) / two_alpha
        sup_window = max(sup_window, wratio)
        per_scale.append({"m": m, "adic_ratio": float(ratio),
                          "window_ratio": wratio})
    return {
        "j": j,
        "sup_adic_ratio": float(sup_adic),
        "sup_adic_exact_one": sup_adic == 1,
        "sup_window_ratio": sup_window,
        "per_scale": per_scale,
    }
