"""Norms on the line, masses against the measure, restriction ratios,
the interpolation chain, the energy-integral diagnostic, and the ball
condition scan.

Quadrature uses a uniform lattice aligned with the integrand's period. The
samples beyond the reported window [-K, K] are folded in exactly through
Hurwitz zeta values, so the lattice sum covers the whole line; the envelope
tail bound is reported alongside for the truncated window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from .construction import Construction, LevelSet
from .energy import bspline_integers, exact_l2r_norm, l2r_lower_bound
from .params import ConstructionParams
from .spectral import exp_sum_all, restricted_atoms


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

    def to_json_dict(self):
        return {
            "p": self.p, "value": self.value, "method": self.method,
            "tail_bound": self.tail_bound, "grid": self.grid,
            "head_value": self.head_value, "tail_value": self.tail_value,
        }


# ---------------------------------------------------------------------------
# quadrature on the lattice

def _periodic_samples(params, level, ell, h):
    """|T(xi_i)|, sin(pi eta_i) at the lattice points of one period.

    T is the atom exponential sum, period N^j; the lattice is xi_i = i*h
    with 1/h an integer, so one period of samples tiles the whole line.
    """
    inv_h = round(1.0 / h)
    if abs(inv_h - 1.0 / h) > 1e-12 or inv_h < 1:
        raise NormError(f"step h={h} must be the reciprocal of a positive integer")
    period = params.period(level.j)
    n_per = period * inv_h
    if n_per > params.fft_budget:
        raise NormError(f"lattice of {n_per} points per period exceeds the budget")
    # zero-padding the length-N^j indicator to n_per points samples the
    # exponential sum at the refined frequencies xi = k*h
    T = np.abs(exp_sum_all(restricted_atoms(params, level, ell), n_per,
                           params.fft_budget))
    eta = np.arange(n_per) / n_per
    return T, eta, n_per


def lp_norm_quadrature(params: ConstructionParams, level: LevelSet, ell: int,
                       p: float, K: int | None = None, h: float = 0.25,
                       self_check: bool = False) -> NormEstimate:
    """Lattice quadrature of the p-th power of the structured-window
    transform's norm over the line.

    The reported value is the full lattice sum: the window [-K, K] is summed
    directly and the remaining periods are folded through Hurwitz zeta
    values, which is exact for the lattice. ``tail_bound`` is the analytic
    envelope bound on the |xi| > K contribution.
    """
    if p < 1:
        raise NormError(f"need p >= 1, got {p}")
    if p <= 1:
        raise NormError("p = 1 has a divergent tail under the 1/|xi| envelope")
    if h > 0.25:
        raise NormError(f"step h={h} too coarse; need h <= 1/4")
    j = level.j
    period = params.period(j)
    if K is None:
        K = 32 * period
    if K % period != 0 or K <= 0:
        raise NormError(f"cutoff K={K} must be a positive multiple of N^j={period}")

    T, eta, n_per = _periodic_samples(params, level, ell, h)
    tj = float(params.t) ** (-j)
    # weight at lattice point eta + m (m-th period): sin^p(pi eta)/(pi(eta+m))^p
    P = (T * tj) ** p * np.abs(np.sin(np.pi * eta)) ** p

    m_cut = K // period
    # head: the origin plus periods 0..m_cut-1 on each side; lattice points at
    # nonzero multiples of the period carry sin = 0 and drop out
    head = (T[0] * tj) ** p
    for m in range(m_cut):
        head += 2.0 * float(np.dot(P[1:], (np.pi * (eta[1:] + m)) ** (-p)))
    # tail: periods m >= m_cut, folded exactly via the Hurwitz zeta function
    tail = 2.0 * math.pi ** (-p) * float(
        np.dot(P[1:], hurwitz_zeta(p, eta[1:] + m_cut))
    )
    value = h * (head + tail)

    env_peak = float(params.t) ** (-ell / 2)
    tail_bound = 2.0 * (period * env_peak / math.pi) ** p * K ** (1 - p) / (p - 1)

    est = NormEstimate(
        p=p, value=value, method="quadrature", tail_bound=tail_bound,
        grid={"K": int(K), "h": h}, head_value=h * head, tail_value=h * tail,
    )
    if self_check:
        finer = lp_norm_quadrature(params, level, ell, p, K=K, h=h / 2)
        if abs(finer.value - est.value) > 1e-3 * max(abs(est.value), 1e-300):
            raise NormError(
                f"grid self-check failed: value {est.value!r} vs {finer.value!r} at h/2"
            )
    return est


def lp_norm(params: ConstructionParams, level: LevelSet, ell: int, p,
            **kw) -> NormEstimate:
    """p-th norm power; even integer p goes through the exact B-spline route."""
    if float(p) == int(p) and int(p) % 2 == 0 and int(p) >= 2:
        r = int(p) // 2
        res = exact_l2r_norm(params, level, ell, r)
        return NormEstimate(p=float(p), value=res["value_float"],
                            method="exact-bspline")
    return lp_norm_quadrature(params, level, ell, float(p), **kw)


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
        if q <= 1:
            out["pq_bound"] = math.inf
        else:
            out["pq_bound"] = q * (2.0 - alpha) / (alpha * (q - 1.0))
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

    def to_json_dict(self):
        return {
            "j": self.j, "ell": self.ell, "p": self.p, "q": self.q,
            "numerator": self.numerator, "denominator": self.denominator,
            "ratio": self.ratio, "thresholds": self.thresholds,
            "bound_3_1": self.bound_3_1, "slack": self.slack,
        }


def pick_r(params: ConstructionParams, p: float) -> int:
    """Smallest convolution order covering exponent p inside the standing
    hypothesis r > 1/alpha."""
    return max(math.ceil(p / 2.0), math.floor(1.0 / params.alpha) + 1)


def restriction_ratio(params: ConstructionParams, level: LevelSet, ell: int,
                      p: float, q: float, **kw) -> RatioReport:
    est = lp_norm(params, level, ell, p, **kw)
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
                       p: float, r: int, **kw) -> dict:
    """Check the interpolation chain on the windowed transform phi:

        ||phi||_{2r}^{2r} <= ||phi||_p^p * ||phi||_inf^{2r-p},

    with ||phi||_inf <= t^(-ell/2) (attained at 0), and the implied lower
    bound on ||phi||_p^p against the structured-energy bound.
    """
    if not 1 <= p < 2 * r:
        raise NormError(f"need 1 <= p < 2r, got p={p}, r={r}")
    exact = exact_l2r_norm(params, level, ell, r)
    lhs = exact["value_float"]
    pp = lp_norm(params, level, ell, p, **kw).value
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
# energy-integral diagnostic

def energy_integral(params: ConstructionParams, level: LevelSet, gamma: float,
                    K: float, h: float = 0.25) -> dict:
    """Truncated energy integral of the level measure over 1 <= |xi| <= K,
    with partial values at dyadic cutoffs to expose growth in K."""
    if not 0 < gamma < 1:
        raise NormError(f"need 0 < gamma < 1, got {gamma}")
    inv_h = round(1.0 / h)
    period = params.period(level.j)
    n_per = period * inv_h
    if n_per > params.fft_budget:
        raise NormError("lattice exceeds the transform budget")
    table = np.abs(exp_sum_all(level.atoms, n_per, params.fft_budget))

    xi = np.arange(inv_h, int(K * inv_h) + 1) / inv_h
    idx = np.arange(inv_h, int(K * inv_h) + 1) % n_per
    mu2 = (np.sinc(xi / period) * table[idx] * float(params.t) ** (-level.j)) ** 2
    integrand = mu2 * xi ** (-(1.0 - gamma))
    cumulative = 2.0 * h * np.cumsum(integrand)   # both signs by symmetry
    partials = {}
    c = 2.0
    while c <= K:
        partials[c] = float(cumulative[int(c * inv_h) - inv_h])
        c *= 2.0
    return {"gamma": gamma, "K": K, "value": float(cumulative[-1]),
            "partials": partials}


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
