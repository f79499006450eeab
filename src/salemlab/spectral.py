"""Exponential sums and Fourier coefficients of the level measures.

Integer-frequency coefficients come from the exact exponential sums of
``expsums``: ``f_mu_hat`` by the direct sum, spectra by ``exp_sum_all``, the
trivial bound from the residue-class tables through one plan of its
frequencies (``expsums.Frequencies``); a period above ``expsums.FFT_BUDGET``
is refused. The trivial bound screens |S(k)| times one real factor per
frequency, block by block, and recomputes its witnesses by the direct sum.
Telescoping decides every integer frequency: it reads the deviation sums of
``construction.rotation_sums`` at every residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expsums
from .construction import LevelSet, check_level_invariants, rotation_sums, structured_mask
from .expsums import SpectralError, exp_sum, exp_sum_all
from .floatrepr import WIDTH, float_rows, int_rows
from .params import ConstructionParams
from .storage import atomic_write_text


# ---------------------------------------------------------------------------
# coefficient factors

def prefactor(k, period):
    """(1 - e^{-2 pi i k/period}) / (2 pi i k/period), continued by 1 at k=0."""
    karr = np.atleast_1d(np.asarray(k, dtype=np.float64))
    z = karr / period
    out = np.ones(len(karr), dtype=np.complex128)
    nz = z != 0
    out[nz] = (1 - np.exp(-2j * np.pi * z[nz])) / (2j * np.pi * z[nz])
    return out[0] if np.ndim(k) == 0 else out


def restricted_atoms(params: ConstructionParams, level: LevelSet, ell: int) -> np.ndarray:
    """Atoms of the level whose top-ell digit prefix is structured."""
    return level.atoms[structured_mask(params, level, ell)]


# ---------------------------------------------------------------------------
# measure coefficients

def _coefficients(params: ConstructionParams, j: int, k, sums):
    """Measure coefficients at integer k from the level-j atom sums S(k)."""
    return prefactor(k, params.period(j)) * sums * float(params.t) ** (-j)


def f_mu_hat(params: ConstructionParams, level: LevelSet, ell: int, k):
    """Fourier coefficient of the measure weighted by the structured window
    of depth ell (ell = 0: the plain measure), by the direct sum at any k."""
    s = exp_sum(restricted_atoms(params, level, ell), k, params.period(level.j))
    return _coefficients(params, level.j, k, s)


# ---------------------------------------------------------------------------
# spectra

_CSV_BLOCK = 1024    # rows per formatted CSV block: 0.2 MB of cells


@dataclass
class Spectrum:
    j: int
    weight: str              # "mu" or "f_ell(<ell>)"
    ks: np.ndarray
    coefficients: np.ndarray

    def to_csv(self, path):
        """Write k,re,im,abs rows, all or nothing, _CSV_BLOCK rows at a time:
        k in decimal and each float as its repr (``floatrepr``), and abs as
        np.hypot(re, im), the C hypot that abs(complex) calls (np.abs differs)."""
        def blocks():
            yield "k,re,im,abs\n"
            for lo in range(0, len(self.ks), _CSV_BLOCK):
                c = np.asarray(self.coefficients[lo : lo + _CSV_BLOCK], np.complex128)
                cells = np.empty((len(c), 4, WIDTH), np.uint8)
                cells[:, 0] = int_rows(self.ks[lo : lo + _CSV_BLOCK])
                cells[:, 1:] = float_rows(np.stack(
                    [c.real, c.imag, np.hypot(c.real, c.imag)], axis=1)).reshape(-1, 3, WIDTH)
                cells[:, :, -1] = ord(",")     # each row's last byte is NUL
                cells[:, 3, -1] = ord("\n")
                yield cells.tobytes().translate(None, b"\0").decode("ascii")
        atomic_write_text(path, blocks())


def compute_spectrum(params: ConstructionParams, level: LevelSet, kmax: int,
                     ell=None) -> Spectrum:
    """The coefficients of window ell (None or 0: the measure) at every k in
    [0, kmax), from the sums of ``exp_sum_all``, in ``BLOCK``-sized slices."""
    j, ks = level.j, np.arange(kmax, dtype=np.int64)
    coeffs = exp_sum_all(restricted_atoms(params, level, ell or 0), params.period(j), kmax)
    for lo in range(0, kmax, expsums.BLOCK):
        at = slice(lo, lo + expsums.BLOCK)
        coeffs[at] = _coefficients(params, j, ks[at], coeffs[at])
    weight = "mu" if ell in (None, 0) else f"f_ell({ell})"
    return Spectrum(j=j, weight=weight, ks=ks, coefficients=coeffs)


# ---------------------------------------------------------------------------
# decay checks

def telescope_check(params: ConstructionParams, lo: LevelSet, hi: LevelSet) -> list[dict]:
    """Verify |coef_{j+1}(k) - coef_j(k)| against the level-step envelope
    C * min(1, P/|k|) * t^(-(j+1)/2) * ln(8P), P = N^(j+1), C = 2*c_rot, at
    every integer k != 0: one record per window ell = 0..j, for ``hi`` a
    refinement of ``lo`` (``check_level_invariants``). The difference is
    prefactor(k, P) t^(-j) s_ell(k), s_ell the window's deviation sum of
    ``construction.rotation_sums`` (one table, no cancellation). As
    |prefactor(k, P)| / min(1, P/|k|) = |sin(pi k/P)| P / (pi min(|k|, P))
    and |s_ell(k)| = |s_ell(P - k)| is P-periodic, no k exceeds its folded
    residue k' = min(k mod P, P - k mod P) <= P/2: each k' is read once,
    ``worst_k`` is the first at the maximum and ``checked`` their count."""
    check_level_invariants(params, lo, hi)
    N, t, j = params.N, params.t, lo.j
    C = 2.0 * params.c_rot
    period = params.period(j + 1)
    scale = float(t) ** -j * period / np.pi / (C * t ** (-(j + 1) / 2)
                                               * math.log(8 * period))
    digits = (hi.atoms % N).reshape(len(lo.atoms), t)
    peaks, witnesses, checked = [0.0] * (j + 1), [0] * (j + 1), 0
    for kb, sums in rotation_sums(params, lo, digits):
        skip = int(kb[0] == 0)      # k' = 0, read first in class 0
        folded = np.minimum(kb[skip:], period - kb[skip:])
        factor = np.sin(np.pi / period * folded) * scale / folded
        checked += len(folded)
        for ell, s in enumerate(sums):
            ratio = np.abs(s[skip:]) * factor
            i = int(ratio.argmax())
            if ratio[i] > peaks[ell]:
                peaks[ell], witnesses[ell] = float(ratio[i]), int(folded[i])
    return [{"j": j, "ell": ell, "constant": C, "max_ratio": peak, "worst_k": k,
             "checked": checked, "passed": peak < 1.0}
            for ell, (peak, k) in enumerate(zip(peaks, witnesses))]


def trivial_bound_check(params: ConstructionParams, level: LevelSet, ell: int,
                        ks) -> dict:
    """Check |coef(k)| <= N^j t^(-ell/2) / (pi |k|) over the nonzero
    frequencies ``ks``, an array (k = 0 dropped) or a shared plan of them at
    the level's period P = N^j (at another, a ValueError); none is a
    SpectralError. The tables screen the ratio |S(k)| |sin(pi k / P)|
    t^(ell/2 - j), block by block, and ``_worst`` recomputes the k near its
    maximum by the direct sum."""
    atoms = restricted_atoms(params, level, ell)
    period = params.period(level.j)
    plan = ks
    if not isinstance(plan, expsums.Frequencies):
        ks = np.asarray(ks, dtype=np.int64)
        plan = expsums.Frequencies(ks[ks != 0], period)
    elif plan.period != period:
        raise ValueError(f"a plan at period {plan.period} read at period {period}")
    if not plan.ks.any():
        raise SpectralError("trivial_bound_check needs a nonempty set of nonzero frequencies")
    screened = np.empty(len(plan))
    for at, sums in plan.sums(atoms):
        factor = plan.ks[at] % period
        np.minimum(factor, period - factor, out=factor)
        screened[at] = np.abs(sums) * np.sin(np.pi / period * factor)
    screened *= float(params.t) ** (ell / 2 - level.j)

    def ratio(ks):
        coeffs = np.abs(_coefficients(params, level.j, ks, exp_sum(atoms, ks, period)))
        bound = (
            params.N**level.j
            * float(params.t) ** (-ell / 2)
            / (np.pi * np.abs(ks).astype(np.float64))
        )
        return coeffs / bound

    worst_k, max_ratio = _worst(plan.ks, screened, ratio)
    return {"j": level.j, "ell": ell, "max_ratio": max_ratio, "worst_k": worst_k,
            "checked": len(plan), "passed": max_ratio <= 1.0 + 1e-12}


# Screening width of the trivial bound's witness refinement: the tables
# agree with the direct sum to about 1e-12 relative, far inside this window.
_WITNESS_WINDOW = 1e-9


def _worst(ks, screened, ratio):
    """(k, ratio(k)) at the largest ``ratio`` over the frequencies ``ks``,
    for the trivial bound, whose sampled records the benchmark pins.

    ``screened`` is the ratio read from the class tables, and only screens.
    Every k whose screened ratio lies within a relative ``_WITNESS_WINDOW`` of
    the screened maximum is recomputed by ``ratio``, the direct sum, and the
    maximum and its witness come from that recomputation; the first maximum
    in the order of ``ks`` wins, exactly as over a fully direct evaluation.

    Twins k and period - k tie in exact arithmetic, but the pinned witnesses
    are decided in the last bit of the direct sums: on desk seed 11, 25906
    and 39630 tie exactly and the first wins; on odd-base seeds 7 and 11,
    30437 beats its earlier twin 28612 by one ulp. So the refinement must
    stay as it is, the direct sums of ``exp_sum``, the complex ``prefactor``
    and the first maximum in the order of ``ks``: a change in the last bit
    moves a recorded witness.
    """
    top = screened.max()
    near = ks[screened >= top - _WITNESS_WINDOW * top]
    exact = ratio(near)
    i = int(exact.argmax())
    return int(near[i]), float(exact[i])


# ---------------------------------------------------------------------------
# decay reports

@dataclass
class DecayReport:
    beta: float
    sup_constant: float
    dyadic_maxima: dict = field(default_factory=dict)   # octave -> max weighted coef
    fitted_exponent: float | None = None   # None below two octaves


def decay_report(ks, coefficients, beta: float) -> DecayReport:
    """Octave-wise maxima of |coef(k)| (1+|k|)^(beta/2) and a power-law fit.

    The fitted exponent is the least-squares slope of log octave max of
    |coef| against log k, None below two octaves; more negative than
    -beta/2 means faster decay than the target.
    """
    # the maxima by octave floor(log2 |k|) of each k != 0, met block by block
    # so that no array of the spectrum's length is formed
    ks, raw, top = np.asarray(ks, dtype=np.int64), np.zeros(64), np.zeros(64)
    met, sup = np.zeros(64, bool), -np.inf
    for lo in range(0, len(ks), expsums.BLOCK):
        k = np.abs(ks[lo : lo + expsums.BLOCK]).view(np.uint64)   # |-2^63| = 2^63
        keep = k > 0
        k, mags = k[keep], np.abs(np.asarray(coefficients[lo : lo + expsums.BLOCK])[keep])
        octaves = np.log2(k).astype(np.intp)
        octaves -= k >> octaves.view(np.uint64) == 0   # log2 rounds 2^m - 1, m > 53, up
        met[octaves] = True
        np.maximum.at(raw, octaves, mags)
        weighted = (k + 1.0) ** (beta / 2) * mags
        np.maximum.at(top, octaves, weighted)
        sup = np.maximum(sup, weighted.max(initial=-np.inf))
    if not met.any():
        raise SpectralError("decay_report needs a nonempty set of nonzero frequencies")
    table = {int(m): float(top[m]) for m in np.flatnonzero(met)}
    raw_max = {int(m): float(raw[m]) for m in np.flatnonzero(met)}
    xs = np.array([m for m, v in raw_max.items() if v > 0], dtype=float)
    ys = np.log2([raw_max[int(m)] for m in xs])
    xs -= xs.mean() if len(xs) else 0.0     # least squares in closed form, no LAPACK
    slope = float(np.sum(xs * (ys - ys.mean())) / np.sum(xs * xs)) if len(xs) >= 2 else None
    return DecayReport(
        beta=beta,
        sup_constant=float(sup),
        dyadic_maxima=table,
        fitted_exponent=slope,
    )

