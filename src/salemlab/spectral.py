"""Exponential sums and Fourier coefficients of the level measures.

Integer-frequency coefficients come from exact exponential sums, read from a
dense FFT table or summed directly under one cost rule (``_atom_sums``);
real-frequency values use the closed sinc form. Decay bounds are verified
against explicit thresholds with the worst slack reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .construction import Construction, LevelSet, structured_mask
from .params import ConstructionParams


class SpectralError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# exponential sums

def exp_sum(atoms, k, period, method="naive"):
    """S(k) = sum over atoms of exp(-2 pi i a k / period).

    ``method="naive"`` evaluates the direct sum at the given k (scalar or
    array), with the residues a * k mod period exact in int64;
    ``method="fft"`` reads the dense table at k mod period.
    """
    if method == "fft":
        return _table_sums(atoms, k, period)
    if method != "naive":
        raise ValueError(f"unknown method {method!r}")
    ks = np.atleast_1d(np.asarray(k, dtype=np.int64))
    residues = np.asarray(atoms, dtype=np.int64) % period
    out = np.zeros(len(ks), dtype=np.complex128)
    chunk = max(2, 2**22 // max(len(residues), 1))
    for lo in range(0, len(ks), chunk):
        kc = ks[lo : lo + chunk] % period
        n = len(kc)
        # numpy sums a single column pairwise but several columns atom by
        # atom; a lone frequency goes in as a pair so that S(k) does not
        # depend on which other frequencies share the call
        if n == 1:
            kc = np.repeat(kc, 2)
        out[lo : lo + n] = np.exp(
            -2j * np.pi * _mulmod(residues[:, None], kc[None, :], period) / period
        ).sum(axis=0)[:n]
    return out[0] if np.ndim(k) == 0 else out


def exp_sum_all(atoms, period, fft_budget=2**26):
    """Dense table of S(k) for all k in [0, period) via one FFT."""
    if period > fft_budget:
        raise SpectralError(
            f"period {period} exceeds the dense transform budget {fft_budget}"
        )
    ind = np.zeros(period)
    ind[np.asarray(atoms, dtype=np.int64)] = 1.0
    return np.fft.fft(ind)


# Cost of one direct-sum term in units of one point * log2 of the dense
# table's FFT. Measured on a 2-vCPU Xeon guest with numpy 2.4.6: 55-61 ns per
# direct term against about 5 ns per point * log2 over a traced desk verify,
# and 86-115 ns against 2.4-4.4 ns for isolated batches of 4096 frequencies
# at periods 9^5, 2^16 and 2^20. The low end is taken, which leaves cases
# near the boundary to the direct sum.
_DIRECT_TERM_WEIGHT = 10


def _atom_sums(atoms, k, period, fft_budget):
    """S(k) at integer frequencies under one cost rule.

    An array of frequencies reads the dense table when the period fits the
    budget and one FFT, period * log2(period), costs no more than the
    |atoms| * |ks| terms of the direct sum, each weighted by
    ``_DIRECT_TERM_WEIGHT``. Everything else, scalar k included, takes the
    direct sum.
    """
    n_terms = np.size(atoms) * np.size(k)
    if (np.ndim(k) and period <= fft_budget
            and period * math.log2(period) <= _DIRECT_TERM_WEIGHT * n_terms):
        return _table_sums(atoms, k, period, fft_budget)
    return exp_sum(atoms, k, period)


def _table_sums(atoms, k, period, fft_budget=2**26):
    return exp_sum_all(atoms, period, fft_budget)[np.asarray(k, dtype=np.int64) % period]


def _mulmod(a, b, period):
    """a * b mod period, exact in int64 for residues a, b in [0, period).

    Below 2^31.5 the plain product fits in 63 bits. Above it, b is consumed
    w bits at a time by Horner's rule, with w = 63 - bitlength(period) so
    that neither r * 2^w nor a * (w-bit chunk) leaves int64.
    """
    period = int(period)
    if (period - 1) ** 2 < 2**63:
        return (a * b) % period
    bits = period.bit_length()
    if bits > 62:
        raise SpectralError(f"period {period} needs more than 62 bits")
    w = 63 - bits
    mask = (1 << w) - 1
    out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.int64)
    for shift in range((bits - 1) // w * w, -1, -w):
        out = ((out << w) % period + (a * ((b >> shift) & mask)) % period) % period
    return out


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


def _window_coefficients(params: ConstructionParams, level: LevelSet, ell: int,
                         k, table=None):
    """Coefficients of the measure weighted by the structured window of
    depth ell (ell = 0: the plain measure), from ``table`` when given."""
    period = params.period(level.j)
    if table is not None:
        s = table[np.asarray(k, dtype=np.int64) % period]
    else:
        s = _atom_sums(restricted_atoms(params, level, ell), k, period,
                       params.fft_budget)
    return _coefficients(params, level.j, k, s)


def mu_hat(params: ConstructionParams, level: LevelSet, k, table=None):
    """Fourier coefficient of the level-j measure at integer frequency k."""
    return _window_coefficients(params, level, 0, k, table)


def f_mu_hat(params: ConstructionParams, level: LevelSet, ell: int, k, table=None):
    """Fourier coefficient of the structured-window weighted measure."""
    if ell > level.j:
        raise ValueError(f"ell={ell} exceeds level j={level.j}")
    return _window_coefficients(params, level, ell, k, table)


def f_mu_hat_real(params: ConstructionParams, level: LevelSet, ell: int, xi):
    """Closed sinc-form transform at arbitrary real frequency xi."""
    atoms = restricted_atoms(params, level, ell)
    period = params.period(level.j)
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    z = xi_arr / period
    out = np.zeros(len(xi_arr), dtype=np.complex128)
    chunk = max(1, 2**22 // max(len(atoms), 1))
    for lo in range(0, len(xi_arr), chunk):
        xc = xi_arr[lo : lo + chunk]
        out[lo : lo + chunk] = np.exp(
            -2j * np.pi * atoms[:, None] * (xc[None, :] / period)
        ).sum(axis=0)
    out *= np.exp(-1j * np.pi * z) * np.sinc(z) * float(params.t) ** (-level.j)
    return out[0] if np.ndim(xi) == 0 else out


# ---------------------------------------------------------------------------
# spectra

@dataclass
class Spectrum:
    j: int
    weight: str              # "mu" or "f_ell(<ell>)"
    ks: np.ndarray
    coefficients: np.ndarray

    def to_csv(self, path):
        from .storage import atomic_write_text

        lines = ["k,re,im,abs"]
        for k, c in zip(self.ks, self.coefficients):
            lines.append(
                f"{int(k)},{float(c.real)!r},{float(c.imag)!r},{float(abs(c))!r}"
            )
        atomic_write_text(path, "\n".join(lines) + "\n")


def compute_spectrum(params: ConstructionParams, level: LevelSet, ks,
                     ell=None) -> Spectrum:
    ks = np.asarray(ks, dtype=np.int64)
    coeffs = _window_coefficients(params, level, ell or 0, ks)
    weight = "mu" if ell in (None, 0) else f"f_ell({ell})"
    return Spectrum(j=level.j, weight=weight, ks=ks, coefficients=coeffs)


# ---------------------------------------------------------------------------
# telescoping decay between consecutive levels

@dataclass
class TelescopeReport:
    j: int
    ell: int                  # 0 means the plain measure
    constant: float           # C used on the right-hand side
    max_ratio: float
    worst_k: int
    checked: int
    passed: bool


def telescope_check(params: ConstructionParams, lo: LevelSet, hi: LevelSet,
                    ks, ell: int = 0) -> TelescopeReport:
    """Verify |coef_{j+1}(k) - coef_j(k)| against the level-step envelope
    C * min(1, N^(j+1)/|k|) * t^(-(j+1)/2) * ln(8 N^(j+1)) with C = 2*c_rot.
    """
    if hi.j != lo.j + 1:
        raise ValueError("telescope_check needs consecutive levels")
    j = lo.j
    N, t = params.N, params.t
    ks = np.asarray(ks, dtype=np.int64)
    ks = ks[ks != 0]
    C = 2.0 * params.c_rot
    windows = [(level.j, restricted_atoms(params, level, ell)) for level in (hi, lo)]

    def ratio(ks, sums):
        coef_hi, coef_lo = (
            _coefficients(params, jj, ks, sums(atoms, ks, params.period(jj)))
            for jj, atoms in windows
        )
        lhs = np.abs(coef_hi - coef_lo)
        envelope = np.minimum(1.0, N ** (j + 1) / np.abs(ks).astype(np.float64))
        rhs = C * envelope * t ** (-(j + 1) / 2) * math.log(8 * N ** (j + 1))
        return lhs / rhs

    worst_k, max_ratio = _worst(params, ks, ratio)
    return TelescopeReport(
        j=j, ell=ell, constant=C, max_ratio=max_ratio, worst_k=worst_k,
        checked=len(ks), passed=max_ratio < 1.0,
    )


def trivial_bound_check(params: ConstructionParams, level: LevelSet, ell: int,
                        ks) -> dict:
    """Check |coef(k)| <= N^h t^(-ell/2) / (pi |k|) over nonzero frequencies."""
    ks = np.asarray(ks, dtype=np.int64)
    ks = ks[ks != 0]
    atoms = restricted_atoms(params, level, ell)
    period = params.period(level.j)

    def ratio(ks, sums):
        coeffs = np.abs(_coefficients(params, level.j, ks, sums(atoms, ks, period)))
        bound = (
            params.N**level.j
            * float(params.t) ** (-ell / 2)
            / (np.pi * np.abs(ks).astype(np.float64))
        )
        return coeffs / bound

    worst_k, max_ratio = _worst(params, ks, ratio)
    return {
        "j": level.j, "ell": ell, "max_ratio": max_ratio,
        "worst_k": worst_k, "checked": len(ks),
        "passed": max_ratio <= 1.0 + 1e-12,
    }


# Screening width of the witness refinement: the dense table agrees with the
# direct sum to about 1e-12 relative, far inside this window.
_WITNESS_WINDOW = 1e-9


def _worst(params: ConstructionParams, ks, ratio):
    """(k, ratio) at the largest ``ratio(ks, sums)`` over the frequencies.

    The atom sums of the whole set come from the cost rule and only screen.
    Every k whose screened ratio lies within a relative ``_WITNESS_WINDOW`` of
    the screened maximum is recomputed by the direct sum, and the maximum and
    its witness come from that recomputation. Twins k and period - k tie in
    exact arithmetic; the first maximum in the order of ``ks`` wins, exactly
    as over a fully direct evaluation.
    """
    screened = ratio(ks, lambda a, k, p: _atom_sums(a, k, p, params.fft_budget))
    top = screened.max()
    near = ks[screened >= top - _WITNESS_WINDOW * top]
    exact = ratio(near, exp_sum)
    i = int(exact.argmax())
    return int(near[i]), float(exact[i])


# ---------------------------------------------------------------------------
# decay reports

@dataclass
class DecayReport:
    beta: float
    sup_constant: float
    dyadic_maxima: dict = field(default_factory=dict)   # octave -> max weighted coef
    fitted_exponent: float = float("nan")

    def to_json_dict(self):
        return {
            "beta": self.beta,
            "sup_constant": self.sup_constant,
            "dyadic_maxima": {str(k): v for k, v in self.dyadic_maxima.items()},
            "fitted_exponent": self.fitted_exponent,
        }


def decay_report(ks, coefficients, beta: float) -> DecayReport:
    """Octave-wise maxima of |coef(k)| (1+|k|)^(beta/2) and a power-law fit.

    The fitted exponent is the least-squares slope of log octave max of
    |coef| against log k; more negative than -beta/2 means faster decay
    than the target.
    """
    ks = np.abs(np.asarray(ks, dtype=np.int64))
    mags = np.abs(np.asarray(coefficients))
    keep = ks > 0
    ks, mags = ks[keep], mags[keep]
    if len(ks) == 0:
        raise SpectralError("decay_report needs a nonempty set of nonzero frequencies")
    weighted = mags * (1.0 + ks) ** (beta / 2)
    octaves = np.floor(np.log2(ks)).astype(int)
    table = {}
    raw_max = {}
    for m in range(octaves.min(), octaves.max() + 1):
        sel = octaves == m
        if sel.any():
            table[m] = float(weighted[sel].max())
            raw_max[m] = float(mags[sel].max())
    xs = np.array([m for m, v in raw_max.items() if v > 0], dtype=float)
    ys = np.log2([raw_max[int(m)] for m in xs])
    if len(xs) >= 2:
        slope = np.polyfit(xs, ys, 1)[0]
    else:
        slope = float("nan")
    return DecayReport(
        beta=beta,
        sup_constant=float(weighted.max()),
        dyadic_maxima=table,
        fitted_exponent=float(slope),
    )


# ---------------------------------------------------------------------------
# geometric series envelope

def series_lhs(params: ConstructionParams, k: int, tol=1e-15) -> float:
    """Sum over levels of min(1, N^(j+1)/|k|) t^(-(j+1)/2) ln(8 N^(j+1)),
    truncated once terms drop below tol."""
    if k == 0:
        raise ValueError("k must be nonzero")
    N, t = params.N, params.t
    total = 0.0
    j = 0
    while True:
        term = (
            min(1.0, N ** (j + 1) / abs(k))
            * t ** (-(j + 1) / 2)
            * math.log(8 * N ** (j + 1))
        )
        total += term
        if term < tol and N ** (j + 1) > abs(k):
            return total
        j += 1


def series_bound_check(params: ConstructionParams, beta: float, k: int,
                       calibration_k: int = 1) -> dict:
    """Compare the level-sum envelope against C |k|^(-beta/2) with C
    calibrated so the bound is tight at the calibration frequency."""
    if not 0 < beta < params.alpha:
        raise ValueError(f"need 0 < beta < alpha={params.alpha}")
    C = series_lhs(params, calibration_k) * abs(calibration_k) ** (beta / 2)
    lhs = series_lhs(params, k)
    rhs = C * abs(k) ** (-beta / 2)
    return {"lhs_sum": lhs, "rhs": rhs, "ratio": lhs / rhs, "constant": C}
