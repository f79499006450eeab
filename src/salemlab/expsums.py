"""Exponential sums over integer atoms.

S(k) = sum over atoms a of exp(-2 pi i a k / period) at integer k, either
summed directly with exact residues or read from the dense real-input table,
with one cost rule between them (``_atom_sums``). Many subsets of one atom
list, sampled at more frequencies than a table is long, go through one
factored evaluator (``_subset_sums``) instead. The norms' lattice, whose
period is not held whole, is read one residue class at a time
(``class_sums``). The construction's block and rotation checks, the spectral
module's measure coefficients and the norms' lattice samples all evaluate
through here.
"""

from __future__ import annotations

import math

import numpy as np


class SpectralError(RuntimeError):
    pass


# Longest dense transform, in points, of any table or lattice; a longer one
# is a SpectralError. Read as ``expsums.FFT_BUDGET`` everywhere, so that one
# assignment lowers it.
FFT_BUDGET = 2**26

# Entries of one atom-by-frequency array in ``exp_sum`` and ``_subset_sums``
# (16 MB). At 2^22, the j = 5 check of N = 16, j_max = 6 raised the
# construct peak RSS from 157 MB (set by j = 4) to 208 MB.
_CHUNK = 2**20


def exp_sum(atoms, k, period):
    """S(k) = sum over atoms of exp(-2 pi i a k / period), summed directly at
    the given k (scalar or array), with the residues a * k mod period exact
    in int64. ``exp_sum_all`` gives the dense table of every k mod period.
    """
    ks = np.atleast_1d(np.asarray(k, dtype=np.int64))
    residues = np.asarray(atoms, dtype=np.int64) % period
    out = np.zeros(len(ks), dtype=np.complex128)
    chunk = max(2, _CHUNK // max(len(residues), 1))
    for lo in range(0, len(ks), chunk):
        kc = ks[lo : lo + chunk] % period
        n = len(kc)
        # numpy sums a single column pairwise but several columns atom by
        # atom; a lone frequency goes in as a pair so that S(k) does not
        # depend on which other frequencies share the call
        if n == 1:
            kc = np.repeat(kc, 2)
        out[lo : lo + n] = _unit(
            _mulmod(residues[:, None], kc[None, :], period), period
        ).sum(axis=0)[:n]
    return out[0] if np.ndim(k) == 0 else out


def exp_sum_all(atoms, period):
    """Dense table of S(k) for all k in [0, period): the half table, then its
    mirror S(period - k) = conj S(k)."""
    half = half_table(atoms, period)
    return np.concatenate([half, half[1 : (period + 1) // 2][::-1].conj()])


def half_table(atoms, period):
    """S(k) for k in [0, period // 2] via one real-input FFT.

    The atoms are real positions, so the rest of the period is the mirror
    image S(period - k) = conj S(k).
    """
    check_length(period)
    ind = np.zeros(period)
    ind[np.asarray(atoms, dtype=np.int64)] = 1.0
    return np.fft.rfft(ind)


def check_length(n):
    """Refuse a transform or lattice of n > ``FFT_BUDGET`` points."""
    if n > FFT_BUDGET:
        raise SpectralError(f"transform length {n} exceeds the dense "
                            f"transform budget {FFT_BUDGET}")


def class_sums(atoms, n, B, c):
    """S(k) of period n at k = c + (n // B) m, m in [0, B), B dividing n:
    the FFT of the atoms aliased mod B, twiddled by e(a c / n) of exact
    residues. The four-step split of D. H. Bailey, "FFTs in external or
    hierarchical memory", J. Supercomputing 4, 1990."""
    x = np.zeros(B, dtype=np.complex128)
    np.add.at(x, atoms % B, _unit(_mulmod(atoms, c, n), n))
    return np.fft.fft(x)


# Cost of one direct-sum term in units of one point * log2 of the half
# table, its real-input FFT and the mirrored gather included. Measured on a
# 2-vCPU Xeon guest with numpy 2.4.6, periods 9^5 to 2^22 and 4096 to 2^20
# frequencies: 51-89 ns per direct term against 0.9-4.2 ns per point * log2
# (1.5-3.2 ns for a complex FFT table), a ratio of about 20 to 90. The low
# end, where the gather of period-many frequencies dominates, is taken; it
# leaves cases near the boundary to the direct sum.
_DIRECT_TERM_WEIGHT = 20


def _atom_sums(atoms, k, period):
    """S(k) at integer frequencies under one cost rule.

    An array of frequencies reads the dense table when the period fits
    ``FFT_BUDGET`` and one FFT, period * log2(period), costs no more than the
    |atoms| * |ks| terms of the direct sum, each weighted by
    ``_DIRECT_TERM_WEIGHT``. Everything else, scalar k included, takes the
    direct sum.
    """
    n_terms = np.size(atoms) * np.size(k)
    if (np.ndim(k) and period <= FFT_BUDGET
            and period * math.log2(period) <= _DIRECT_TERM_WEIGHT * n_terms):
        return _table_sums(atoms, k, period)
    return exp_sum(atoms, k, period)


def _subset_sums(atoms, sets, ks, period):
    """Row i is S(ks) over atoms[sets[i]], for a boolean (subsets, atoms)
    matrix ``sets``.

    With period <= |ks| the frequencies read each table at least once on
    average, and each subset goes through ``_atom_sums`` (at N0=3, j_max=6,
    c_eta=1, c_rot=0.25, seed 7 and ``construction.EXHAUSTIVE_BUDGET`` 4096,
    the route below took 18 s and the tables 2.7 s, on one BLAS thread).
    Otherwise every term is a product of per-atom factors
    e(x) = exp(-2 pi i x) of exact residues. On the leading run k < K0 of
    ks, k = hB + l with B about sqrt(K0), so each subset costs one matrix
    product of e(a hB / period) and e(a l / period). Every other k has three
    base-C digits, C^3 >= period, and the subsets share the products of
    their factors e(a d C^i / period). No atom-by-frequency array exceeds
    ``_CHUNK`` entries.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if period <= len(ks):
        out = np.empty((len(sets), len(ks)), dtype=np.complex128)
        for row, s in zip(out, sets):
            row[:] = _atom_sums(atoms[s], ks, period)
        return out
    residues = np.asarray(atoms, dtype=np.int64) % period
    run = int(np.argmin(np.append(ks == np.arange(len(ks)), False)))
    B = math.isqrt(max(run - 1, 0)) + 1
    H = -(-run // B)
    rest = ks[run:] % period
    C = round(period ** (1 / 3))
    C += C**3 < period
    digits = [np.unique(rest // C**i % C * C**i, return_inverse=True) for i in range(3)]
    out = np.zeros((len(sets), len(ks)), dtype=np.complex128)
    n_factors = H + B + sum(len(u) for u, _ in digits)
    step = max(1, _CHUNK // n_factors)
    for lo in range(0, len(residues), step):
        r, chosen = residues[lo : lo + step], sets[:, lo : lo + step]
        high = _unit(_mulmod(np.arange(H)[:, None] * B, r[None, :], period), period)
        low = _unit(_mulmod(r[:, None], np.arange(B)[None, :], period), period)
        for row, s in zip(out, chosen):
            row[:run] += (high[:, s] @ low[s]).ravel()[:run]
        factors = [(_unit(_mulmod(u[:, None], r[None, :], period), period), inv)
                   for u, inv in digits]
        weights = chosen.T.astype(np.complex128)
        cols = max(1, _CHUNK // len(r))
        for c in range(0, len(rest), cols):
            g = np.ones((min(cols, len(rest) - c), len(r)), dtype=np.complex128)
            for f, inv in factors:
                g *= f[inv[c : c + cols]]
            out[:, run + c : run + c + len(g)] += (g @ weights).T
    return out


def _unit(residues, period):
    """e(r / period) = exp(-2 pi i r / period) of exact residues r."""
    return np.exp(-2j * np.pi * residues / period)


def _table_sums(atoms, k, period):
    """S(k) read from the half table at k mod period, mirrored above period/2."""
    half = half_table(atoms, period)
    m = np.atleast_1d(np.asarray(k, dtype=np.int64)) % period
    mirrored = m > period // 2
    np.subtract(period, m, out=m, where=mirrored)
    s = half[m]
    np.negative(s.imag, out=s.imag, where=mirrored)
    return s[0] if np.ndim(k) == 0 else s


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
