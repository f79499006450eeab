"""Independent reference computations that the tests compare the package
against; nothing in salemlab calls them."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

from salemlab.norms import _EM_START, _HEAD_PERIODS, _hurwitz
from salemlab.spectral import restricted_atoms


def brute_force_energy(Y, r: int) -> int:
    """Independent enumeration of 2r-tuples with equal r-fold sums."""
    counts = Counter(sum(tup) for tup in product(list(Y), repeat=r))
    return sum(c * c for c in counts.values())


def loop_counts(Y, r: int) -> np.ndarray:
    """r-fold sum counts over Y, from r * min(Y) on, by adding one shifted
    copy of the whole count array per element of Y."""
    Y0 = np.unique(np.asarray(Y, dtype=np.int64))
    Y0 -= Y0[0]
    top = int(Y0.max())
    g = np.ones(1, dtype=np.int64)
    width = 0
    for _ in range(r):
        new = np.zeros(width + top + 1, dtype=np.int64)
        for y in Y0:
            new[y : y + width + 1] += g
        g, width = new, width + top
    return g


def point_weights(i, n_per: int, p: float, folded: bool):
    """Head and tail lattice weights of the samples eta = i / n_per, each
    summed at its own eta: (eta + m)^-p term by term for 1 <= m < _EM_START,
    then zeta(p, eta + _EM_START) - zeta(p, eta + _HEAD_PERIODS) for the head
    and zeta(p, eta + _HEAD_PERIODS) for the tail, all scaled by
    (|sin(pi eta)| / pi)^p, plus (|sin(pi eta)| / (pi eta))^p in the head;
    ``folded`` adds the mirror 1 - eta."""
    amp = np.abs(np.sin(np.pi * (np.minimum(i, n_per - i) / n_per))) / math.pi
    near, h, t = np.zeros(len(i)), np.zeros(len(i)), np.zeros(len(i))
    for eta in (i / n_per, (n_per - i) / n_per)[: 1 + folded]:
        near += (amp / eta) ** p
        for m in range(1, _EM_START):
            h += (eta + m) ** -p
        beyond = _hurwitz(p, eta + _HEAD_PERIODS)
        h += _hurwitz(p, eta + _EM_START) - beyond
        t += beyond
    scale = amp**p
    return h * scale + near, t * scale


def f_mu_hat_real(params, level, ell: int, xi):
    """Closed sinc-form transform of the structured-window weighted measure
    at arbitrary real frequency xi."""
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


def dense_ball_scan(params, level) -> dict:
    """The ball-condition report from a count of every N-adic cell at each
    scale m (N^m entries) and of every width-2 window of adjacent cells. A
    witness is the first m at its supremum, with the first cell there, or
    the first occupied start of a window as full as any (a window at an
    empty cell holds no more than the one after it)."""
    j, N, t = level.j, params.N, params.t
    per_scale, sup_adic, sup_window = [], Fraction(0), 0.0
    adic_at = window_at = None
    for m in range(j + 1):
        counts = np.bincount(level.atoms // N ** (j - m), minlength=N**m)
        top = int(counts.max())
        ratio = Fraction(top * t**m, t**j)
        if ratio > sup_adic:
            sup_adic, adic_at = ratio, {"m": m, "cell": int(counts.argmax())}
        window_counts = counts[:-1] + counts[1:] if m >= 1 else counts
        wtop = int(window_counts.max()) if len(window_counts) else top
        wratio = float(Fraction(wtop * t**m, t**j)) / 2.0**params.alpha
        if wratio > sup_window:
            every = counts + np.append(counts[1:], 0)
            start = np.flatnonzero((every == wtop) & (counts > 0))[0]
            sup_window, window_at = wratio, {"m": m, "start": int(start)}
        per_scale.append({"m": m, "adic_ratio": float(ratio),
                          "window_ratio": wratio})
    return {"j": j, "sup_adic_ratio": float(sup_adic),
            "sup_adic_exact_one": sup_adic == 1, "sup_adic_witness": adic_at,
            "sup_window_ratio": sup_window, "sup_window_witness": window_at,
            "per_scale": per_scale}
