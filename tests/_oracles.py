"""Independent reference computations that the tests compare the package
against; nothing in salemlab calls them."""

from collections import Counter
from itertools import product

import numpy as np

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
