"""Exponential sums over integer atoms.

S(k) = sum over atoms a of w_a exp(-2 pi i a k / period) at integer k, with
real weights w (1 unless given; weighted atoms may repeat). Each kind of
input has one reader: a scalar k the direct sum with exact residues
(``exp_sum``); a whole period the classes c <= M/2 (``half_classes``) of its
residue classes k = c + M m, m < B, of P = B M (``split``, B <= ``BLOCK``),
each one length-B FFT (``class_sums``, the one table kernel), which decide
every k as S(P - k) = conj S(k); every k < n one pass of them (``exp_sum_all``);
the trivial bound's arrays of k their plans (``Frequencies``). Each pass scatters
into one length-B array of its own, transformed in place: a table is valid
until the next table of its pass. ``split`` refuses a period above ``FFT_BUDGET``.
"""

from __future__ import annotations

import numpy as np


class SpectralError(RuntimeError):
    pass


# Longest dense transform, in points, of any table or lattice; a longer one
# is a SpectralError. Read as ``expsums.FFT_BUDGET`` everywhere, so that one
# assignment lowers it.
FFT_BUDGET = 2**26

# Entries of one atom-by-frequency array in ``exp_sum`` (1 MB of complex128).
_CHUNK = 2**16

# Most frequencies per residue class (256 KB of complex128, so that a class's
# FFT runs in cache); read at call time.
BLOCK = 2**14


def exp_sum(atoms, k, period, *, weights=1.0):
    """S(k) = sum over atoms of w_a exp(-2 pi i a k / period), summed directly
    at the given k (scalar or array), with the residues a * k mod period
    exact in int64; ``weights`` w is a scalar or one float per atom."""
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
        terms = _unit(_mulmod(residues[:, None], kc[None, :], period), period)
        if np.ndim(weights) or weights != 1:    # so unit weights keep every bit
            terms *= np.reshape(weights, (-1, 1))
        out[lo : lo + n] = terms.sum(axis=0)[:n]
    return out[0] if np.ndim(k) == 0 else out


def exp_sum_all(atoms, period, n):
    """S(k) for every k in [0, n), from one pass of ``half_classes``: each
    class writes its table at its k < n and, conjugated, at their twins
    period - k < n; a class c = 0 or M/2 only its k <= period / 2, after the
    twins, as a plan (``Frequencies``) reads them. Past the period S repeats."""
    top, M = min(n, period), split(period)[1]     # refuses before any array
    out = np.empty(n, dtype=np.complex128)
    residues = np.asarray(atoms, dtype=np.int64) % period
    for ks, sums, mirrored in half_classes(period):
        half = ks if mirrored else ks[2 * ks <= period]
        own, twin = half[half < top], half[half > period - top]
        if len(own) or len(twin):
            s = sums(residues)
            out[period - twin] = s[twin // M].conj()
            out[own] = s[own // M]
    if n > period:
        whole = out[: n - n % period].reshape(-1, period)
        whole[1:] = whole[0]
        out[len(whole) * period :] = out[: n % period]
    return out


def split(n):
    """(B, M), n = B M with B the largest divisor of n at most ``BLOCK``,
    for a table or lattice of n points; n > ``FFT_BUDGET`` is refused."""
    if n > FFT_BUDGET:
        raise SpectralError(f"transform length {n} exceeds the dense "
                            f"transform budget {FFT_BUDGET}")
    B = next(d for d in range(min(n, BLOCK), 0, -1) if n % d == 0)
    return B, n // B


def class_sums(atoms, n, x, c, *, weights=1.0, masks=None):
    """S(k) of period n at k = c + (n // B) m, m < B = len(x): the FFT, in
    place in the scatter array x, of the weighted atoms aliased mod B and
    twiddled by e(a c / n) of exact residues (the four-step split of D. H.
    Bailey, J. Supercomputing 4, 1990). With ``masks``, one table per mask
    of the atoms, lazily, each scattering its slice of the same twiddles."""
    terms, rows = _unit(_mulmod(atoms, c, n), n) * weights, atoms % len(x)

    def table(at):
        x.fill(0)
        np.add.at(x, rows[at], terms[at])
        return np.fft.fft(x, out=x)
    return table(slice(None)) if masks is None else map(table, masks)


def half_classes(period):
    """(ks, sums, mirrored), sums(atoms, weights=w, masks=m) = S(ks) by
    ``class_sums``, per class c <= M/2 of ``split(period)`` (M = 1: c = 0,
    ks = [0, period)); together they decide every k. ``mirrored`` is 0 < 2c
    < M: the class also stands for its mirror M - c, of conjugate sums."""
    B, M = split(period)
    x = np.empty(B, dtype=np.complex128)
    for c in range(M // 2 + 1):
        ks = c + M * np.arange(B, dtype=np.int64)
        yield ks, lambda atoms, c=c, *, weights=1.0, masks=None: class_sums(
            atoms, period, x, c, weights=weights, masks=masks), 0 < 2 * c < M


class Frequencies:
    """One array of integer frequencies k at one period, folded and split
    once for any atoms summed at them (``sums``).

    k reads its twin period - k, conjugated, when its class c of
    ``split(period)`` exceeds M/2, or when c is 0 or M/2 (each its own
    mirror) and k > period / 2. Per class met, in increasing c, the plan
    holds the int32 positions of its k in the array, their int32 rows in the
    class table and the mirror mask: 9 bytes per frequency. A period above
    ``FFT_BUDGET`` is a SpectralError (``split``).
    """

    def __init__(self, k, period):
        self.ks = np.asarray(k, dtype=np.int64)
        self.period = period
        self.B, M = split(period)
        m = self.ks % period
        c = m % M
        mirrored = 2 * c % M == 0
        mirrored &= m > period // 2
        mirrored |= 2 * c > M
        np.subtract(period, m, out=m, where=mirrored)
        np.remainder(m, M, out=c)
        counts = np.bincount(c, minlength=M)
        order = np.argsort(c, kind="stable")
        del c
        np.floor_divide(m, M, out=m)
        rows = m.astype(np.int32)[order]
        flip = mirrored[order]
        del m, mirrored
        order = order.astype(np.int32)
        self._classes = []
        lo = 0
        for c in np.flatnonzero(counts):
            hi = lo + counts[c]
            self._classes.append((c, order[lo:hi], rows[lo:hi], flip[lo:hi]))
            lo = hi

    def __len__(self):
        return len(self.ks)

    def sums(self, atoms):
        """(positions, S(k) at them) in blocks of at most ``BLOCK``
        frequencies, class by class, read from the class's table
        (``class_sums``) and conjugated where mirrored."""
        residues = np.asarray(atoms, dtype=np.int64) % self.period
        x = np.empty(self.B, dtype=np.complex128)
        for c, at, rows, flip in self._classes:
            table = class_sums(residues, self.period, x, c)
            for lo in range(0, len(at), BLOCK):
                s = table[rows[lo : lo + BLOCK]]
                np.negative(s.imag, out=s.imag, where=flip[lo : lo + BLOCK])
                yield at[lo : lo + BLOCK], s


def sorted_unique(values):
    """The sorted distinct values, as ``np.unique(values)``, from a sort and
    a neighbour mask: numpy 2.x builds a values-only unique on a hash table,
    which on verify's 72k int64 frequencies raised a process's peak RSS by
    3.75 MB, where the sort's 1.2 MB of temporaries raised none."""
    values = np.sort(values, axis=None)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _unit(residues, period):
    """e(r / period) = exp(-2 pi i r / period) of exact residues r."""
    z = -2j * np.pi * residues
    z /= period
    return np.exp(z, out=z)


def _mulmod(a, b, period):
    """a * b mod period, exact in int64 for residues a, b in [0, period).

    Below 2^31.5 the plain product fits in 63 bits. Above it, b is consumed
    w bits at a time by Horner's rule, with w = 63 - bitlength(period) so
    that neither r * 2^w nor a * (w-bit chunk) leaves int64.
    """
    period = int(period)
    if (period - 1) ** 2 < 2**63:
        out = a * b
        out %= period
        return out
    bits = period.bit_length()
    if bits > 62:
        raise SpectralError(f"period {period} needs more than 62 bits")
    w = 63 - bits
    mask = (1 << w) - 1
    out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.int64)
    for shift in range((bits - 1) // w * w, -1, -w):
        out = ((out << w) % period + (a * ((b >> shift) & mask)) % period) % period
    return out
