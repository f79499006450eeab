"""Exponential sums over integer atoms.

S(k) = sum over atoms a of w_a exp(-2 pi i a k / period) at integer k, with
real weights w (1 unless given; weighted atoms may repeat), summed directly
with exact residues (``exp_sum``) or read from the tables of the residue
classes k = c + M m, m < B, of P = B M (``split``, B <= ``BLOCK``), each one
length-B FFT (``class_sums``, the one table kernel; M = 1 is the one class
c = 0, the whole period). As S(P - k) = conj S(k), the classes c <= M/2
decide every k (``half_classes``, the one iterator over a whole period). An
array of k is folded and split into them once (``Frequencies``) and reads
them one at a time, for as many atom sets as share it; ``gather`` is one
such read.
Digit sets of one atom list at the same frequencies take one factored
evaluator (``_subset_sums``): a row folds in a last digit d, summing the
points a n + d at period n * period as its digit sets twisted by
e(dk / (n period)).
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
# (1 MB of complex128).
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


def exp_sum_all(atoms, period):
    """S(k) for every k in [0, period), read class by class (``gather``)."""
    split(period)   # refuses a period above FFT_BUDGET before anything is built
    return gather(atoms, np.arange(period, dtype=np.int64), period)


def split(n):
    """(B, M), n = B M with B the largest divisor of n at most ``BLOCK``,
    for a table or lattice of n points; n > ``FFT_BUDGET`` is refused."""
    if n > FFT_BUDGET:
        raise SpectralError(f"transform length {n} exceeds the dense "
                            f"transform budget {FFT_BUDGET}")
    B = next(d for d in range(min(n, BLOCK), 0, -1) if n % d == 0)
    return B, n // B


def class_sums(atoms, n, B, c, *, weights=1.0):
    """S(k) of period n at k = c + (n // B) m, m < B: the FFT of the weighted
    atoms aliased mod B, twiddled by e(a c / n) of exact residues (the
    four-step split of D. H. Bailey, J. Supercomputing 4, 1990)."""
    x = np.zeros(B, dtype=np.complex128)
    np.add.at(x, atoms % B, _unit(_mulmod(atoms, c, n), n) * weights)
    return np.fft.fft(x)


def half_classes(period):
    """(ks, sums, mirrored), sums(atoms, weights=w) = S(ks), per class
    c <= M/2 of ``split(period)`` (M = 1: c = 0 and ks = [0, period));
    together they decide every k. ``mirrored`` is 0 < 2c < M: the class also
    stands for its mirror M - c, whose sums are the conjugates."""
    B, M = split(period)
    for c in range(M // 2 + 1):
        ks = c + M * np.arange(B, dtype=np.int64)
        yield ks, lambda atoms, c=c, *, weights=1.0: class_sums(
            atoms, period, B, c, weights=weights), 0 < 2 * c < M


class Frequencies:
    """One array of integer frequencies k at one period, folded and split
    once for any atoms summed at them (``sums``).

    k reads its twin period - k, conjugated, when its class c of
    ``split(period)`` exceeds M/2, or when c is 0 or M/2 (each its own
    mirror) and k > period / 2. Per class met, in increasing c, the plan
    holds the int32 positions of its k in the array, their int32 rows in the
    class table and the mirror mask: 9 bytes per frequency. A period above
    ``FFT_BUDGET`` builds no table: its one "class" is the direct sum at
    every k, in the order of the array.
    """

    def __init__(self, k, period):
        self.ks = np.asarray(k, dtype=np.int64)
        self.period = period
        if period > FFT_BUDGET:
            self.B = None
            at = np.arange(len(self.ks), dtype=np.int32)
            self._classes = [(None, at, at, np.zeros(len(at), dtype=bool))]
            return
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

    def sums(self, atoms, *, weights=1.0):
        """(positions, S(k) at them) in blocks of at most ``BLOCK``
        frequencies, class by class, read from the class's table
        (``class_sums``) and conjugated where mirrored."""
        residues = np.asarray(atoms, dtype=np.int64) % self.period
        for c, at, rows, flip in self._classes:
            if c is None:
                table = exp_sum(atoms, self.ks, self.period, weights=weights)
            else:
                table = class_sums(residues, self.period, self.B, c, weights=weights)
            for lo in range(0, len(at), BLOCK):
                s = table[rows[lo : lo + BLOCK]]
                np.negative(s.imag, out=s.imag, where=flip[lo : lo + BLOCK])
                yield at[lo : lo + BLOCK], s

    def gather(self, atoms, *, weights=1.0):
        """S(k) at every k of the plan, in the order of its array."""
        s = np.empty(len(self), dtype=np.complex128)
        for at, sums in self.sums(atoms, weights=weights):
            s[at] = sums
        return s


def gather(atoms, k, period, *, weights=1.0):
    """S(k) at integer k: a scalar k by the direct sum, an array through its
    plan (``Frequencies``), from the table of each class it meets."""
    if np.ndim(k) == 0:
        return exp_sum(atoms, k, period, weights=weights)
    return Frequencies(k, period).gather(atoms, weights=weights)


def _subset_sums(atoms, sets, ks, period):
    """Row i is S(ks) at period n * period over the points a n + d with a in
    atoms[sets[i, d]], for a boolean (rows, n, atoms) array ``sets``.

    As e((a n + d) k / (n period)) = e(a k / period) e(d k / (n period)),
    digit set d is summed at ``period`` and twisted by e(d k / (n period))
    as it is added: a row holds one result for all its digit sets, and no
    point pays its own exponentials. Every term is a product of per-atom
    and per-digit factors e(x) = exp(-2 pi i x) of exact residues. On the
    leading run k = k0 + hB + l < k0 + K0 of ks, B about sqrt(K0), a row
    costs one matrix product of the factors e(a (k0 + hB) / period) and
    e(a l / period) of its points (``_progression``), the first twisted by
    the H-vector e(d (k0 + hB) / (n period)) of each point's digit, the
    second by the B-vector e(d l / (n period)). Every other k has three
    base-C digits, C^3 >= period: one matrix product sums the digit sets
    over the products of their factors e(a d C^i / period), and each row
    adds them twisted by w^d, one running product per frequency. A slice of
    atoms holds its run factors and those one row gathers from them in at
    most ``_CHUNK`` / 2 entries (and a gathered twist beside them), its
    other factors in ``_CHUNK``, and a block of the other k holds the
    product of those factors, the factor gathered into it and the digit
    sets' sums in ``_CHUNK``.
    """
    ks = np.asarray(ks, dtype=np.int64)
    sets = np.asarray(sets, dtype=bool)
    n = sets.shape[1]
    full = n * period
    out = np.zeros((len(sets), len(ks)), dtype=np.complex128)
    residues = np.asarray(atoms, dtype=np.int64) % period
    run = int(np.argmin(np.append(ks - np.arange(len(ks)) == ks[:1], False)))
    B = math.isqrt(max(run - 1, 0)) + 1
    H = -(-run // B)
    k0 = ks[0] if run else 0
    if n > 1:
        twist_high = _progression(np.arange(n), k0, B, H, full).T
        twist_low = _progression(np.arange(n), 0, 1, B, full)
        w = _unit(ks[run:] % full, full)

    # a row gathers an atom's run factors once per digit set it is in
    per_atom = int(sets.sum(axis=1).max(initial=0))
    step = max(1, _CHUNK // (2 * (H + B) * (1 + per_atom)))
    # every row and slice gathers into the same work arrays: temporaries
    # of this size, allocated per row, go back to the system and are
    # faulted in again (60k minor faults at deep's level 6 in a fresh
    # process, against 11k with the work arrays)
    work = np.empty((3, max(H, B) * per_atom * min(step, len(residues))),
                    dtype=np.complex128)
    product = np.empty((H, B), dtype=np.complex128)

    def gathered(table, index, axis, slot):
        # the rows (axis 0) or columns (axis 1) of table at index, in work[slot]
        shape = list(table.shape)
        shape[axis] = len(index)
        return np.take(table, index, axis=axis, mode="clip",
                       out=work[slot, : shape[0] * shape[1]].reshape(shape))

    def run_sums(high, low, row):
        # the run's sums of one row over a slice of atoms, in product
        d, a = np.nonzero(row)
        if len(a) == len(low) and not d.any():     # every atom, untwisted
            return np.matmul(high, low, out=product).ravel()[:run]
        left, right = gathered(high, a, 1, 0), gathered(low, a, 0, 1)
        if d.any():
            left *= gathered(twist_high, d, 1, 2)
            right *= gathered(twist_low, d, 0, 2)
        return np.matmul(left, right, out=product).ravel()[:run]

    for lo in range(0, len(residues), step):
        r = residues[lo : lo + step]
        high = _progression(r, k0, B, H, period).T
        low = _progression(r, 0, 1, B, period)
        for i, row in enumerate(sets[:, :, lo : lo + step]):
            out[i, :run] += run_sums(high, low, row)

    rest = ks[run:] % period
    if not len(rest):
        return out
    C = round(period ** (1 / 3))
    C += C**3 < period
    digits = [np.unique(rest // C**i % C * C**i, return_inverse=True) for i in range(3)]
    # the digit sets summed there, row by row, each row's from its digit 0
    pairs = sets.any(axis=2)
    pairs[:, 0] = True
    digit = np.nonzero(pairs)[1]
    first = np.flatnonzero(digit == 0)

    def add_rest(r, chosen):
        # the sums at the other k over a slice of atoms, block by block
        factors = [(_unit(_mulmod(u[:, None], r[None, :], period), period), inv)
                   for u, inv in digits]
        weights = chosen[pairs].T.astype(np.complex128)
        cols = max(1, _CHUNK // (2 * len(r) + len(digit)))
        for c in range(0, len(rest), cols):
            (f, inv), *others = factors
            g = f[inv[c : c + cols]]
            for f, inv in others:
                g *= f[inv[c : c + cols]]
            sums = g @ weights
            if n > 1:
                powers = np.empty((len(g), n), dtype=np.complex128)
                powers[:, 0] = 1
                powers[:, 1:] = w[c : c + len(g), None]
                np.cumprod(powers, axis=1, out=powers)
                sums *= powers[:, digit]
                sums = np.add.reduceat(sums, first, axis=1)
            out[:, run + c : run + c + len(g)] += sums.T

    step = max(1, _CHUNK // sum(len(u) for u, _ in digits))
    for lo in range(0, len(residues), step):
        add_rest(residues[lo : lo + step], sets[:, :, lo : lo + step])
    return out


def _progression(r, start, step, count, period):
    """e(r (start + i step) / period) for residues r (rows) and i < count
    (columns): with i = D i1 + i0, D about sqrt(count), the product of the
    factors e(r (start + i0 step) / period) and e(r D i1 step / period) of
    exact residues, about 2 sqrt(count) exponentials per residue."""
    D = math.isqrt(max(count - 1, 0)) + 1
    fine = _unit(_mulmod(r[:, None], np.arange(D) * step % period, period), period)
    fine *= _unit(_mulmod(r, start % period, period), period)[:, None]
    coarse = np.arange(-(-count // D)) * (D * step) % period
    coarse = _unit(_mulmod(r[:, None], coarse, period), period)
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(r), -1)[:, :count]


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
