"""``repr`` of every value of a float64 array, computed in numpy, byte for byte.

Digits by Ryū (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018):
the shortest decimal that reads back as the value, the nearest if several
are, as CPython's dtoa picks; its 55 x 125-bit products run on 32-bit limbs.
Layout by CPython: fixed notation for decimal exponents -4..15, else
``d.ddde+XX``; ``.0`` on integral values; ``-0.0``, ``nan``, ``inf``. Each
value fills a row of ``WIDTH`` bytes whose non-NUL bytes spell it.
"""

import functools

import numpy as np

WIDTH = 45    # sign, 5 before the digits, 17 digits each with a slot for the point, 5 after
_U = np.uint64
_P10 = 10 ** np.arange(20, dtype=_U)
_P5 = 5 ** np.arange(22, dtype=_U)


@functools.cache
def _ryu():
    """Ryū's constants by biased exponent: the 125-bit multiplier's 32-bit limbs
    (low first) and shift past 96 bits, the decimal exponent, the mask of the q
    low bits that an exact product below 2^54 clears (all ones where none is),
    q <= 1 there, and q where exactness needs 5^q (2^54 to 2^75), else -1."""
    e2 = np.maximum(np.arange(2048), 1) - 1077
    up, a = e2 >= 0, np.abs(e2)
    q = np.where(up, (a * 78913 >> 18) - (a > 3), (a * 732923 >> 20) - (a > 1))
    i = np.where(up, q, a - q)
    pow5bits = (i * 1217359 >> 19) + 1
    inv = [(1 << (5**q).bit_length() + 124) // 5**q + 1 for q in range(q.max() + 1)]
    pos = [(5**i << 125) >> (5**i).bit_length() for i in range(i.max() + 1)]
    mults = [inv[k] if u else pos[k] for u, k in zip(up, i)]
    limbs = np.array([[m >> 32 * k & 0xFFFFFFFF for m in mults] for k in range(4)], _U)
    shift = np.where(up, q - e2 + 124 + pow5bits, q - pow5bits + 125) - 96
    low = np.where(up | (q >= 63), 2**64 - 1, (1 << np.minimum(q, 62)) - 1)
    return (limbs, shift.astype(_U), np.where(up, q, q + e2),
            low.astype(_U), ~up & (q <= 1), np.where(up & (q <= 21), q, -1))


def _products(mv, mm_shift, mul, shift):
    """Ryū's vr, vp, vm = floor(a M / 2^(96 + shift)) at a = mv, mv + 2 and
    mv - 1 - mm_shift (mv < 2^55, M in 32-bit limbs): one product, then +-M
    added limb by limb, signed so that an arithmetic shift carries a borrow."""
    m, lo, t, r = 0xFFFFFFFF, mv & _U(0xFFFFFFFF), _U(0), []
    for w in mul:
        t = lo * w + (t >> _U(32))
        r.append((t & _U(m)).view(np.int64))
    r.append((t >> _U(32)).view(np.int64))
    hi, t, mul = (mv >> _U(32)).view(np.int64), 0, [w.view(np.int64) for w in mul]
    for k, w in enumerate(mul):
        t = hi * w + r[k + 1] + (t >> 32)
        r[k + 1] = t & m
    r[4], up = t.view(_U), _U(32) - shift      # the limbs above 128 bits, mod 2^64

    def at(d):
        t = 0
        for k, w in enumerate(mul):
            t = r[k] + d * w + (t >> 32)
        return (t & m).view(_U) >> shift | (r[4] + (t >> 32).view(_U)) << up
    return r[3].view(_U) >> shift | r[4] << up, at(2), at(-1 - mm_shift.view(np.int64))


def _shortest(bits):
    """(significand, decimal exponent) of the shortest round-trip decimal of
    each finite positive float64 bit pattern; Ryū's d2d step by step."""
    limbs, shift, e10, low, q_le_1, q_exact = _ryu()
    ie = (bits >> _U(52)).astype(np.intp)
    m2 = np.where(ie > 0, bits | _U(2**52), bits) & _U(2**53 - 1)
    mv, accept = m2 << _U(2), (m2 & _U(1)) == 0
    mm_shift = ((m2 != 2**52) | (ie <= 1)).astype(_U)
    vr, vp, vm = _products(mv, mm_shift, [w.take(ie) for w in limbs], shift.take(ie))
    # Is the product exact, its q low digits zero? (multipleOfPowerOf2 / 5)
    vr_tz = (mv & low.take(ie)) == 0
    vm_tz = accept & q_le_1.take(ie) & (mm_shift == 1)
    vp -= ~accept & q_le_1.take(ie)
    at = np.flatnonzero(q_exact.take(ie) >= 0)
    p5, w, ok = _P5[q_exact[ie[at]]], mv[at], accept[at]
    div5 = w % _U(5) == 0
    vr_tz[at] = div5 & (w % p5 == 0)
    vm_tz[at] = ~div5 & ok & ((w - _U(1) - mm_shift[at]) % p5 == 0)
    vp[at] -= ~div5 & ~ok & ((w + _U(2)) % p5 == 0)
    removed, last = np.zeros(len(bits), np.int64), np.zeros(len(bits), _U)
    # drop digits while the interval holds a shorter decimal, then an exact vm's zeros
    for stop in (lambda i: vp[i] // _U(10) <= vm[i] // _U(10),
                 lambda i: ~vm_tz[i] | (vm[i] // _U(10) * _U(10) != vm[i])):
        live = np.flatnonzero(~stop(slice(None)))
        while live.size:
            r, m = vr[live], vm[live]
            vr[live], vp[live], vm[live] = r // _U(10), vp[live] // _U(10), m // _U(10)
            vm_tz[live] &= vm[live] * _U(10) == m
            vr_tz[live] &= last[live] == 0
            last[live] = r - vr[live] * _U(10)
            removed[live] += 1
            live = live[~stop(live)]
    last[vr_tz & (last == 5) & (vr & _U(1) == 0)] = 4     # round half to even
    return vr + (((vr == vm) & ~(accept & vm_tz)) | (last >= 5)), e10.take(ie) + removed


@functools.cache
def _layout():
    """The layout as tables: each four-digit group, a '.' after each digit; by
    scientific exponent E + 324, 5 slots before the digits (``0.000``, ``inf``)
    and 5 after (``e-XX``); by key (fixed E + 5, or 0) * 18 + digit count, the
    mask of the digits and point shown, one zero digit after an integral's point."""
    quads = np.arange(10**4, dtype=np.int16)[:, None] // 10 ** np.arange(3, -1, -1, dtype=np.int16)
    quads = np.stack([quads % 10 + ord("0"), np.full_like(quads, ord("."))], -1)
    ends = np.frombuffer(b"".join(
        (("0." + "0" * (-1 - E) if -4 <= E < 0 else {309: "inf", 310: "nan"}.get(E, ""))
         .ljust(5, "\0") + ("" if -4 <= E < 16 or E > 308 else f"e{E:+03d}").ljust(5, "\0"))
        .encode() for E in range(-324, 311)), np.uint8).reshape(-1, 10)
    E, nd, col = np.arange(-5, 16)[:, None], np.arange(18), np.arange(17)[:, None, None]
    whole = E >= 0
    shown = col < np.where(whole, np.maximum(nd, E + 2), nd)
    point = col == np.where(whole, E, np.where((E < -4) & (nd > 1), 0, -1))
    mask = np.stack([shown, point], axis=-1).transpose(1, 2, 0, 3).reshape(-1, 34)
    return quads.astype(np.uint8).ravel().view(_U), ends, mask * np.uint8(255)


def float_rows(x) -> np.ndarray:
    """(len(x), WIDTH) uint8 rows whose non-NUL bytes spell repr of each x."""
    x = np.asarray(x, dtype=np.float64).ravel()
    finite, nan = np.isfinite(x), np.isnan(x)
    regular = finite & (x != 0)      # the others run as 1/3, a short digit loop
    sig, exp10 = _shortest(np.where(regular, x.view(_U) & _U(2**63 - 1), _U(0x3FD5555555555555)))
    sig[~regular] = 0
    nd = np.where(finite, np.maximum(np.searchsorted(_P10, sig, side="right"), 1), 0)
    E = np.where(regular, exp10 + nd - 1, np.where(finite, 0, 309 + nan))  # 309 inf, 310 nan
    quads, ends, mask = _layout()
    key = np.where((E >= -4) & (E < 16), E + 5, 0) * 18 + nd
    groups, v = np.empty((len(x), 5), _U), sig * _P10[17 - nd]
    for k in range(4, -1, -1):
        v, r = v // _U(10**4), v
        groups[:, k] = quads.take((r - v * _U(10**4)).view(np.int64))
    rows = np.empty((len(x), WIDTH), np.uint8)
    rows[:, 0] = (np.signbit(x) & ~nan) * np.uint8(ord("-"))
    rows[:, 1:6], rows[:, 40:] = np.split(ends.take(E + 324, axis=0), [5], axis=1)
    rows[:, 6:40] = groups.view(np.uint8)[:, 6:] & mask.take(key, axis=0)
    return rows
