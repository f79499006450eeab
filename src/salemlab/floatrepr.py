"""``repr`` of every value of a float64 array, computed in numpy, byte for byte.

Digits by Ryū (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018):
the shortest decimal that reads back as the value, the nearest if several
are, as CPython's dtoa picks; its 55 x 125-bit products run on 32-bit limbs.
Layout by CPython: fixed notation for decimal exponents -4..15, else
``d.ddde+XX``; ``.0`` on integral values; ``-0.0``, ``nan``, ``inf``. Each
value fills a row of ``WIDTH`` bytes whose non-NUL bytes spell it, its last
byte NUL; ``int_rows`` spells int64 values in rows of the same kind.
"""

import functools

import numpy as np

WIDTH = 48    # sign, 5 before, 17 digits each with a slot for the point, 5 after, 3 NUL
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
    if len(at := np.flatnonzero(q_exact.take(ie) >= 0)):
        p5, w, ok = _P5[q_exact[ie[at]]], mv[at], accept[at]
        div5 = w % _U(5) == 0
        vr_tz[at] = div5 & (w % p5 == 0)
        vm_tz[at] = ~div5 & ok & ((w - _U(1) - mm_shift[at]) % p5 == 0)
        vp[at] -= ~div5 & ~ok & ((w + _U(2)) % p5 == 0)
    # Ryū drops a digit while (vm, vp] holds a multiple of 10, then, where vm
    # is exact, while vm ends in 0: the d digits for which [vm, vp] holds a
    # multiple of 10^d, vm counting only if exact. Count them, divide once.
    lo, removed, d = vm - vm_tz, np.zeros(len(bits), np.intp), _U(10)
    while (more := vp // d > lo // d).any():
        removed += more
        d *= _U(10)
    p = _P10.take(removed)
    out = vr // p
    base = out * p
    half = (vr - base) * _U(2)           # the dropped digits, against p / 2
    down = (half < p) | ((half == p) & vr_tz & (out & _U(1) == 0))    # half to even
    # up where vm keeps out's digits but is not exact, or past half
    return out + ((vm > base) | ((vm == base) & ~vm_tz) | ~down), e10.take(ie) + removed


@functools.cache
def _layout():
    """Tables of 8-byte words: each four-digit group, a '.' after each digit;
    by E + 324 (E the scientific exponent; 309 inf, 310 nan, 311 zero), bytes
    1-5 (``0.000``, ``inf``), the last word (``e-XX``) and a key, (fixed E + 5,
    or 0, or 21: none) * 18; by key + digit count, or 396 + an int's, the mask
    of the five digit words, one zero digit after an integral's point."""
    quads = np.arange(10**4, dtype=np.int16)[:, None] // 10 ** np.arange(3, -1, -1, dtype=np.int16)
    quads = np.stack([quads % 10 + ord("0"), np.full_like(quads, ord("."))], -1)
    ends = np.frombuffer(b"".join(
        (("\0" + ("0." + "0" * (-1 - E) if -4 <= E < 0 else
                  {309: "inf", 310: "nan", 311: "0.0"}.get(E, ""))).ljust(8, "\0")
         + ("" if -4 <= E < 16 or E > 308 else f"e{E:+03d}").ljust(8, "\0")).encode()
        for E in range(-324, 312)), np.int64).reshape(-1, 2)
    E = np.arange(-324, 312)
    ends = np.column_stack([ends, np.where((E >= -4) & (E < 16), E + 5, (E > 308) * 21) * 18])
    E, nd, col = np.arange(-5, 16)[:, None], np.arange(18), np.arange(17)[:, None, None]
    whole = E >= 0
    shown = col < np.where(whole, np.maximum(nd, E + 2), nd)
    point = col == np.where(whole, E, np.where((E < -4) & (nd > 1), 0, -1))
    mask = np.stack([shown, point], axis=-1).transpose(1, 2, 0, 3).reshape(-1, 34)
    ints = (np.arange(40) % 2 == 0) & (np.arange(40) // 2 >= 20 - np.arange(20)[:, None])
    mask = np.concatenate([np.pad(mask, ((0, 18), (6, 0))), ints]) * np.uint8(255)
    return quads.astype(np.uint8).ravel().view(np.int64), ends, mask.view(np.int64)


def _digits(v, mask):
    """(len(v), 6) words: the 20 digits of each uint64 v, a '.' slot after
    each, ANDed with ``mask``, then a word of zeros."""
    q = np.stack([v // _P10[e] for e in range(16, -1, -4)], axis=1)   # four-digit groups
    q -= q // _U(10**4) * _U(10**4)
    q = _layout()[0].take(q.view(np.int64))
    q &= mask
    return np.concatenate([q, np.zeros_like(q[:, :1])], axis=1)


def float_rows(x) -> np.ndarray:
    """(len(x), WIDTH) uint8 rows whose non-NUL bytes spell repr of each x."""
    x = np.asarray(x, dtype=np.float64).ravel()
    finite, nan = np.isfinite(x), np.isnan(x)
    regular = finite & (x != 0)      # the others run as 1/3, a short digit loop
    sig, exp10 = _shortest(np.where(regular, x.view(_U) & _U(2**63 - 1), _U(0x3FD5555555555555)))
    nd = np.searchsorted(_P10[1:], sig, side="right") + 1
    E = np.where(regular, exp10 + nd - 1, 309 + nan + 2 * (x == 0))
    _, ends, mask = _layout()
    head, tail, key = ends.take(E + 324, axis=0).T
    rows = _digits(sig * _P10[17 - nd], mask.take(key + nd, axis=0))
    rows[:, 0] |= head | (np.signbit(x) & ~nan) * ord("-")
    rows[:, 5] = tail
    return rows.view(np.uint8)


def int_rows(k) -> np.ndarray:
    """(len(k), WIDTH) uint8 rows whose non-NUL bytes spell each int64 k."""
    k = np.asarray(k, dtype=np.int64).ravel()
    a = np.abs(k).view(_U)       # |-2^63| is 2^63 as a uint64
    rows = _digits(a, _layout()[2].take(397 + np.searchsorted(_P10[1:], a, side="right"), axis=0))
    rows[:, 0] |= (k < 0) * ord("-")
    return rows.view(np.uint8)
