"""Level-by-level construction of the random Cantor digit sets.

Atoms at level j are exact integers in [0, N^j); the integer a encodes the
point a / N^j. The structured sublist of each level iterates an arithmetic
progression, so it follows from the params alone (``structured_atoms``), and
the random part of the construction is verified against explicit deviation
thresholds with retry on failure. Every check decides every integer
frequency: a rotation draw is read at each residue, or accepted unread where
the triangle bound keeps every sum below its threshold; a base block is read
on a grid whose maximum bounds every frequency (Bernstein's inequality), and
at each residue only where the grid cannot decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expsums
from .expsums import _unit, half_classes
from .params import ConstructionParams, make_progression

# Draws per base block or level, read at call time.
MAX_RETRIES = 64


class ConstructionError(RuntimeError):
    """Verification-and-retry exhausted or an internal invariant broke."""


@dataclass
class LevelSet:
    j: int
    atoms: np.ndarray        # sorted int64, values in [0, N^j)


@dataclass
class Construction:
    params: ConstructionParams
    levels: list[LevelSet]
    audit: list[dict] = field(default_factory=list)
    level_sha256: dict = field(default_factory=dict)   # as the manifest records


# ---------------------------------------------------------------------------
# deviation scans

def _scan(blocks, limits):
    """Both deviation checks: (largest magnitude per window, None) over ``blocks``
    of (ks, one magnitude array per window), or (None, (magnitude, limit, k,
    window)) at the first block and window whose magnitude reaches its limit."""
    peaks = [0.0] * len(limits)
    for kb, mags in blocks:
        for w, mag in enumerate(mags):
            i = int(mag.argmax())
            if mag[i] >= limits[w]:
                return None, (mag[i], limits[w], int(kb[i]), w)
            peaks[w] = max(peaks[w], mag[i])
    return peaks, None


# ---------------------------------------------------------------------------
# base blocks

def deviation_measure(params: ConstructionParams, parents, kept):
    """(points, weights): +1/t on each point of ``kept``, -1/N on every child
    aN + d, d < N, of each of ``parents``. At period P = N^(j+1), parents
    below Q = N^j, its sum is the deviation of ``kept`` from the uniform
    refinement of ``parents``, S_P(kept)(k)/t - U(k)/N * S_Q(parents)(k),
    as U(k) S_Q(parents)(k) = sum_{a,d} e((aN + d)k/P), U(k) = S_[N](k)."""
    N = params.N
    children = (np.asarray(parents, dtype=np.int64)[:, None] * N + np.arange(N)).ravel()
    weights = np.concatenate([np.full(len(kept), 1 / params.t),
                              np.full(len(children), -1 / N)])
    return np.concatenate([np.asarray(kept, dtype=np.int64), children]), weights


def block_deviations(members, ks, period, N, t) -> np.ndarray:
    """Matrix D[x, i] = S_{B_x}(k_i)/t - S_{[N]}(k_i)/N for every rotation
    B_x = members + x mod N: one product of the N x N rotation matrix, 1/t
    on B_x less 1/N everywhere, with the powers w^d, d < N, of
    w = e(k/period) of exact residues."""
    x = np.arange(N)[:, None]
    rotations = np.full((N, N), -1 / N)
    rotations[x, (x + np.asarray(members, dtype=np.int64)) % N] += 1 / t
    w = _unit(np.asarray(ks, dtype=np.int64) % period, period)
    powers = np.empty((N, len(w)), dtype=np.complex128)
    powers[0] = 1
    for d in range(1, N):
        np.multiply(powers[d - 1], w, out=powers[d])
    return rotations @ powers


def _fix_cardinality(members: set[int], t: int, N: int) -> list[int]:
    # deterministic: drop largest surplus members, add smallest absent ones
    members = set(members)
    while len(members) > t:
        members.discard(max(members))
    absent = (m for m in range(N) if m not in members)
    while len(members) < t:
        members.add(next(absent))
    return sorted(members)


def build_base_block(params: ConstructionParams, j: int, rng) -> tuple[list[int], dict]:
    """Digit block for level j+1, verified against the deviation threshold
    at every integer k: (members, audit fields), the fields ``mode``, ``eta``,
    ``block_verified_k``, ``block_retries`` (draws rejected before the kept
    one), and ``block_margin`` <= the kept draw's max deviation over eta/2
    <= ``block_margin_bound``.

    When eta_j >= 2 every deviation term is trivially within bounds and a
    deterministic block (progression plus smallest fillers) is returned.
    Otherwise D_x(k) = S_{B_x}(k)/t - S_[N](k)/N is a polynomial of degree
    N - 1 in e(k/P), so by Bernstein's inequality |D_x| at any real k is at
    most its maximum on the grid k = iP/K over 1 - pi(N - 1)/K, K the least
    power of N at least 64N (or P). A check reads the half grid
    (|D(P - k)| = |D(k)|): a breach rejects, a maximum below limit
    (1 - pi(N - 1)/K) accepts, and in between the half period [0, P/2] is
    read, which a period above ``expsums.FFT_BUDGET`` refuses.
    """
    if j < 1:
        raise ValueError(f"base blocks exist for j >= 1, got {j}")
    N, t = params.N, params.t
    eta = params.eta(j)
    if eta >= 2:
        return _fix_cardinality(set(make_progression(params)), t, N), {
            "mode": "trivial", "eta": eta, "block_verified_k": 0, "block_margin": None,
            "block_margin_bound": None, "block_retries": 0}

    period = N ** (j + 1)
    K = N
    while K < 64 * N and K < period:
        K *= N
    certified = 1 - np.pi * (N - 1) / K if K < period else 1.0
    step = max(1, expsums.BLOCK // N)

    def read(members, n, stride, limit):
        # deviation matrices of about BLOCK entries at k = stride * i, i < n,
        # read as max_x |D_x(k)|
        kbs = (stride * np.arange(lo, min(lo + step, n)) for lo in range(0, n, step))
        return _scan(((kb, [np.abs(block_deviations(members, kb, period, N, t)).max(axis=0)])
                      for kb in kbs), [limit])

    def check(members, limit):
        # (peaks, breach, factor) of the half grid, or of the half period
        # where the grid cannot decide: max_k |D_x(k)| <= peaks[0] / factor
        peaks, breach = read(members, K // 2 + 1, period // K, limit)
        if breach is not None or peaks[0] < limit * certified:
            return peaks, breach, certified
        expsums.split(period)   # a band read above the budget is refused
        return *read(members, period // 2 + 1, 1, limit), 1.0

    p = t / N
    rejected = None
    for attempt in range(MAX_RETRIES):
        draw = np.flatnonzero(rng.random(N) < p)
        if len(draw) == 0:
            continue
        peaks, rejected, factor = check(draw, eta / 2)
        if rejected is not None:
            continue
        members = _fix_cardinality(set(int(m) for m in draw), t, N)
        broken = check(members, eta)[1]
        if broken is not None:
            raise ConstructionError(
                "deviation {:.4g} >= eta={:.4g} at k={} after cardinality fix "
                "at j={}".format(*broken[:3], j))
        margin = float(peaks[0] / (eta / 2))
        return members, {
            "mode": "exhaustive", "eta": eta, "block_verified_k": N * period,
            "block_margin": margin, "block_margin_bound": margin / factor,
            "block_retries": attempt}
    if rejected is None:
        raise ConstructionError(f"base block retries exhausted at j={j}: no draw had members")
    raise ConstructionError("base block retries exhausted at j={}: deviation {:.4g} >= {:.4g} "
                            "at k={}".format(j, *rejected[:3]))


# ---------------------------------------------------------------------------
# rotations

def structured_atoms(params: ConstructionParams, j: int) -> np.ndarray:
    """The structured sublist of level j, sorted: the progression iterated
    over j digits, i.e. every j-digit base-N number with all digits in P."""
    out = np.zeros(1, dtype=np.int64)
    progression = np.array(make_progression(params), dtype=np.int64)
    for _ in range(j):
        out = (out[:, None] * params.N + progression[None, :]).ravel()
    return out


def structured_mask(params: ConstructionParams, level: LevelSet, ell: int) -> np.ndarray:
    """Boolean mask of the level's atoms whose top ell digits all lie in the
    progression, i.e. whose top-ell digit prefix is structured."""
    if ell > level.j:
        raise ValueError(f"ell={ell} exceeds level j={level.j}")
    N = params.N
    in_progression = np.zeros(N, dtype=bool)
    in_progression[make_progression(params)] = True
    mask = np.ones(len(level.atoms), dtype=bool)
    for i in range(1, ell + 1):
        mask &= in_progression[(level.atoms // N ** (level.j - i)) % N]
    return mask


def patch_structured(members, x, params) -> list[int]:
    """Block ``members`` rotated by x with the progression forced in,
    cardinality kept at t. Surplus non-progression members are removed
    largest-first.
    """
    N, t = params.N, params.t
    pset = set(make_progression(params))
    out = {(x + m) % N for m in members} | pset
    extras = sorted(out - pset)
    while len(out) > t:
        out.discard(extras.pop())
    if len(out) != t or not pset <= out:
        raise ConstructionError("patched block lost the progression or cardinality")
    return sorted(out)


def child_digits(params: ConstructionParams, level: LevelSet, members,
                 xs) -> np.ndarray:
    """Last digits of level j+1, one row of t per atom a of ``level``: the
    block ``members`` rotated by x_a, or under an atom of the structured
    sublist its ``patch_structured`` row, so that level j+1 is
    {aN + d : d in row a}."""
    N = params.N
    table = np.array([
        (np.arange(N)[:, None] + np.asarray(members, dtype=np.int64)) % N,
        [patch_structured(members, x, params) for x in range(N)],
    ])
    return table[structured_mask(params, level, level.j).astype(np.intp), xs]


def rotation_sums(params: ConstructionParams, level: LevelSet, digits):
    """The deviation sums of ``digits``, one row of t last digits per atom
    (a draw from ``child_digits`` in ``choose_rotations``, or the next saved
    level's in ``spectral.telescope_check``), over every residue mod P, class
    by class: pairs (kb, sums), sums yielding s_ell(kb) for ell = 0, ..., j
    lazily. With e(x) = exp(-2 pi i x), P = N^(j+1),
    Q = N^j, A_ell the atoms of mask ell and D_a the row of a,

        s_ell(k) = sum_{a in A_ell} e(ak/Q) (S_{D_a}(k)/t - S_[N](k)/N),

    the sum at period P of the ``deviation_measure`` of A_ell and its
    children C_ell = {aN + d : a in A_ell, d in D_a}, as written. So
    s_ell(P - k) = conj s_ell(k): A_0's measure is built once, and each
    class of ``expsums.half_classes`` reads one table per window's mask of
    it, a class that is its own mirror (c = 0, c = M/2) only at k <= P/2, so
    that each pair of twins k, P - k is read once. A period above
    ``expsums.FFT_BUDGET`` is a SpectralError before the measure is built.
    """
    N, j = params.N, level.j
    period = N ** (j + 1)
    expsums.split(period)
    points, weights = deviation_measure(
        params, level.atoms, (level.atoms[:, None] * N + digits).ravel())
    # the measure's rows of t kept points, then of N children, per atom
    masks = [np.concatenate([np.repeat(mask, params.t), np.repeat(mask, N)])
             for mask in (structured_mask(params, level, ell) for ell in range(j + 1))]
    for kb, table, mirrored in half_classes(period):
        # a class that is its own mirror holds both twins k and P - k
        n = len(kb) if mirrored else np.searchsorted(kb, period // 2, side="right")
        yield kb[:n], (s[:n] for s in table(points, weights=weights, masks=masks))


def choose_rotations(params: ConstructionParams, level: LevelSet, members,
                     rng) -> tuple[LevelSet, dict]:
    """Draw per-atom rotations and accept the next level only when every
    deviation sum stays strictly below its threshold lam_ell at every
    integer k; returns that level and its audit fields, among them
    ``rotation_margins``, the largest |t^(-j+ell/2) s_ell(k)| / lam_ell
    for each ell, and ``rotation_margin``, their maximum.

    Each term of s_ell (``rotation_sums``) is at most 2 in modulus and
    |A_ell| = t^(j-ell/2), so t^(-j+ell/2) |s_ell(k)| <= 2 at every k:
    when every lam_ell exceeds 2, the first draw is accepted unread
    ("trivial", margins 2 / lam_ell). Otherwise every residue is read, and
    a draw is rejected at the first block and ell whose sum reaches its
    threshold (``_scan``)."""
    N, t, j = params.N, params.t, level.j
    period = N ** (j + 1)
    if period > 2**20:
        # the draw of the frequency sample this check once read above its
        # retired budget of 2^20 residues, dropped so that the levels keep
        # their bytes; it goes when the benchmark's reference is next recorded
        rng.integers(0, period, size=4096, dtype=np.int64)
    lams = [params.lambda_rot_ell(j, ell) for ell in range(j + 1)]
    scales = [t ** (-j + ell / 2) for ell in range(j + 1)]
    trivial = min(lams) > 2

    for attempt in range(MAX_RETRIES):
        xs = rng.integers(0, N, size=len(level.atoms))
        digits = child_digits(params, level, members, xs)
        if trivial:
            found = [2.0] * (j + 1)
        else:
            # each sum is dropped once its magnitude is taken
            blocks = rotation_sums(params, level, digits)
            found, worst = _scan(((kb, map(np.multiply, map(np.abs, sums), scales))
                                  for kb, sums in blocks), lams)
            if worst is not None:
                continue
        margins = [float(m / lam) for m, lam in zip(found, lams)]
        atoms = np.sort((level.atoms[:, None] * N + digits).ravel())
        return LevelSet(j=j + 1, atoms=atoms), {
            "rotation_mode": "trivial" if trivial else "exhaustive",
            "rotation_verified_k": 0 if trivial else period,
            "retries": attempt, "lambda_j": lams[0],
            "rotation_margin": max(margins), "rotation_margins": margins}
    m, thresh, k, ell = worst
    raise ConstructionError(f"rotation retries exhausted at j={j}: |sum|={m:.4g} >= "
                            f"{thresh:.4g} at k={k}, ell={ell}")


# ---------------------------------------------------------------------------
# assembling levels

def build_level(params: ConstructionParams, construction: Construction, rng) -> LevelSet:
    """Extend the construction by one level and append the audit record."""
    level = construction.levels[-1]
    N, t, j = params.N, params.t, level.j
    if j == 0:
        members = _fix_cardinality(set(make_progression(params)), t, N)
        new = LevelSet(j=1, atoms=np.array(members, dtype=np.int64))
        construction.audit.append({"j": 1, "mode": "deterministic", "retries": 0})
    else:
        members, block = build_base_block(params, j, rng)
        new, rotation = choose_rotations(params, level, members, rng)
        construction.audit.append({"j": j + 1, **block, **rotation})

    construction.levels.append(new)
    check_level_invariants(params, construction.levels[-2], new)
    return new


def build_construction(params: ConstructionParams) -> Construction:
    """Build levels 0..j_max deterministically from (params, seed)."""
    rng = np.random.default_rng(params.seed)
    root = LevelSet(j=0, atoms=np.array([0], dtype=np.int64))
    con = Construction(params=params, levels=[root])
    for _ in range(params.j_max):
        build_level(params, con, rng)
    return con


# ---------------------------------------------------------------------------
# invariants

def check_level_invariants(params: ConstructionParams, prev: LevelSet | None,
                           level: LevelSet) -> None:
    """Raise ConstructionError on any cardinality, range, order or nesting
    breach, when an atom of the structured sublist is missing, or when a
    parent in ``prev`` has other than t children."""
    N, t = params.N, params.t
    j = level.j
    a = level.atoms
    if len(a) != t**j:
        raise ConstructionError(f"level {j}: |atoms|={len(a)} != t^j={t**j}")
    if len(a) and (a[0] < 0 or a[-1] >= N**j):
        raise ConstructionError(f"level {j}: atoms out of [0, N^j)")
    if np.any(np.diff(a) <= 0):
        raise ConstructionError(f"level {j}: atoms not strictly sorted")
    # the atoms are distinct, so the count holds iff every structured atom is one
    count = int(structured_mask(params, level, j).sum())
    if count != params.sqrt_t**j:
        raise ConstructionError(
            f"level {j}: {count} structured atoms != sqrt(t)^j={params.sqrt_t ** j}"
        )
    if prev is not None:
        parents, counts = np.unique(a // N, return_counts=True)
        if not np.array_equal(parents, prev.atoms):
            raise ConstructionError(f"level {j}: nesting breach")
        i = int(np.argmax(counts != t))
        if counts[i] != t:
            raise ConstructionError(
                f"level {j}: parent {parents[i]} has {counts[i]} children != t={t}")


def verify_construction(con: Construction) -> None:
    for prev, level in zip([None] + con.levels[:-1], con.levels):
        check_level_invariants(con.params, prev, level)
