"""Level-by-level construction of the random Cantor digit sets.

Atoms at level j are exact integers in [0, N^j); the integer a encodes the
point a / N^j. The structured sublist of each level iterates an arithmetic
progression, so it follows from the params alone (``structured_atoms``), and
the random part of the construction is verified against explicit deviation
thresholds with retry on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expsums import _atom_sums, _subset_sums
from .params import ConstructionParams, make_progression


class ConstructionError(RuntimeError):
    """Verification-and-retry exhausted or an internal invariant broke."""


@dataclass
class LevelSet:
    j: int
    atoms: np.ndarray        # sorted int64, values in [0, N^j)


@dataclass
class BaseBlock:
    members: list[int]       # sorted, t distinct integers in [0, N)
    eta: float
    verified_k_count: int
    mode: str                # "exhaustive" | "sampled" | "trivial"


@dataclass
class Construction:
    params: ConstructionParams
    levels: list[LevelSet]
    audit: list[dict] = field(default_factory=list)
    level_sha256: dict = field(default_factory=dict)   # as the manifest records


# ---------------------------------------------------------------------------
# frequency sets

def frequency_set(params: ConstructionParams, period: int, rng) -> tuple[np.ndarray, str]:
    """Frequencies to verify a bound on, with the mode actually achieved.

    Exhaustive over [0, period) when that fits the budget; otherwise a
    declared deterministic sample: all k < 2^16, a seeded uniform sample,
    and the N-adic multiples period/N * c and period/N^2 * c.
    """
    if period <= params.k_budget:
        return np.arange(period, dtype=np.int64), "exhaustive"
    parts = [np.arange(min(2**16, period), dtype=np.int64)]
    parts.append(rng.integers(0, period, size=4096, dtype=np.int64))
    step = period // params.N
    parts.append(np.arange(params.N, dtype=np.int64) * step)
    step2 = period // params.N**2
    if step2 > 0:
        n2 = min(params.N**2, 2**12)
        parts.append(np.arange(n2, dtype=np.int64) * step2)
    ks = np.unique(np.concatenate(parts))
    return ks, "sampled"


# ---------------------------------------------------------------------------
# base blocks

def uniform_sum(ks: np.ndarray, period: int, N: int) -> np.ndarray:
    """Exponential sum of the full digit set {0..N-1}/period at frequencies ks."""
    ks = np.asarray(ks, dtype=np.int64)
    out = np.empty(len(ks), dtype=np.complex128)
    w = np.exp(-2j * np.pi * (ks % period) / period)
    full = ks % period == 0
    out[full] = N
    nz = ~full
    out[nz] = (1 - w[nz] ** N) / (1 - w[nz])
    return out


def block_deviations(members, ks, period, N, t, fft_budget=0) -> np.ndarray:
    """Matrix D[x, i] = S_{B_x}(k_i)/t - S_{[N]}(k_i)/N for every rotation x,
    each S_{B_x} from the one cost rule of ``expsums._atom_sums``."""
    ks = np.asarray(ks, dtype=np.int64)
    base = uniform_sum(ks, period, N) / N
    mem = np.asarray(members, dtype=np.int64)
    return np.array([
        _atom_sums((x + mem) % N, ks, period, fft_budget) / t - base
        for x in range(N)
    ])


def _fix_cardinality(members: set[int], t: int, N: int) -> list[int]:
    # deterministic: drop largest surplus members, add smallest absent ones
    members = set(members)
    while len(members) > t:
        members.discard(max(members))
    absent = (m for m in range(N) if m not in members)
    while len(members) < t:
        members.add(next(absent))
    return sorted(members)


def build_base_block(params: ConstructionParams, j: int, rng) -> BaseBlock:
    """Digit block for level j+1, verified against the deviation threshold.

    When eta_j >= 2 every deviation term is trivially within bounds and a
    deterministic block (progression plus smallest fillers) is returned.
    """
    if j < 1:
        raise ValueError(f"base blocks exist for j >= 1, got {j}")
    N, t = params.N, params.t
    eta = params.eta(j)
    if eta >= 2:
        members = _fix_cardinality(set(make_progression(params)), t, N)
        return BaseBlock(members=members, eta=eta, verified_k_count=0, mode="trivial")

    period = N ** (j + 1)
    ks, mode = frequency_set(params, period, rng)
    p = t / N
    worst = None
    for _ in range(params.max_retries):
        draw = np.flatnonzero(rng.random(N) < p)
        if len(draw) == 0:
            continue
        dev = np.abs(
            block_deviations(draw, ks, period, N, t, params.fft_budget)
        ).max()
        if dev > eta / 2:
            worst = dev
            continue
        members = _fix_cardinality(set(int(m) for m in draw), t, N)
        dev2 = np.abs(
            block_deviations(members, ks, period, N, t, params.fft_budget)
        ).max()
        if dev2 > eta:
            raise ConstructionError(
                f"deviation {dev2:.4g} > eta={eta:.4g} after cardinality fix at j={j}"
            )
        return BaseBlock(members=members, eta=eta,
                         verified_k_count=len(ks) * N, mode=mode)
    if worst is None:
        raise ConstructionError(
            f"base block retries exhausted at j={j}: no draw had members"
        )
    raise ConstructionError(
        f"base block retries exhausted at j={j}: worst deviation {worst:.4g} "
        f"vs threshold {eta / 2:.4g}"
    )


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


def rotation_sums(params: ConstructionParams, level: LevelSet, digits,
                  ks, sampled: bool):
    """Deviation sums of the next level given by ``digits`` (one row of t
    last digits per atom, as from ``child_digits``), one array over ``ks``
    per mask ell = 0, 1, ..., j, yielded lazily. With e(x) = exp(-2 pi i x),
    P = N^(j+1), Q = N^j, A_ell the atoms of mask ell and D_a the row of a,

        s_ell(k) = sum_{a in A_ell} e(ak/Q) (S_{D_a}(k)/t - S_[N](k)/N)
                 = S_P(C_ell)(k)/t - S_[N](k)/N * S_Q(A_ell)(k),

    where C_ell = {aN + d : a in A_ell, d in D_a} is the part of level j+1
    under A_ell, structured rows patched as written. An exhaustive set reads
    S_P(C_ell) like any atom sum. A sampled set splits C_ell by its last
    digit d, S_P(C_ell)(k) = sum_d e(dk/P) S_Q(C_{ell,d})(k) with C_{ell,d}
    the parents of the digit-d points, and evaluates those N subsets of
    A_ell and A_ell itself in one ``_subset_sums`` call, so no table is
    longer than Q and none is built when Q exceeds the number of samples.
    """
    N, t, j = params.N, params.t, level.j
    period = N ** (j + 1)
    budget = params.fft_budget
    uniform = uniform_sum(ks, period, N) / N
    w = np.exp(-2j * np.pi * (ks % period) / period) if sampled else None
    for ell in range(j + 1):
        mask = structured_mask(params, level, ell)
        atoms, rows = level.atoms[mask], digits[mask]
        if sampled:
            # row d < N: the parents of digit d; row N: all of A_ell
            sets = np.zeros((N + 1, len(atoms)), dtype=bool)
            sets[rows, np.arange(len(atoms))[:, None]] = True
            sets[N] = True
            sums = _subset_sums(atoms, sets, ks, period // N, budget)
            # Horner's rule in w = e(k/P) over the digits d = N-1, ..., 0
            s = 0
            for d in range(N - 1, -1, -1):
                s = s * w + sums[d]
            yield s / t - uniform * sums[N]
        else:
            s = _atom_sums((atoms[:, None] * N + rows).ravel(), ks, period, budget)
            yield s / t - uniform * _atom_sums(atoms, ks, period // N, budget)


def choose_rotations(params: ConstructionParams, level: LevelSet,
                     base_block: BaseBlock, rng) -> tuple[LevelSet, dict]:
    """Draw per-atom rotations and accept the next level only when every
    deviation sum stays strictly below its threshold on the checked
    frequency set; returns that level and its audit fields, among them
    ``rotation_margin``, the largest |t^(-j+ell/2) s_ell(k)| / threshold
    over ell and the checked k."""
    N, t, j = params.N, params.t, level.j
    period = N ** (j + 1)
    ks, mode = frequency_set(params, period, rng)
    lam = params.lambda_rot(j)
    lams = [params.lambda_rot_ell(j, ell) for ell in range(1, j + 1)]

    worst = None
    for attempt in range(params.max_retries):
        xs = rng.integers(0, N, size=len(level.atoms))
        digits = child_digits(params, level, base_block.members, xs)
        sums = rotation_sums(params, level, digits, ks, mode == "sampled")
        margin = 0.0
        for ell, s in enumerate(sums):
            scale = t ** (-j + ell / 2)
            thresh = lam if ell == 0 else lams[ell - 1]
            mag = np.abs(scale * s)
            m = mag.max()
            if m >= thresh:
                worst = (m, thresh, int(ks[mag.argmax()]), ell)
                break
            margin = max(margin, m / thresh)
        else:
            atoms = np.sort((level.atoms[:, None] * N + digits).ravel())
            return LevelSet(j=j + 1, atoms=atoms), {
                "rotation_mode": mode, "rotation_verified_k": len(ks),
                "retries": attempt, "lambda_j": lam,
                "rotation_margin": float(margin),
            }
    m, thresh, k, ell = worst
    raise ConstructionError(
        f"rotation retries exhausted at j={j}: |sum|={m:.4g} >= {thresh:.4g} "
        f"at k={k}, ell={ell}"
    )


# ---------------------------------------------------------------------------
# assembling levels

def build_level(params: ConstructionParams, construction: Construction, rng) -> LevelSet:
    """Extend the construction by one level and append the audit record."""
    level = construction.levels[-1]
    j = level.j
    N, t = params.N, params.t

    if j == 0:
        members = _fix_cardinality(set(make_progression(params)), t, N)
        new = LevelSet(j=1, atoms=np.array(members, dtype=np.int64))
        construction.audit.append({"j": 1, "mode": "deterministic", "retries": 0})
    else:
        base = build_base_block(params, j, rng)
        new, rotation = choose_rotations(params, level, base, rng)
        construction.audit.append({
            "j": j + 1,
            "mode": base.mode,
            "eta": base.eta,
            "block_verified_k": base.verified_k_count,
            **rotation,
        })

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
    breach, or when an atom of the structured sublist is missing."""
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
    if prev is not None and not set((a // N).tolist()) <= set(prev.atoms.tolist()):
        raise ConstructionError(f"level {j}: nesting breach")


def verify_construction(con: Construction) -> None:
    for prev, level in zip([None] + con.levels[:-1], con.levels):
        check_level_invariants(con.params, prev, level)
