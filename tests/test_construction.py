import hashlib
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from salemlab import construction, expsums
from salemlab import (
    ConstructionError, build_construction, check_level_invariants,
    derive_params, exp_sum, make_progression, structured_atoms, structured_mask,
    verify_construction,
)
from salemlab.construction import (
    LevelSet, _fix_cardinality, block_deviations, build_base_block,
    child_digits, deviation_measure, patch_structured, rotation_sums,
)
from salemlab.storage import level_to_text

# SHA-256 of each level file (storage.level_to_text), levels 0..5, seed 7,
# as written before the rotation checks were rewritten
DESK_SHA256 = [
    "8f025232feebd42f901c82ec74ea12b47d68823f6d85141b4e4925fdbb3aa1c2",
    "fad49c9c5ead3e28a0c12ed3ad099dea2f5d98b147b66a0ed0ca61d4bb80bc77",
    "b577545a44f98bdb6b54fe3de883d2b8742f3a6a835c56ed988837445c666dbf",
    "d231387fce2cefba9be64d310cc9a33935b6be9a5d7abb8c26dd332ead52bc02",
    "ec0ce1ec89b6a9181c07126946c6abdeb8160764bb421b1a818643456af48a22",
    "80df9b7c53d4f0076f639e7ef46f857c05102abfcf8f3d4f2d9957e29b7a9cbf",
]
ODD_BASE_SHA256 = [
    "49d3d8dc1d9b61ee0ec120ef9eb7d7b803c1c6bc228c87c38fca46fa406adc34",
    "29f4debe7952eed01175ff6cb2e31c84117628d13ab6864a345e3fe624e32df0",
    "01d581c87e921bd8292bd20eb11fe85087af63947f78fa3c0ccb0d2a65fc65cf",
    "896285f261251e2bed0f267dfb3c80b64b9036aefce9d9ec11495e3b3b7ab8b4",
    "0a7cca03bf7e4d08bcdad2655cfac40517cf4d4fa7106de3379bfb6b3a41c025",
    "17b035b457a88b2c63e1e18e250a4c0dbfd29ef54b3eae022ae48c09830c2e8b",
]


def _level_sha256(params, con):
    return [hashlib.sha256(level_to_text(params, level).encode()).hexdigest()
            for level in con.levels]


@pytest.fixture(scope="module")
def bases(desk_params, desk):
    """(params, construction) for N = 16 (desk), N = 9 and N = 25, so that
    the digit tests also run where N is not a power of two."""
    out = [(desk_params, desk)]
    for N0, j_max in ((3, 5), (5, 3)):
        params = derive_params(N0, 2, 1, j_max=j_max, seed=7)
        out.append((params, build_construction(params)))
    return out


def _iterated_progression(params, j):
    """The progression iterated over j digits, as a Python set."""
    out = {0}
    for _ in range(j):
        out = {b * params.N + m for b in out for m in make_progression(params)}
    return out


def test_level_cardinalities(desk_params, desk):
    for level in desk.levels:
        assert len(level.atoms) == desk_params.t**level.j
        assert (structured_mask(desk_params, level, level.j).sum()
                == desk_params.sqrt_t**level.j)


def test_invariants_exhaustive(desk):
    verify_construction(desk)


def test_progression_embedded_every_level(desk_params, desk):
    prog = make_progression(desk_params)
    N = desk_params.N
    for level in desk.levels[1:]:
        struct = structured_atoms(desk_params, level.j)
        assert np.isin(struct, level.atoms).all()
        # every structured atom carries a progression digit in its last place
        assert all(a % N in prog for a in struct.tolist())


def test_structured_is_progression_iteration(bases):
    for params, con in bases:
        for level in con.levels:
            expected = _iterated_progression(params, level.j)
            assert structured_atoms(params, level.j).tolist() == sorted(expected)
            mask = structured_mask(params, level, level.j)
            assert set(level.atoms[mask].tolist()) == expected


def test_atoms_nest(desk_params, desk):
    N = desk_params.N
    for prev, level in zip(desk.levels, desk.levels[1:]):
        parents = set((level.atoms // N).tolist())
        assert parents == set(prev.atoms.tolist())


def test_each_parent_gets_t_children(desk_params, desk):
    N, t = desk_params.N, desk_params.t
    for level in desk.levels[1:]:
        _, counts = np.unique(level.atoms // N, return_counts=True)
        assert (counts == t).all()


def test_trivial_regime_block(desk_params):
    rng = np.random.default_rng(0)
    block = build_base_block(desk_params, 2, rng)
    assert block.mode == "trivial"
    assert block.eta >= 2.0
    # progression forced in, filled with the smallest spare digits
    assert block.members == [0, 1, 2, 15]


def test_audit_records(desk_params, desk):
    assert len(desk.audit) == desk_params.j_max
    assert desk.audit[0]["mode"] == "deterministic"
    for rec in desk.audit[1:]:
        assert rec["retries"] < construction.MAX_RETRIES
        assert 0 < rec["rotation_margin"] < 1


def test_invariant_violation_detected(desk_params, desk):
    level = desk.levels[2]
    bad = LevelSet(j=2, atoms=level.atoms.copy())
    bad.atoms[0] = bad.atoms[1]
    with pytest.raises(ConstructionError, match="sorted|cardinality"):
        check_level_invariants(desk_params, desk.levels[1], bad)


def test_nesting_violation_detected(desk_params, desk):
    level = desk.levels[2]
    atoms = level.atoms.copy()
    # move one non-structured atom to a parent that does not exist at level 1
    idx = int(np.flatnonzero(~structured_mask(desk_params, level, 2))[0])
    atoms[idx] = 3 * desk_params.N + 5   # digit prefix 3 is not a level-1 atom
    bad = LevelSet(j=2, atoms=np.sort(atoms))
    with pytest.raises(ConstructionError, match="nesting"):
        check_level_invariants(desk_params, desk.levels[1], bad)


def test_parent_without_t_children_detected(desk_params, desk):
    # a non-structured child of the first parent moves to an unused digit
    # under the second: the set of parents is unchanged, with t - 1 and
    # t + 1 children
    N, t = desk_params.N, desk_params.t
    prev, level = desk.levels[2], desk.levels[3]
    first, second = prev.atoms[:2]
    atoms = level.atoms.copy()
    mine = (atoms // N == first) & ~structured_mask(desk_params, level, 3)
    free = next(second * N + d for d in range(N) if second * N + d not in atoms)
    atoms[np.flatnonzero(mine)[0]] = free
    bad = LevelSet(j=3, atoms=np.sort(atoms))
    with pytest.raises(ConstructionError,
                       match=f"level 3: parent {first} has {t - 1} children != t={t}"):
        check_level_invariants(desk_params, prev, bad)


def test_missing_structured_atom_detected(desk_params, desk):
    level = desk.levels[2]
    atoms = level.atoms.tolist()
    # swap the structured atom 15 = 0 * 16 + 15 for a free digit under parent 0
    free = next(d for d in range(desk_params.N) if d not in atoms)
    atoms[atoms.index(15)] = free
    bad = LevelSet(j=2, atoms=np.array(sorted(atoms), dtype=np.int64))
    with pytest.raises(ConstructionError, match="3 structured atoms"):
        check_level_invariants(desk_params, desk.levels[1], bad)


def test_determinism(desk_params, desk):
    again = build_construction(desk_params)
    for a, b in zip(desk.levels, again.levels):
        assert np.array_equal(a.atoms, b.atoms)


def test_level_bytes_are_pinned(desk_params, desk):
    assert _level_sha256(desk_params, desk) == DESK_SHA256
    odd = derive_params(3, 2, 1, j_max=5, seed=7)
    assert _level_sha256(odd, build_construction(odd)) == ODD_BASE_SHA256


def test_seed_changes_construction(desk_params):
    other = build_construction(replace(desk_params, seed=8))
    # level 5 should differ somewhere (rotations are random)
    base = build_construction(desk_params)
    assert not np.array_equal(other.levels[5].atoms, base.levels[5].atoms)


def test_structured_mask_counts(bases):
    for params, con in bases:
        s, t = params.sqrt_t, params.t
        for level in con.levels:
            for ell in range(0, level.j + 1):
                mask = structured_mask(params, level, ell)
                assert mask.sum() == s**ell * t ** (level.j - ell)
                # the digit test picks the atoms with a structured prefix
                prefixes = level.atoms // params.N ** (level.j - ell)
                structured = _iterated_progression(params, ell)
                assert mask.tolist() == [p in structured for p in prefixes.tolist()]


def test_block_deviations_fft_matches_direct():
    # one product of the rotation matrix with the powers of e(k/P), at even
    # and odd N, over the whole period, the half period and k beyond the
    # period (negative too)
    for N, t, members in ((16, 4, [0, 1, 2, 15]), (9, 4, [0, 2, 4, 8])):
        period = N**3
        beyond = np.arange(-3 * period - 5, 5 * period, 997, dtype=np.int64)
        for ks in (np.arange(period), np.arange(period // 2 + 1), beyond):
            fft = block_deviations(members, ks, period, N, t)
            uniform = exp_sum(np.arange(N), ks, period)
            direct = np.array([
                exp_sum((x + np.array(members)) % N, ks, period) / t - uniform / N
                for x in range(N)
            ])
            assert fft.shape == (N, len(ks))
            assert np.abs(fft - direct).max() < 1e-8


@given(st.sets(st.integers(0, 15), min_size=1, max_size=16), st.integers(2, 8))
def test_fix_cardinality(members, t):
    out = _fix_cardinality(members, t, 16)
    assert len(out) == t
    assert out == sorted(set(out))
    if len(members) >= t:
        assert out == sorted(members)[:t]      # drops largest surplus
    else:
        assert set(members) <= set(out)        # fills with smallest absent


@given(x=st.integers(0, 15))
def test_patch_structured_keeps_progression(desk_params, x):
    prog = make_progression(desk_params)
    out = patch_structured([1, 2, 3, 4], x, desk_params)
    assert len(out) == desk_params.t
    assert set(prog) <= set(out)


def _per_atom_sums(params, level, digits, ks):
    """s_ell(k) = sum over the atoms a of mask ell of
    e(ak/Q) (S_{D_a}(k)/t - S_[N](k)/N), atom by atom, D_a the digit row
    of a."""
    N, t, j = params.N, params.t, level.j
    P, Q = N ** (j + 1), N**j
    assert P * P < 2**63          # every product a * k below is exact in int64

    def e(r, period):
        return np.exp(-2j * np.pi * (r % period) / period)

    uniform = e(np.arange(N)[:, None] * ks, P).sum(axis=0) / N
    dev = {}                      # digit row -> S_{D_a}(k)/t - S_[N](k)/N
    out = []
    for ell in range(j + 1):
        mask = structured_mask(params, level, ell)
        s = np.zeros(len(ks), dtype=np.complex128)
        for a, row in zip(level.atoms[mask], digits[mask]):
            key = tuple(row.tolist())
            if key not in dev:
                dev[key] = e(row[:, None] * ks, P).sum(axis=0) / t - uniform
            s += e(int(a) * ks, Q) * dev[key]
        out.append(s)
    return out


# `block` lowers ``expsums.BLOCK`` below the period, so that the check
# reads M = 16 (even, with the self-mirrored class M/2) or M = 9 residue
# classes; the ids are those the cases had when a budget of 2^20 could
# also send the check to a sample
ROTATION_SUM_CASES = [(4, 2, None), (3, 3, None), (4, 2, 2**8), (3, 3, 729)]


@pytest.mark.parametrize(
    "N0, j, block", ROTATION_SUM_CASES,
    ids=[f"{N0}-{j}-1048576-exhaustive" + (f"-block{block}" if block else "")
         for N0, j, block in ROTATION_SUM_CASES])
def test_rotation_sums_match_per_atom_formula(N0, j, block, monkeypatch):
    params = derive_params(N0, 2, 1, j_max=j, seed=7)
    level = build_construction(params).levels[j]
    rng = np.random.default_rng(N0 * 10 + j)
    if block:
        monkeypatch.setattr(expsums, "BLOCK", block)
    P = params.N ** (j + 1)
    members = sorted(rng.choice(params.N, size=params.t, replace=False).tolist())
    xs = rng.integers(0, params.N, size=len(level.atoms))
    digits = child_digits(params, level, members, xs)
    covered, blocks = set(), []
    for kb, block_sums in rotation_sums(params, level)(digits):
        blocks.append(kb)
        got = list(block_sums)
        want = _per_atom_sums(params, level, digits, kb)
        assert len(got) == j + 1
        for ell, (g, w) in enumerate(zip(got, want)):
            size = params.t * int(structured_mask(params, level, ell).sum())
            assert np.abs(g - w).max() < 1e-9 * size
        covered.update(np.minimum(kb, P - kb).tolist())
    # the classes decide every residue mod P, each k through itself or its
    # twin P - k
    assert covered == set(range(P // 2 + 1))
    # a class that is its own mirror (c = 0, or c = M/2 at even M) is read
    # only up to P/2, every other class whole
    B, M = expsums.split(P)
    for kb in blocks:
        c = int(kb[0])
        assert np.array_equal(kb, np.arange(c, P // 2 + 1, M) if 2 * c % M == 0
                              else c + M * np.arange(B))
    if block:
        assert expsums.split(P)[0] == block < P


# c_rot lowered until rotation draws get rejected; the retries and the
# level SHA-256s from level 2 on are those of acceptance on the level as
# written, with the structured rows patched, every draw read over all
# residues. In the last two rows the base blocks are drawn (c_eta = 1) and
# decided at every residue too. Those rows were pinned when rotations were
# read on a sample above a budget of 2^20 residues (4096 in the last row,
# whose base blocks of j >= 3 were sampled as well), which accepted levels
# up to 1.0051 (N = 25, j = 4) and 1.0522 (N = 9, j = 5) times lam_0.
RETRY_CASES = [
    (4, 4, 7, 192.0, 0.35, [0, 1, 4, 4], [
        "79e959bf7c2ea8423c714a75b01410025590323d5475d9ec72aaed82d7cc1e7a",
        "611a936035fd2e31e0ab1d9820eb24d58f03b10477cd614754e7480ab32ca817",
        "dcacf11664531f863868d2957f21d55f799187701cdbba135f6246736178dfde",
    ]),
    (3, 4, 7, 192.0, 0.3, [0, 1, 6, 7], [
        "862b06a8e633424a32fe749492a90af0a77949fba5a1160da5a323a76f1c2bb5",
        "db1e31f5c9b606aefebe5216569c2e1bd2c11733b1977c91003210545b3692b0",
        "085ca36d001fe09d36659c9371f45a0ddcf271ffbefcd0332bc3519e15a45760",
    ]),
    (5, 5, 5, 1.0, 0.34, [0, 0, 0, 2, 6], [
        "06dddd71284f6d26bb70460a5a3900d489df55c2a98a26c7d48a3f4fc24ee15e",
        "2816abed4417716e3c30160e798ccc48534bf58aff3d247bbc3fa2ec3c1ee947",
        "34ac146170b57b863ce3ab19e9ef2afee61f3923f24de7a01ff19daa36004db5",
        "35fda06441607dce0a2427a185bec161eaa7fcd0ab190b81b5fab4945747afa8",
    ]),
    (3, 6, 2, 1.0, 0.3, [0, 1, 0, 0, 0, 13], [
        "44831b905a63220cdaf534c7d652d149057179283bde2058d569ff9125550469",
        "8305f7f18a61be2850bdf9e57c52ccd3d3c5585dbf69b57baf8abfd997d5cb80",
        "66914eaa14783657d96ea840cba3acbd8d60512b5c0450d04a23f7873c4476b2",
        "d0b50b81f51a88885ab5da09d595e75777060eed7e8301faf1b650569c2f9c77",
        "c60f1202da95a05049a3579ea7a729090192f11aae3162e42e0643f743448dec",
    ]),
]


@pytest.mark.parametrize(
    "N0, j_max, seed, c_eta, c_rot, retries, sha256", RETRY_CASES,
    # the names the first two rows had before the j_max, seed and c_eta
    # columns
    ids=[f"{case[0]}-{case[4]}-retries{i}-sha256{i}"
         for i, case in enumerate(RETRY_CASES)])
def test_rotation_retries_run(N0, j_max, seed, c_eta, c_rot, retries, sha256):
    params = derive_params(N0, 2, 1, j_max=j_max, seed=seed, c_eta=c_eta,
                           c_rot=c_rot)
    con = build_construction(params)
    assert [rec["retries"] for rec in con.audit] == retries
    assert _level_sha256(params, con)[2:] == sha256
    verify_construction(con)


def _full_period_sums(params, level, written, ell):
    """|t^(-j+ell/2) s_ell(k)| for every k in [0, P), P = N^(j+1), from
    full-period FFTs of the written atoms under A_ell."""
    N, t, j = params.N, params.t, level.j
    P = N ** (j + 1)

    def sums(atoms, period):
        """S(k) = sum_a e(ak/period) for every k in [0, period)."""
        ind = np.zeros(period)
        ind[atoms] = 1.0
        return np.fft.fft(ind)

    # C_ell: the written atoms under A_ell, i.e. with the same top ell digits
    C = written.atoms[structured_mask(params, written, ell)]
    A = level.atoms[structured_mask(params, level, ell)]
    s = sums(C, P) / t - sums(np.arange(N), P) / N * np.tile(sums(A, P // N), N)
    return np.abs(t ** (-j + ell / 2) * s)


def _full_period_ratios(params, level, written, ell):
    """``_full_period_sums`` over the threshold of ell."""
    j = level.j
    lam = params.lambda_rot(j) if ell == 0 else params.lambda_rot_ell(j, ell)
    return _full_period_sums(params, level, written, ell) / lam


def test_written_level_meets_its_rotation_thresholds():
    # biting constants, every level j <= 4 accepted over all residues mod
    # P = N^(j+1): the level written must be the level that was checked.
    # When rotations above 4096 residues were read on a sample, seed 2's
    # level 5 reached 1.0705 times lam_0
    for seed in (1, 2, 3):
        params = derive_params(4, 2, 1, j_max=5, seed=seed, c_eta=1.0, c_rot=0.35)
        con = build_construction(params)
        worst = (0.0,)
        for level, written in zip(con.levels[1:-1], con.levels[2:]):
            j = level.j
            margins = []
            for ell in range(j + 1):
                ratio = _full_period_ratios(params, level, written, ell)
                worst = max(worst, (ratio.max(), j, ell, int(ratio.argmax())))
                margins.append(ratio.max())
            # the audit of level j + 1 records the same margins
            assert con.audit[j]["j"] == j + 1
            assert con.audit[j]["rotation_mode"] == "exhaustive"
            assert con.audit[j]["rotation_margins"] == pytest.approx(margins, rel=1e-9)
            assert con.audit[j]["rotation_margin"] == pytest.approx(max(margins), rel=1e-9)
        assert worst[0] < 1, (seed, worst)   # (sum over threshold, j, ell, k)


@pytest.mark.parametrize("N0, j_max", [(4, 5), (3, 5), (4, 6)],
                         ids=["desk", "odd-base", "deep"])
def test_default_rotations_are_accepted_by_the_triangle_bound(N0, j_max, monkeypatch):
    # every lam_ell exceeds 2 at the default constants, so no frequency is
    # read: the first draw of every level is kept
    calls = []
    monkeypatch.setattr(construction, "rotation_sums",
                        lambda *args: calls.append(args) or rotation_sums(*args))
    params = derive_params(N0, 2, 1, j_max=j_max, seed=7)
    con = build_construction(params)
    assert calls == []
    for rec in con.audit[1:]:
        j = rec["j"] - 1
        lams = [params.lambda_rot(j)] + [params.lambda_rot_ell(j, ell)
                                         for ell in range(1, j + 1)]
        assert min(lams) > 2
        assert rec["rotation_mode"] == "trivial" and rec["rotation_verified_k"] == 0
        assert rec["retries"] == 0
        assert rec["rotation_margins"] == [2 / lam for lam in lams]
        assert rec["rotation_margin"] == max(rec["rotation_margins"])


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_deviation_sums_obey_the_triangle_bound(bases, data):
    # any rows of t distinct last digits: t^(-j+ell/2) |s_ell(k)| <= 2 at
    # every k, as each of the t^(j-ell/2) terms of s_ell is at most 2
    params, con = data.draw(st.sampled_from(bases))
    j = data.draw(st.integers(1, 3 if params.N < 25 else 2))
    level = con.levels[j]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    digits = np.array([rng.choice(params.N, size=params.t, replace=False)
                       for _ in level.atoms])
    written = LevelSet(j + 1, np.sort((level.atoms[:, None] * params.N + digits).ravel()))
    for ell in range(j + 1):
        assert _full_period_sums(params, level, written, ell).max() <= 2 + 1e-9


@pytest.mark.parametrize("N0, j_max", [(4, 5), (3, 6)], ids=["even-P", "odd-P"])
def test_half_period_check_matches_a_full_period_scan(N0, j_max):
    # biting constants, so that the sums come near their thresholds; the
    # exhaustive check reads the residue classes c <= M/2 only (M = 16 at
    # P = 16^5, M = 9 at P = 9^6), and its maximum and witness must be those
    # of all residues mod P (the witness up to the mirror k -> P - k, whose
    # sum is the conjugate)
    params = derive_params(N0, 2, 1, j_max=j_max, seed=1, c_eta=1.0, c_rot=0.35)
    con = build_construction(params)
    N, t = params.N, params.t
    for level, written in zip(con.levels[1:-1], con.levels[2:]):
        j = level.j
        P = N ** (j + 1)
        # the accepted draw's rows of last digits, in the order of the parents
        digits = (written.atoms % N).reshape(len(level.atoms), t)
        lams = [params.lambda_rot(j)] + [params.lambda_rot_ell(j, ell)
                                         for ell in range(1, j + 1)]
        peaks = [(0.0, 0)] * (j + 1)
        for kb, sums in rotation_sums(params, level)(digits):
            for ell, s in enumerate(sums):
                half = np.abs(t ** (-j + ell / 2) * s) / lams[ell]
                i = int(half.argmax())
                peaks[ell] = max(peaks[ell], (half[i], min(kb[i], P - kb[i])))
        for ell, (peak, witness) in enumerate(peaks):
            full = _full_period_ratios(params, level, written, ell)
            k = int(full.argmax())
            assert peak == pytest.approx(full.max(), rel=1e-9)
            assert witness == min(k, P - k)
            assert con.audit[j]["rotation_margins"][ell] == pytest.approx(
                peak, rel=1e-12)


def _peak_bytes(run):
    """tracemalloc's peak during ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_array_bytes(run, monkeypatch, block):
    """``_peak_bytes(run)`` with ``expsums.BLOCK = block``, run once before,
    so that lazy imports and FFT plans are not counted."""
    monkeypatch.setattr(expsums, "BLOCK", block)
    run()
    return _peak_bytes(run)


def test_rotation_check_holds_no_half_period_array(monkeypatch):
    # P = 16^4 = 2^16 in classes of 2^12, read at c_rot = 0.35 (the default
    # constants read nothing); the half-period check used to hold U(k)/N and
    # the half table of each C_ell over all of [0, P/2]
    params = derive_params(4, 2, 1, j_max=3, seed=7, c_rot=0.35)
    level = build_construction(params).levels[3]
    j, P = 3, params.period(4)
    base = build_base_block(params, j, np.random.default_rng(0))
    audits = []
    peak = _peak_array_bytes(
        lambda: audits.append(construction.choose_rotations(
            params, level, base, np.random.default_rng(0))[1]),
        monkeypatch, 2**12)
    assert audits[1]["rotation_mode"] == "exhaustive"
    # less than one complex128 array of P / 2 entries, temporaries included
    assert peak < 16 * P // 2


def test_base_block_check_holds_no_half_period_array(monkeypatch):
    # eta_3 < 2 at c_eta = 1, so the block of level 4 is checked at all
    # k mod P = 2^16; it used to form the N x (P/2 + 1) deviation matrix
    params = derive_params(4, 2, 1, j_max=4, seed=7, c_eta=1.0)
    P = params.period(4)
    assert params.eta(3) < 2
    blocks = []
    peak = _peak_array_bytes(
        lambda: blocks.append(build_base_block(params, 3, np.random.default_rng(7))),
        monkeypatch, 2**8)
    assert blocks[0] == blocks[1]
    assert blocks[0].mode == "exhaustive" and blocks[0].verified_k_count == 16 * P
    assert peak < 16 * P // 2


def test_drawn_n25_block_streams_its_frequency_blocks():
    # N = 25 at the default constants: level 5 keeps the bytes written
    # while its rotations were read on a sample (P = 25^5 exceeded the
    # 2^20 residues then read whole)
    params = derive_params(5, 2, 1, j_max=5, seed=7)
    con = build_construction(params)
    assert _level_sha256(params, con)[5] == (
        "cc9c18db0e1117f9c2245ac9245ad00799813ed500ac4f2c8a0a6e5c6111de9a")
    # eta_4 < 2 at c_eta = 0.5: the base block is decided on the grid of
    # K = 25^3 points, which bounds every residue
    params = derive_params(5, 2, 1, j_max=5, seed=7, c_eta=0.5)
    blocks = []
    peak = _peak_bytes(
        lambda: blocks.append(build_base_block(params, 4, np.random.default_rng(7))))
    base = blocks[0]
    assert base.mode == "exhaustive" and base.members == [0, 6, 23, 24]
    assert base.verified_k_count == 25 * params.period(5)
    assert base.margin == pytest.approx(0.9727152956888283, rel=1e-12)
    assert base.margin_bound == pytest.approx(0.9774318798497815, rel=1e-12)
    # the powers and deviations of about 2^14 / N frequencies at a time; at
    # N + 1 = 26 rows of one block of 2^14 frequencies it was 10.2 MiB
    assert peak < 3 * 2**20


def test_sampled_plan_route_reads_the_sample_in_one_block():
    # N = 36: level 4's rotations were once checked on a sample through
    # plans at P and Q; at the default constants the triangle bound accepts
    # them unread, and the level keeps the bytes written then
    params = derive_params(6, 2, 1, j_max=4, seed=7)
    con = build_construction(params)
    assert con.audit[-1]["rotation_mode"] == "trivial"
    assert _level_sha256(params, con)[4] == (
        "0c0e664e03a19b9bd64bf9cf1bc9d9a09f1d1c97a4ad7c10a6e0c2ad0dc6e92f")


def test_rotation_retries_exhausted_names_the_witness():
    params = derive_params(4, 2, 1, j_max=4, seed=7, c_rot=0.2)
    with pytest.raises(ConstructionError) as info:
        build_construction(params)
    assert str(info.value) == ("rotation retries exhausted at j=1: "
                               "|sum|=0.634 >= 0.3812 at k=17, ell=0")


def test_verified_base_blocks_run():
    # c_eta lowered until eta_j < 2, so every base block is drawn and checked;
    # the level-2..4 SHA-256s were written before the rewrite
    params = derive_params(4, 2, 1, j_max=4, seed=7, c_eta=1.0)
    con = build_construction(params)
    assert [rec["mode"] for rec in con.audit[1:]] == ["exhaustive"] * 3
    assert _level_sha256(params, con)[2:] == [
        "5a1e0226d892e2aaee2ecc570fd5d277cb3b90865e954e331a3296eb57c07db8",
        "efd2e08182c8ed5532889ebe1505588ce3771ec0c93506f9b2a4e4c472fb3c59",
        "649426bc92d9f32b7f879286d2fd6dd099edc98361baf3aed61a84a6240e2eec",
    ]


def test_base_block_retries_exhausted_names_the_worst_deviation():
    params = derive_params(4, 2, 1, j_max=4, seed=7, c_eta=0.5)
    with pytest.raises(ConstructionError) as info:
        build_construction(params)
    assert str(info.value) == ("base block retries exhausted at j=1: "
                               "deviation 1.085 >= 0.57 at k=58")


def test_rejected_base_block_draw_stops_at_its_first_breaching_block(monkeypatch):
    # eta_1 / 2 = 0.57 at c_eta = 0.5 rejects every draw of level 2's block;
    # at BLOCK = 2^8 each draw's half period [0, 128] is 9 blocks of 16
    # frequencies, and a draw reads them up to the first whose largest
    # |D_x(k)| reaches eta / 2
    params = derive_params(4, 2, 1, j_max=4, seed=7, c_eta=0.5)
    N, t, P, limit = params.N, params.t, params.period(2), params.eta(1) / 2
    monkeypatch.setattr(expsums, "BLOCK", 2**8)
    calls = []
    monkeypatch.setattr(construction, "block_deviations",
                        lambda members, ks, *args: calls.append((members, ks))
                        or block_deviations(members, ks, *args))
    with pytest.raises(ConstructionError) as info:
        build_base_block(params, 1, np.random.default_rng(7))
    draws = []
    for members, ks in calls:
        if ks[0] == 0:
            draws.append((members, []))
        draws[-1][1].append(ks)
    # 63 draws with members read 93 blocks, not 63 * 9 = 567
    assert len(draws) == 63 and len(calls) == 93
    for members, read in draws:
        full = np.abs(block_deviations(members, np.arange(P // 2 + 1), P, N, t)).max(axis=0)
        first = next(i for i, lo in enumerate(range(0, P // 2 + 1, 16))
                     if full[lo : lo + 16].max() >= limit)
        assert len(read) == first + 1
        assert np.array_equal(np.concatenate(read), np.arange(P // 2 + 1)[: 16 * len(read)])
    # the error names the last draw's breach, a k of its last block read
    m, k = re.fullmatch(r"base block retries exhausted at j=1: deviation (\S+) "
                        r">= 0.57 at k=(\d+)", str(info.value)).groups()
    assert int(k) in read[-1] and full[int(k)] >= limit
    assert float(m) == pytest.approx(full[int(k)], rel=1e-3)


def _full_period_max(members, N, t, P):
    """max over x and every k mod P of |D_x(k)|, in blocks of 2^16 / N
    frequencies."""
    step = 2**16 // N
    return max(np.abs(block_deviations(members, np.arange(lo, min(lo + step, P)),
                                       P, N, t)).max()
               for lo in range(0, P, step))


def test_base_block_margin_interval_holds_the_full_period_scan():
    # the accepted draw of level 4's block (eta_3 < 2 at c_eta = 1), found by
    # replaying the draws, scanned over every residue mod P = 2^16; the
    # grid of K = 4096 points decides it, and its maximum and certified
    # bound enclose the scan's
    params = derive_params(4, 2, 1, j_max=4, seed=7, c_eta=1.0)
    N, t, P, eta = params.N, params.t, params.period(4), params.eta(3)
    base = build_base_block(params, 3, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    while True:
        draw = np.flatnonzero(rng.random(N) < t / N)
        if len(draw):
            full = _full_period_max(draw, N, t, P) / (eta / 2)
            if full < 1:
                break
    assert base.mode == "exhaustive" and base.verified_k_count == N * P
    assert base.margin <= full <= base.margin_bound
    assert base.margin_bound == pytest.approx(
        base.margin / (1 - np.pi * (N - 1) / 4096), rel=1e-12)


class _FixedDraw:
    """An rng whose every ``random(N)`` keeps exactly ``members``."""

    def __init__(self, members, N):
        self.u = np.ones(N)
        self.u[members] = 0.0

    def random(self, n):
        return self.u


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_base_block_decisions_are_those_of_a_full_period_scan(data):
    # a drawn block of t digits at eta_j = 1.99 and P above the grid (N = 9:
    # K = 729; N = 16: 4096; N = 25: 15625): an accepted draw's grid
    # maximum <= its full-period maximum <= its certified bound < eta/2,
    # and a rejected draw breaches eta/2 at the k its error names
    N0, j = data.draw(st.sampled_from([(3, 3), (3, 4), (4, 3), (5, 3)]))
    params = derive_params(N0, 2, 1)
    N, t, P = params.N, params.t, params.period(j + 1)
    params = replace(params, c_eta=1.99**2 * t / np.log(8 * N ** (j + 2)))
    eta = params.eta(j)
    assert eta == pytest.approx(1.99)
    members = sorted(data.draw(st.sets(st.integers(0, N - 1), min_size=t, max_size=t)))
    full = _full_period_max(members, N, t, P) / (eta / 2)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(construction, "MAX_RETRIES", 1)
            base = build_base_block(params, j, _FixedDraw(members, N))
    except ConstructionError as exc:
        k = int(re.search(r"at k=(\d+)", str(exc)).group(1))
        at_k = np.abs(block_deviations(members, [k], P, N, t)).max()
        assert at_k >= eta / 2 and full >= 1
        return
    assert base.members == members and base.verified_k_count == N * P
    assert base.margin <= full * (1 + 1e-12)
    assert full <= base.margin_bound * (1 + 1e-12) and base.margin_bound < 1


def test_deep_base_block_is_decided_on_its_grid():
    # the deep triple at c_eta = 0.5, j = 5: P = 2^24, and the grid of
    # K = 4096 points decides the block without reading the half period,
    # which took about 3 s
    params = derive_params(4, 2, 1, j_max=6, seed=7, c_eta=0.5)
    start = time.perf_counter()
    base = build_base_block(params, 5, np.random.default_rng(7))
    assert time.perf_counter() - start < 0.1
    assert base.members == [0, 1, 3, 6] and base.margin < base.margin_bound < 1
    assert base.verified_k_count == 16 * params.period(6)


def test_exhaustive_rotation_sums_build_each_measure_once_per_draw(
        desk_params, desk, monkeypatch):
    # P = 16^4 in M = 256 classes of B = 2^8: j + 1 measures per draw, read
    # in each of the 129 classes c <= M/2
    j = 3
    level = desk.levels[j]
    monkeypatch.setattr(expsums, "BLOCK", 2**8)
    built = []
    monkeypatch.setattr(construction, "deviation_measure",
                        lambda *args: built.append(args) or deviation_measure(*args))
    sums = rotation_sums(desk_params, level)
    xs = np.random.default_rng(0).integers(0, desk_params.N, size=len(level.atoms))
    digits = child_digits(desk_params, level, [0, 1, 2, 15], xs)
    for draw in range(1, 3):
        tables = sum(len(list(block)) for _, block in sums(digits))
        assert tables == (256 // 2 + 1) * (j + 1)
        assert len(built) == draw * (j + 1)


@pytest.mark.parametrize("block", [2**14, 64], ids=["M1", "M64"])
def test_rotation_scan_reads_half_periods_without_a_fold(block, monkeypatch):
    # c_rot = 0.35 rejects draws at j = 1 (P = 256) and j = 2 (P = 4096),
    # read in one class of the whole period (M = 1), or at M = 4 and M = 64.
    # Each rejection names a k whose sum reaches its threshold, as read: in
    # [0, P/2], or in a class 0 < c < M/2, which holds k on both sides of
    # P/2 (the twins P - k of its upper half lie in the class M - c, which
    # is not read). The accepted draw's maxima are those over both twins k
    # and P - k of every residue.
    monkeypatch.setattr(expsums, "BLOCK", block)
    scans, drawn = [], []
    scan = construction._scan

    def recorded(blocks, limits):
        scans.append((len(limits) - 1, scan(blocks, limits)))
        return scans[-1][1]

    monkeypatch.setattr(construction, "_scan", recorded)
    monkeypatch.setattr(construction, "child_digits",
                        lambda *args: drawn.append(child_digits(*args)) or drawn[-1])
    params = derive_params(4, 2, 1, j_max=3, seed=7, c_rot=0.35)
    N = params.N
    con = build_construction(params)
    assert [rec["retries"] for rec in con.audit] == [0, 1, 4]
    assert _level_sha256(params, con)[2:] == RETRY_CASES[0][6][:2]
    assert [j for j, _ in scans] == [1] * 2 + [2] * 5
    for (j, (peaks, rejected)), digits in zip(scans, drawn, strict=True):
        level = con.levels[j]
        written = LevelSet(j + 1, np.sort((level.atoms[:, None] * N + digits).ravel()))
        M = expsums.split(N ** (j + 1))[1]
        if rejected is not None:
            m, lam, k, ell = rejected
            assert k <= N ** (j + 1) // 2 or 0 < 2 * (k % M) < M
            ratio = _full_period_ratios(params, level, written, ell)[k]
            assert ratio >= 1 and m / lam == pytest.approx(ratio, rel=1e-12)
            continue
        assert np.array_equal(written.atoms, con.levels[j + 1].atoms)
        for ell, peak in enumerate(peaks):
            lam = params.lambda_rot(j) if ell == 0 else params.lambda_rot_ell(j, ell)
            full = _full_period_ratios(params, level, written, ell)
            assert peak / lam == pytest.approx(full.max(), rel=1e-12)
