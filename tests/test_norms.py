import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import zeta as hurwitz_zeta

from salemlab import (
    NormError, SpectralError, ball_condition_report, build_construction, derive_params,
    direct_mass, holder_chain_check, lp_norm,
    lp_norm_quadrature, lq_mass, restriction_ratio, thresholds,
)
from salemlab import expsums, norms
from salemlab.construction import LevelSet
from salemlab.norms import _EM_START, _hurwitz, pick_r
from salemlab.spectral import exp_sum_all, restricted_atoms
from _oracles import dense_ball_scan, point_weights


def test_quadrature_matches_exact_even_orders(desk_params, desk):
    for j in (0, 1, 2, 3):
        for ell in range(0, min(j, 2) + 1):
            for p in (2.0, 4.0):
                quad = lp_norm_quadrature(desk_params, desk.levels[j], [ell], p)[0]
                exact = lp_norm(desk_params, desk.levels[j], [ell], p)[0]
                assert exact.method == "exact-bspline"
                assert quad.value == pytest.approx(exact.value, rel=1e-9)


@given(st.tuples(st.floats(1.1, 200.0), st.floats(float(_EM_START), 48.0))
       | st.tuples(st.floats(1.1, 8.0), st.floats(float(_EM_START), 1e6)))
@example((8.0, float(_EM_START)))
@example((10.6, float(_EM_START)))   # the largest remainder without direct terms
@example((16.0, float(_EM_START)))
@example((50.5, float(_EM_START)))
@example((200.0, float(_EM_START)))
def test_hurwitz_matches_scipy(pa):
    # compared where scipy's value is a normal float; near the bottom of
    # that range (a = 186, p = 132) scipy itself is off by 1.4e-13. Above
    # p = 8 the remainder peaks at 2.3e-14, near p = 10.9 and a = 16.4
    p, a = pa
    want = hurwitz_zeta(p, a)
    assume(want >= np.finfo(float).tiny)
    rel = 1e-14 if p <= 8 else 5e-14
    assert _hurwitz(p, a) == pytest.approx(want, rel=rel, abs=0)


def _full_lattice_quadrature(params, level, ell, p):
    """The lattice sum over every point of a period, each weighted directly
    over the periods m < m_cut, with scipy's Hurwitz zeta beyond: the
    reference for the folded half-lattice weights of the step h = 1/4 and
    the cutoff K = 32 N^j."""
    h, m_cut = 0.25, 32
    period = params.period(level.j)
    n_per = period * round(1 / h)
    T = np.abs(exp_sum_all(restricted_atoms(params, level, ell), n_per, n_per))
    eta = np.arange(n_per) / n_per
    tj = float(params.t) ** (-level.j)
    P = (T * tj) ** p * np.abs(np.sin(np.pi * eta)) ** p
    head = (T[0] * tj) ** p
    for m in range(m_cut):
        head += 2.0 * float(np.dot(P[1:], (np.pi * (eta[1:] + m)) ** (-p)))
    tail = 2.0 * math.pi ** (-p) * float(
        np.dot(P[1:], hurwitz_zeta(p, eta[1:] + m_cut)))
    return h * (head + tail), h * head, h * tail


def test_folded_quadrature_matches_full_lattice(desk_params, desk):
    for j in (2, 3, 4):
        for ell in (0, 1):
            for p in (2.5, 3.0):
                est = lp_norm_quadrature(desk_params, desk.levels[j], [ell], p)[0]
                value, head, tail = _full_lattice_quadrature(
                    desk_params, desk.levels[j], ell, p)
                assert est.grid == {"K": 32 * 16**j, "h": 0.25}
                assert est.value == pytest.approx(value, rel=1e-13, abs=0)
                assert est.head_value == pytest.approx(head, rel=1e-13, abs=0)
                assert est.tail_value == pytest.approx(tail, rel=1e-13, abs=0)


def test_folded_quadrature_odd_base():
    # N = 9: |T| at the midpoint eta = 1/2 of the lattice is nonzero
    params = derive_params(3, 2, 1, j_max=3, seed=7)
    level = build_construction(params).levels[3]
    for p in (2.5, 3.0):
        est = lp_norm_quadrature(params, level, [1], p)[0]
        value, head, tail = _full_lattice_quadrature(params, level, 1, p)
        assert est.value == pytest.approx(value, rel=1e-13, abs=0)
        assert est.head_value == pytest.approx(head, rel=1e-13, abs=0)
        assert est.tail_value == pytest.approx(tail, rel=1e-13, abs=0)


@pytest.mark.parametrize("p", [100.5, 1001.0])
def test_quadrature_is_finite_at_large_p(desk_params, desk, p):
    # (eta + m)^-p overflowed at eta = 1 / n_per while |sin(pi eta)|^p
    # underflowed, and the tail bound overflowed at p = 1001; each weight is
    # now a power of a ratio at most 1
    est = lp_norm_quadrature(desk_params, desk.levels[3], [0], p)[0]
    for value in (est.value, est.head_value, est.tail_value, est.tail_bound):
        assert math.isfinite(value) and value >= 0
    # |T| peaks at 1 at the origin, which alone contributes h = 1/4
    assert 0.25 <= est.value < 0.26


def test_folded_quadrature_matches_full_lattice_at_larger_p(desk_params, desk):
    level = desk.levels[2]
    est = lp_norm_quadrature(desk_params, level, [0], 50.5)[0]
    value, head, tail = _full_lattice_quadrature(desk_params, level, 0, 50.5)
    assert est.value == pytest.approx(value, rel=1e-13, abs=0)
    assert est.head_value == pytest.approx(head, rel=1e-13, abs=0)
    # the tail (1e-132 against a value of 0.25) was off by 1.3e-10 while
    # ``_hurwitz`` started its expansion at a = 16 for every p
    assert est.tail_value == pytest.approx(tail, rel=1e-13, abs=0)


@pytest.mark.parametrize("N0, block", [(4, 2**10), (3, 1000), (3, 729)])
def test_blocked_lattice_matches_full_lattice(monkeypatch, N0, block):
    # the lattice splits into M = 16, 3 and 4 residue classes: paired ones,
    # class 0 and, for even M, the self-mirrored class M/2
    params = derive_params(N0, 2, 1, j_max=3, seed=7)
    level = build_construction(params).levels[3]
    monkeypatch.setattr(expsums, "BLOCK", block)
    for p in (2.5, 3.0):
        ests = lp_norm_quadrature(params, level, [0, 1, 2], p)
        for ell, est in zip([0, 1, 2], ests):
            value, head, tail = _full_lattice_quadrature(params, level, ell, p)
            assert est.value == pytest.approx(value, rel=1e-13, abs=0)
            assert est.head_value == pytest.approx(head, rel=1e-13, abs=0)
            assert est.tail_value == pytest.approx(tail, rel=1e-13, abs=0)
            # each window's estimate is the one it gets alone
            assert est == lp_norm_quadrature(params, level, [ell], p)[0]


def test_class_weights_are_mirror_symmetric():
    # sin(pi eta) near eta = 1 is formed from 1 - eta: from eta itself the
    # rounding of pi eta costs 1.3e-12 relative at i = n_per - 256, n_per =
    # 2^22. The classes 0 and M/2 hold i and n_per - i at mirrored places;
    # at M/2 the two read the folded table at different columns
    n_per = 2**22
    B, M = expsums.split(n_per)
    for p in (3.0, 50.5):
        table = norms._weight_table(p, B, M // 2 / n_per)
        for c in (0, M // 2):
            for w in norms._class_weights(table, c, n_per, p):
                np.testing.assert_allclose(w, w[::-1], rtol=1e-14, atol=0)


# (n_per, BLOCK): desk level 5 (M = 256), N = 9 at level 5 (M = 18), N = 9
# at level 3 with an odd M = 3, and desk level 5 in classes of 2^10
@pytest.mark.parametrize("n_per, block", [(4 * 16**5, None), (4 * 9**5, None),
                                          (4 * 9**3, 1000), (4 * 16**5, 2**10)])
def test_class_weights_match_point_weights(monkeypatch, n_per, block):
    if block:
        monkeypatch.setattr(expsums, "BLOCK", block)
    B, M = expsums.split(n_per)
    for p in (1.5, 2.5, 3.0, 8.0, 50.5, 100.5, 200.0, 1001.0):
        table = norms._weight_table(p, B, M // 2 / n_per)
        # every class weighs each sample with its mirror, 0 and M/2 too
        for c in {0, 1, M // 2 - 1, M // 2} - {-1}:
            i = (c + M * np.arange(B))[int(c == 0):]
            head, tail = norms._class_weights(table, c, n_per, p)
            want_head, want_tail = point_weights(i, n_per, p, True)
            np.testing.assert_allclose(head, want_head, rtol=1e-13, atol=0)
            # subnormal floats lie 2^-1074 apart, coarser than 1e-13
            # relative below 5e-311
            np.testing.assert_allclose(tail, want_tail, rtol=1e-13,
                                       atol=np.finfo(float).smallest_subnormal)


def test_blocked_lattice_holds_no_half_period_array(desk_params, desk, monkeypatch):
    level = desk.levels[4]
    n_per = 4 * desk_params.period(4)
    monkeypatch.setattr(expsums, "BLOCK", 2**12)
    tracemalloc.start()
    try:
        lp_norm_quadrature(desk_params, level, [0, 1, 2], 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # less than one float64 array of n_per / 2 points, temporaries included
    assert peak < 8 * n_per // 2


def test_quadrature_unit_mass_case(desk_params, desk):
    # level 0 is the unit box; its transform is sinc, and the 2-norm is 1
    est = lp_norm_quadrature(desk_params, desk.levels[0], [0], 2.0)[0]
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_quadrature_tail_is_small_and_counted(desk_params, desk):
    est = lp_norm_quadrature(desk_params, desk.levels[2], [1], 3.0)[0]
    assert est.value == pytest.approx(est.head_value + est.tail_value, rel=1e-12)
    assert 0 < est.tail_value < est.value * 1e-3
    assert est.tail_bound > 0


def test_quadrature_rejects_bad_grid(desk_params, desk):
    with pytest.raises(NormError, match="need p > 1"):
        lp_norm_quadrature(desk_params, desk.levels[1], [0], 1.0)


def test_lattice_beyond_the_budget_is_a_resource_limit(desk_params, desk,
                                                        monkeypatch):
    # level 2 at h = 1/4 samples 16^2 * 4 = 1024 points per period
    level = desk.levels[2]
    monkeypatch.setattr(expsums, "FFT_BUDGET", 1024)
    lp_norm_quadrature(desk_params, level, [0], 2.5)
    monkeypatch.setattr(expsums, "FFT_BUDGET", 1023)
    with pytest.raises(SpectralError, match="length 1024 exceeds"):
        lp_norm_quadrature(desk_params, level, [0], 2.5)


def test_masses(desk_params, desk):
    for level in desk.levels:
        for ell in range(0, level.j + 1):
            got = direct_mass(desk_params, level, ell)
            assert got == Fraction(1, desk_params.sqrt_t**ell)
            m = lq_mass(desk_params, ell, 2.0)
            assert m["mass_exact"] == got
            assert m["norm"] == pytest.approx(float(got) ** 0.5, rel=1e-12)


def test_thresholds_formulas():
    th = thresholds(0.5, beta=0.5, q=2.0)
    assert th["p_necessary"] == 4.0
    assert th["p_sharp"] == 6.0
    assert th["p_mock"] == 6.0
    # the stated exponent formula q(2 - alpha)/(alpha (q - 1)) at q = 2
    assert th["pq_bound"] == 6.0
    # and its q -> infinity limit
    assert thresholds(0.5, q=1e12)["pq_bound"] == pytest.approx(3.0, rel=1e-6)
    assert thresholds(0.5, q=1.0)["pq_bound"] is None


def test_p_mock_monotone_in_beta():
    grid = np.linspace(0.05, 0.95, 19)
    vals = [thresholds(0.5, beta=b)["p_mock"] for b in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_pick_r(desk_params):
    assert pick_r(desk_params, 2.0) == 3    # forced up by r > 1/alpha
    assert pick_r(desk_params, 4.0) == 3
    assert pick_r(desk_params, 8.0) == 4


def test_restriction_ratio_report(desk_params, desk):
    rep = restriction_ratio(desk_params, desk.levels[3], [1], 4.0, 2.0)[0]
    assert rep.ratio == pytest.approx(rep.numerator / rep.denominator)
    assert rep.slack >= 0
    assert rep.thresholds["p_necessary"] == 4.0
    d = asdict(rep)
    assert d["ell"] == 1 and d["p"] == 4.0


def test_holder_chain(desk_params, desk):
    level = desk.levels[4]
    for ell in range(0, 3):
        for p in (2, 3, 4):
            rep = holder_chain_check(desk_params, level, [ell], float(p), 3,
                                     lp_norm(desk_params, level, [ell], p))[0]
            assert rep["chain_holds"], rep
            assert rep["implied_holds"], rep
            assert rep["bound_3_1_holds"], rep
            assert rep["slack"] >= -1e-9


def test_restriction_ratio_and_holder_chain_share_the_3_1_bound(desk_params, desk):
    # one formula: the same float for the same (ell, p, r), r = pick_r(p)
    for p in (3.0, 4.0):
        r = pick_r(desk_params, p)
        for level in desk.levels[2:4]:
            ells = list(range(level.j + 1))
            ratios = restriction_ratio(desk_params, level, ells, p, 2.0)
            chains = holder_chain_check(desk_params, level, ells, p, r,
                                        lp_norm(desk_params, level, ells, p))
            assert [rep.bound_3_1 for rep in ratios] == [rep["bound_3_1"] for rep in chains]


def test_holder_chain_rejects_bad_p(desk_params, desk):
    with pytest.raises(NormError):
        holder_chain_check(desk_params, desk.levels[2], [0], 6.0, 3,
                           lp_norm(desk_params, desk.levels[2], [0], 6.0))


@pytest.mark.parametrize("base", [(4, 2), (3, 2)], ids=["N16", "N9"])
@given(j=st.integers(0, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_ball_scan_matches_the_dense_scan(base, j, data):
    # isolated atoms (length 1), intervals across adjacent cells, and the
    # cells at 0 and N^j - 1; m = 0 is every level's first scale
    params = derive_params(*base, 1, j_max=4, seed=7)
    top = params.N**j - 1
    spans = data.draw(st.lists(st.tuples(st.integers(0, top), st.integers(1, 2 * params.N)),
                               min_size=1, max_size=6))
    atoms = np.unique(np.concatenate([np.arange(a, min(a + n, top + 1)) for a, n in spans]))
    level = LevelSet(j=j, atoms=atoms.astype(np.int64))
    assert ball_condition_report(params, level) == dense_ball_scan(params, level)


def test_ball_condition(desk_params, desk):
    for level in desk.levels:
        rep = ball_condition_report(desk_params, level)
        assert rep["sup_adic_exact_one"]
        assert rep["sup_adic_ratio"] == 1.0
        assert rep["sup_window_ratio"] <= 2.0 ** (1 - desk_params.alpha) + 1e-12
        for row in rep["per_scale"]:
            assert row["adic_ratio"] <= 1.0 + 1e-12
