import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from salemlab import (
    NormError, ball_condition_report, build_construction, derive_params,
    direct_mass, energy_integral, holder_chain_check, lp_norm,
    lp_norm_quadrature, lq_mass, restriction_ratio, thresholds,
)
from salemlab.energy import sum_distribution
from salemlab.norms import pick_r
from salemlab.spectral import exp_sum_all, restricted_atoms


def test_quadrature_matches_exact_even_orders(desk_params, desk):
    for j in (0, 1, 2, 3):
        for ell in range(0, min(j, 2) + 1):
            for p in (2.0, 4.0):
                quad = lp_norm_quadrature(desk_params, desk.levels[j], ell, p)
                exact = lp_norm(desk_params, desk.levels[j], ell, p)
                assert exact.method == "exact-bspline"
                assert quad.value == pytest.approx(exact.value, rel=1e-9)


def _full_lattice_quadrature(params, level, ell, p, h=0.25):
    """The lattice sum over every point of a period, each weighted directly:
    the reference for the folded half-lattice weights."""
    period = params.period(level.j)
    n_per = period * round(1 / h)
    T = np.abs(exp_sum_all(restricted_atoms(params, level, ell), n_per))
    eta = np.arange(n_per) / n_per
    tj = float(params.t) ** (-level.j)
    P = (T * tj) ** p * np.abs(np.sin(np.pi * eta)) ** p
    head = (T[0] * tj) ** p
    for m in range(32):
        head += 2.0 * float(np.dot(P[1:], (np.pi * (eta[1:] + m)) ** (-p)))
    tail = 2.0 * math.pi ** (-p) * float(np.dot(P[1:], hurwitz_zeta(p, eta[1:] + 32)))
    return h * (head + tail), h * head, h * tail


def test_folded_quadrature_matches_full_lattice(desk_params, desk):
    for j in (2, 3, 4):
        for ell in (0, 1):
            for p in (2.5, 3.0):
                est = lp_norm_quadrature(desk_params, desk.levels[j], ell, p)
                value, head, tail = _full_lattice_quadrature(
                    desk_params, desk.levels[j], ell, p)
                assert est.value == pytest.approx(value, rel=1e-13)
                assert est.head_value == pytest.approx(head, rel=1e-13)
                assert est.tail_value == pytest.approx(tail, rel=1e-13)


@pytest.mark.parametrize("h", [0.25, 0.2])
def test_folded_quadrature_odd_base(h):
    # N = 9: |T| at the midpoint eta = 1/2 is nonzero for h = 1/4, and h = 1/5
    # makes the number of points per period odd, with no midpoint
    params = derive_params(3, 2, 1, j_max=3, seed=7)
    level = build_construction(params).levels[3]
    for p in (2.5, 3.0):
        est = lp_norm_quadrature(params, level, 1, p, h=h)
        value, head, tail = _full_lattice_quadrature(params, level, 1, p, h=h)
        assert est.value == pytest.approx(value, rel=1e-13)
        assert est.head_value == pytest.approx(head, rel=1e-13)
        assert est.tail_value == pytest.approx(tail, rel=1e-13)


def test_quadrature_unit_mass_case(desk_params, desk):
    # level 0 is the unit box; its transform is sinc, and the 2-norm is 1
    est = lp_norm_quadrature(desk_params, desk.levels[0], 0, 2.0)
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_quadrature_tail_is_small_and_counted(desk_params, desk):
    est = lp_norm_quadrature(desk_params, desk.levels[2], 1, 3.0)
    assert est.value == pytest.approx(est.head_value + est.tail_value, rel=1e-12)
    assert 0 < est.tail_value < est.value * 1e-3
    assert est.tail_bound > 0


def test_quadrature_grid_self_check(desk_params, desk):
    est = lp_norm_quadrature(desk_params, desk.levels[2], 0, 3.0, self_check=True)
    assert est.method == "quadrature"


def test_quadrature_rejects_bad_grid(desk_params, desk):
    level = desk.levels[1]
    with pytest.raises(NormError, match="h"):
        lp_norm_quadrature(desk_params, level, 0, 2.0, h=0.5)
    with pytest.raises(NormError, match="K"):
        lp_norm_quadrature(desk_params, level, 0, 2.0, K=100)
    with pytest.raises(NormError):
        lp_norm_quadrature(desk_params, level, 0, 1.0)


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
    assert thresholds(0.5, q=1.0)["pq_bound"] == math.inf


def test_p_mock_monotone_in_beta():
    grid = np.linspace(0.05, 0.95, 19)
    vals = [thresholds(0.5, beta=b)["p_mock"] for b in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_pick_r(desk_params):
    assert pick_r(desk_params, 2.0) == 3    # forced up by r > 1/alpha
    assert pick_r(desk_params, 4.0) == 3
    assert pick_r(desk_params, 8.0) == 4


def test_restriction_ratio_report(desk_params, desk):
    rep = restriction_ratio(desk_params, desk.levels[3], 1, 4.0, 2.0)
    assert rep.ratio == pytest.approx(rep.numerator / rep.denominator)
    assert rep.slack >= 0
    assert rep.thresholds["p_necessary"] == 4.0
    d = rep.to_json_dict()
    assert d["ell"] == 1 and d["p"] == 4.0


def test_holder_chain(desk_params, desk):
    level = desk.levels[4]
    for ell in range(0, 3):
        for p in (2, 3, 4):
            rep = holder_chain_check(desk_params, level, ell, float(p), 3)
            assert rep["chain_holds"], rep
            assert rep["implied_holds"], rep
            assert rep["bound_3_1_holds"], rep
            assert rep["slack"] >= -1e-9


def test_holder_chain_takes_the_energy_table(desk_params, desk):
    level = desk.levels[3]
    for ell in (0, 2):
        table = sum_distribution(restricted_atoms(desk_params, level, ell), 3)
        table.g = None         # the chain reads M and the correlations only
        for p in (2.0, 3.0):
            assert holder_chain_check(desk_params, level, ell, p, 3, table=table) \
                == holder_chain_check(desk_params, level, ell, p, 3)


def test_holder_chain_rejects_bad_p(desk_params, desk):
    with pytest.raises(NormError):
        holder_chain_check(desk_params, desk.levels[2], 0, 6.0, 3)


def test_energy_integral_growth(desk_params, desk):
    level = desk.levels[3]
    rep = energy_integral(desk_params, level, gamma=0.4, K=2048.0)
    assert rep["value"] > 0
    partials = [rep["partials"][c] for c in sorted(rep["partials"])]
    assert all(a <= b + 1e-12 for a, b in zip(partials, partials[1:]))
    assert rep["partials"][2048.0] == pytest.approx(rep["value"])


def test_ball_condition(desk_params, desk):
    for level in desk.levels:
        rep = ball_condition_report(desk_params, level)
        assert rep["sup_adic_exact_one"]
        assert rep["sup_adic_ratio"] == 1.0
        assert rep["sup_window_ratio"] <= 2.0 ** (1 - desk_params.alpha) + 1e-12
        for row in rep["per_scale"]:
            assert row["adic_ratio"] <= 1.0 + 1e-12
