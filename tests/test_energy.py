import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from salemlab import energy
from salemlab import (
    EnergyError, additive_energy, brute_force_energy, bspline_integers,
    energy_lower_bound, exact_l2r_norm, l2r_lower_bound, sum_distribution,
)

small_sets = st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True)


@given(Y=small_sets, r=st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_energy_matches_brute_force(Y, r):
    assert sum_distribution(Y, r).M == brute_force_energy(Y, r)


@given(Y=small_sets, r=st.integers(1, 3), shift=st.integers(-50, 50))
@settings(max_examples=50, deadline=None)
def test_energy_translation_invariant(Y, r, shift):
    a = sum_distribution(Y, r)
    b = sum_distribution([y + shift for y in Y], r)
    assert a.M == b.M
    assert a.correlation == b.correlation
    assert np.array_equal(a.g, b.g)


def _table_by(Y, r, fft):
    """sum_distribution with the cost rule pinned to one path; the forced FFT
    path may not fall back to the loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_LOOP_ADD_WEIGHT", math.inf if fft else -math.inf)
        if fft:
            mp.setattr(energy, "_loop_counts", None)
        return sum_distribution(Y, r)


def _same_table(a, b):
    return (a.z_min == b.z_min and np.array_equal(a.g, b.g) and a.M == b.M
            and a.correlation == b.correlation
            and a.support_size == b.support_size)


@given(Y=st.lists(st.integers(0, 3000), min_size=1, max_size=40, unique=True),
       r=st.integers(1, 3), shift=st.integers(-10**6, 10**6))
@settings(max_examples=80, deadline=None)
def test_fft_counts_equal_the_loop(Y, r, shift):
    Y = [y + shift for y in Y]
    assert _same_table(_table_by(Y, r, fft=True), _table_by(Y, r, fft=False))


@pytest.mark.parametrize("fault", ["bound", "moment"])
def test_failed_certificate_falls_back_to_the_loop(monkeypatch, fault):
    Y = np.random.default_rng(3).choice(5000, size=60, replace=False) + 17
    want = _table_by(Y, 3, fft=False)
    if fault == "bound":
        monkeypatch.setattr(energy, "_FFT_ERROR_C", 1e300)
    else:
        irfft = np.fft.irfft

        def off_by_one(*args, **kwargs):
            out = irfft(*args, **kwargs)
            out[5] += 1.0        # a wrong count the moments must catch
            return out

        monkeypatch.setattr(np.fft, "irfft", off_by_one)
    loops = []
    loop_counts = energy._loop_counts
    monkeypatch.setattr(energy, "_loop_counts",
                        lambda *a: loops.append(a) or loop_counts(*a))
    monkeypatch.setattr(energy, "_LOOP_ADD_WEIGHT", math.inf)
    assert _same_table(sum_distribution(Y, 3), want)
    assert len(loops) == 1


def test_sum_distribution_basics():
    table = sum_distribution([0, 1], 2)
    # 2-fold sums of {0,1}: 0 once, 1 twice, 2 once
    assert table.g.tolist() == [1, 2, 1]
    assert table.M == 1 + 4 + 1
    assert table.correlation == {0: 6, 1: 4, -1: 4}
    assert table.support_size == 3


def test_r1_energy_is_set_size():
    Y = [3, 7, 20]
    table = sum_distribution(Y, 1)
    assert table.M == len(Y)
    assert table.support_size == len(Y)


def test_overflow_guard():
    with pytest.raises(EnergyError, match="overflow"):
        sum_distribution(list(range(256)), 4)


def test_empty_and_bad_order():
    with pytest.raises(EnergyError):
        sum_distribution([], 2)
    with pytest.raises(EnergyError):
        sum_distribution([1], 0)


def test_constructed_level_energies_exceed_bound(desk_params, desk,
                                                 energy_table_cache):
    for j in range(0, 6):
        for ell in range(0, j + 1):
            for r in (2, 3):
                table = energy_table_cache(j, ell, r)
                lb = energy_lower_bound(desk_params, j, ell, r)
                assert table.M >= lb["bound"], (j, ell, r)
                assert table.support_size <= lb["z_bound"], (j, ell, r)
                # Cauchy-Schwarz floor is itself >= the structured bound
                assert table.M >= lb["holder_floor"] or lb["holder_floor"] < lb["bound"]


def test_energy_lower_bound_values(desk_params):
    # j = ell = 1, r = 2: bound = (1/r^2) * s^(2r-1) = 8/4 = 2
    lb = energy_lower_bound(desk_params, 1, 1, 2)
    assert lb["bound"] == Fraction(2)
    assert lb["z_bound"] == 2 * 2 * 2   # (r s)^ell * r
    # j = 2, ell = 0, r = 2: (t^{2r}/N)^j = (256/16)^2 = 256
    lb = energy_lower_bound(desk_params, 2, 0, 2)
    assert lb["bound"] == Fraction(256, 2)


def test_additive_energy_wrapper(desk_params, desk):
    got = additive_energy(desk_params, desk.levels[2], 2, 2)
    Y = desk.levels[2].structured
    assert got == brute_force_energy(Y.tolist(), 2)


# ---------------------------------------------------------------------------
# B-splines

def test_bspline_table_values():
    t2 = bspline_integers(1)
    assert t2.C2r == 1                    # order-2 spline peaks at 1
    assert t2.values[1] == 0 and t2.values[-1] == 0
    t4 = bspline_integers(2)
    assert t4.C2r == Fraction(2, 3)
    assert t4.values[1] == Fraction(1, 6)
    t6 = bspline_integers(3)
    assert t6.C2r == Fraction(11, 20)
    assert t6.values[1] == Fraction(13, 60)
    assert t6.values[2] == Fraction(1, 120)


@given(r=st.integers(1, 5))
def test_bspline_partition_of_unity(r):
    from fractions import Fraction as F

    from salemlab.energy import _centered_bspline_at

    n = 2 * r
    for x in (F(0), F(1, 3), F(1, 2), F(7, 5)):
        total = sum(_centered_bspline_at(n, x - d) for d in range(-3 * r, 3 * r + 1))
        assert total == 1


def test_bspline_symmetry_and_positivity():
    for r in (1, 2, 3, 4):
        table = bspline_integers(r)
        for d in range(0, r + 1):
            assert table.values[d] == table.values[-d]
            if d < r:
                assert table.values[d] > 0
        assert table.values[r] == 0


# ---------------------------------------------------------------------------
# exact even-order norms

def test_exact_l2_is_plancherel(desk_params, desk):
    # r = 1: the 2-norm squared equals N^j t^{-2j} |Y| exactly
    for j in range(0, 6):
        for ell in range(0, j + 1):
            res = exact_l2r_norm(desk_params, desk.levels[j], ell, 1)
            y = desk_params.sqrt_t**ell * desk_params.t ** (j - ell)
            expected = Fraction(desk_params.N**j * y, desk_params.t ** (2 * j))
            assert res["value"] == expected


def test_exact_l2r_exceeds_lower_bound(desk_params, desk, energy_table_cache):
    for j in range(0, 6):
        for ell in range(0, j + 1):
            table = energy_table_cache(j, ell, 3)
            res = exact_l2r_norm(desk_params, desk.levels[j], ell, 3, table=table)
            lb = l2r_lower_bound(desk_params, ell, 3)
            assert lb["in_hypothesis"]
            assert res["value"] >= lb["bound"], (j, ell)
            assert res["value"] >= res["d0_floor"] > 0


def test_exact_l2r_order_mismatch(desk_params, desk, energy_table_cache):
    with pytest.raises(ValueError, match="order"):
        exact_l2r_norm(desk_params, desk.levels[1], 0, 2,
                       table=energy_table_cache(1, 0, 3))
