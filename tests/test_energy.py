import dataclasses
import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from salemlab import energy
from salemlab import (
    EnergyError, bspline_integers, build_construction, derive_params,
    energy_lower_bound, exact_l2r_norm, l2r_lower_bound, sum_distribution,
)
from salemlab.spectral import restricted_atoms
from _oracles import brute_force_energy, loop_counts

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
    assert np.array_equal(_dense(Y, r), _dense([y + shift for y in Y], r))


def _python_dot(a, b) -> int:
    return sum(x * y for x, y in zip(a.tolist(), b.tolist()))


def _dense(Y, r) -> np.ndarray:
    """The runs of ``_sum_counts`` written into one array of the table's width."""
    runs = list(energy._sum_counts(Y, r))
    g = np.zeros(runs[-1][0] + len(runs[-1][1]), dtype=runs[0][1].dtype)
    for start, counts in runs:
        g[start : start + len(counts)] = counts
    return g


def _check_runs(runs):
    # runs are sorted, start and end on nonzero counts, and lie more than the
    # gap apart
    for (a, g), (b, _) in zip(runs, runs[1:]):
        assert b - (a + len(g)) > energy._RUN_GAP
    assert all(g[0] and g[-1] for _, g in runs)


@pytest.mark.parametrize("gap", [energy.MAX_ORDER, 2**40], ids=["smallest-gap", "one-run"])
@given(Y=st.lists(st.integers(0, 3000), min_size=1, max_size=40, unique=True),
       r=st.integers(1, 3), shift=st.integers(-10**6, 10**6))
@settings(max_examples=60, deadline=None)
def test_run_forms_equal_the_loop(gap, Y, r, shift):
    """Runs split at the smallest gap allowed, or one run over the whole
    width (the whole-array add), give the loop's counts and the table their
    exact energies. The uncached chain is called, since a table may predate
    the patch."""
    Y = [y + shift for y in Y]
    g = loop_counts(Y, r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_RUN_GAP", gap)
        runs = list(energy._sum_counts(Y, r))
        _check_runs(runs)
        assert np.array_equal(_dense(Y, r), g)
        table = energy._table.__wrapped__(np.unique(Y).tobytes(), r)
    if gap >= len(g):
        assert len(runs) == 1
    assert table.M == _python_dot(g, g)
    assert table.support_size == np.count_nonzero(g)
    for d in range(1, r):
        want = _python_dot(g[:-d], g[d:])
        assert table.correlation[d] == table.correlation[-d] == want


@pytest.mark.parametrize("gap", [energy.MAX_ORDER, energy._RUN_GAP])
@pytest.mark.parametrize("zeros, n_runs", [(0, 4), (1, 5)])
def test_runs_split_one_zero_past_the_gap(gap, zeros, n_runs):
    # the 4-fold sums of {0, 1, s} start with the clusters 0..4 and s..s+3,
    # _RUN_GAP + zeros zeros apart; the later clusters lie further apart
    Y = [0, 1, gap + zeros + 5]
    g = loop_counts(Y, 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_RUN_GAP", gap)
        runs = list(energy._sum_counts(Y, 4))
        _check_runs(runs)
        table = energy._table.__wrapped__(np.unique(Y).tobytes(), 4)
    assert len(runs) == n_runs
    assert table.support_size == np.count_nonzero(g) == 15
    for d in range(4):
        assert table.correlation[d] == _python_dot(g[: len(g) - d], g[d:])


def test_run_gap_covers_every_correlation():
    # a correlation with |d| < r < MAX_ORDER never spans a gap of _RUN_GAP
    assert energy._RUN_GAP >= energy.MAX_ORDER


def test_energy_beyond_int64_is_exact():
    # |Y|^3 = 2^39 counts fit in int64, but M and its neighbours exceed 2^63
    Y = np.arange(2**13) + 5
    table = sum_distribution(Y, 3)
    g = loop_counts(Y, 3)
    assert table.M == _python_dot(g, g) > 2**63
    assert table.correlation[2] == _python_dot(g[:-2], g[2:]) > 2**63


@pytest.mark.parametrize("size, dtype", [(1290, np.int32), (1291, np.int64)])
def test_counts_narrow_to_int32_below_the_entry_bound(size, dtype):
    # an entry of g_4 is at most |Y|^3: 1290^3 < 2^31 <= 1291^3
    g = _dense(range(size), 4)
    assert g.dtype == dtype
    assert np.array_equal(g, loop_counts(range(size), 4))


@given(Y=st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True),
       r=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_counts_stay_below_the_entry_bound(Y, r):
    assert _dense(Y, r).max() <= len(Y) ** (r - 1)


def test_exact_dot_adds_int32_counts_without_wrapping():
    rng = np.random.default_rng(5)
    a, b = (rng.integers(2**20 - 64, 2**20, 2**12).astype(np.int32)
            for _ in range(2))
    want = _python_dot(a, b)
    assert want > 2**51 and int(np.dot(a, b)) != want   # int32 products wrap
    assert energy._exact_dot(a, b) == want


def test_largest_desk_table_holds_narrow_counts(desk_params, desk):
    # g_2 whole and one run of g_3 are live at once: 348,043 int32 counts in
    # 15 runs and at most 168,190 of g_3's 1,016,910 in 25 runs (2.1 MiB
    # peak), against 2^21 and 3 * 2^20 over the whole width
    Y = restricted_atoms(desk_params, desk.levels[5], 0)
    energy._table.cache_clear()
    tracemalloc.start()
    try:
        sum_distribution(Y, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (348_043 + 168_190) * 4 + 2**19


def test_last_step_holds_one_output_run(monkeypatch):
    # eight clusters 2^20 apart of 16 atoms 2048 apart: g_2 has 15 runs, and
    # g_3 has 22 runs of 92,161 counts, 360 KiB each. Tracing restarts its
    # peak once g_2 is built, so the peak is g_2 and what the last step holds
    Y = (np.arange(8)[:, None] * 2**20 + 2048 * np.arange(16)).ravel()
    g_2 = sum(g.nbytes for _, g in energy._sum_counts(Y, 2))
    g_3 = [g.nbytes for _, g in energy._sum_counts(Y, 3)]
    assert len(g_3) == 22 and min(g_3) == max(g_3) == 92_161 * 4
    count = energy._sum_counts

    def counted(Y, r):
        runs = count(Y, r)
        tracemalloc.reset_peak()
        return runs

    monkeypatch.setattr(energy, "_sum_counts", counted)
    key = np.unique(Y).tobytes()
    tracemalloc.start()
    try:
        table = energy._table.__wrapped__(key, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    g = _dense(Y, 3)
    assert table.M == _python_dot(g, g)
    # 256 KiB covers einsum's int64 buffers (130 KiB); a second run held
    # while the next is formed would add 360 KiB
    assert peak < g_2 + max(g_3) + 2**18


# (j, ell, r, M, support_size, correlations) of every desk seed-7 table, and
# of the N = 9 level-5 window whose g_2 covers 45% of its width (the dense
# form), recorded from the earlier rounded-FFT and loop counts
DESK_ENERGY_SHA256 = "6f57d4868f7ee6b0621a5095b3572a2f434c68a7ae3f45e4afb4183dd51df55c"
ODD_BASE_L5_R3 = (13964206335430, 145700, {
    0: 13964206335430, 1: 13961899552476, -1: 13961899552476,
    2: 13956381447396, -2: 13956381447396,
})


def _desk_table(params, con, j, ell, r):
    return sum_distribution(restricted_atoms(params, con.levels[j], ell), r)


def test_energy_integers_are_pinned(desk_params, desk):
    rows = [(j, ell, r, t.M, t.support_size, sorted(t.correlation.items()))
            for j in range(6) for ell in range(j + 1) for r in (2, 3)
            for t in [_desk_table(desk_params, desk, j, ell, r)]]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == DESK_ENERGY_SHA256
    odd = derive_params(3, 2, 1, j_max=5, seed=7)
    Y = restricted_atoms(odd, build_construction(odd).levels[5], 0)
    t = sum_distribution(Y, 3)
    assert (t.M, t.support_size, t.correlation) == ODD_BASE_L5_R3


def test_sum_distribution_basics():
    # 2-fold sums of {0,1}: 0 once, 1 twice, 2 once
    assert _dense([0, 1], 2).tolist() == [1, 2, 1]
    table = sum_distribution([0, 1], 2)
    assert table.M == 1 + 4 + 1
    assert table.correlation == {0: 6, 1: 4, -1: 4}
    assert table.support_size == 3


@given(Y=small_sets, r=st.integers(1, 3), shift=st.integers(-50, 50))
@settings(max_examples=30, deadline=None)
def test_sum_counts_start_at_r_times_the_minimum(Y, r, shift):
    Y = [y + shift for y in Y]
    g = _dense(Y, r)
    counts = Counter(sum(tup) for tup in product(Y, repeat=r))
    assert {r * min(Y) + i: int(c) for i, c in enumerate(g) if c} == counts


def test_tables_cannot_be_mutated():
    table = sum_distribution([0, 1, 3], 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.M = 0
    with pytest.raises(TypeError):
        table.correlation[0] = 0
    assert sum_distribution([3, 1, 0], 2) is table
    assert table.M == table.correlation[0] == brute_force_energy([0, 1, 3], 2)


def test_r1_energy_is_set_size():
    Y = [3, 7, 20]
    table = sum_distribution(Y, 1)
    assert table.M == len(Y)
    assert table.support_size == len(Y)


def test_overflow_guard():
    # the counts sum to |Y|^r = 2^64
    with pytest.raises(EnergyError, match="overflow"):
        sum_distribution(list(range(2**16)), 4)


def test_overflow_guard_holds_on_one_atom():
    # one atom never overflows, but r = 63 is refused by its order alone
    # rather than run for r - 1 steps
    assert sum_distribution([5], 62).M == 1
    with pytest.raises(EnergyError, match=r"order r = 63 on \|Y\| = 1 atoms"):
        sum_distribution([5], 63)


def test_empty_and_bad_order():
    with pytest.raises(EnergyError):
        sum_distribution([], 2)
    with pytest.raises(EnergyError):
        sum_distribution([1], 0)


def test_work_budget_refuses_a_table_before_its_first_step(monkeypatch):
    # |Y| = 3 and max - min = 9: steps s = 0, 1, 2 add at most 3 (9 s + 1) each
    Y = np.array([10, 15, 19])
    monkeypatch.setattr(energy, "WORK_BUDGET", 90)
    energy._sum_counts(Y, 3)
    monkeypatch.setattr(energy, "WORK_BUDGET", 89)
    with pytest.raises(EnergyError, match=r"order-3 .* \|Y\| = 3 atoms need up to 90 "
                                          r"shift-adds, over the work budget 89"):
        energy._sum_counts(Y, 3)


def test_constructed_level_energies_exceed_bound(desk_params, desk):
    for j in range(0, 6):
        for ell in range(0, j + 1):
            for r in (2, 3):
                table = _desk_table(desk_params, desk, j, ell, r)
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


def test_bspline_refuses_the_orders_that_energy_refuses():
    # its cost grows as r^2 exact rational terms: r = 250 took seconds
    with pytest.raises(EnergyError, match="order r = 63: r >= 63 is refused"):
        bspline_integers(63)


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


def test_exact_l2r_exceeds_lower_bound(desk_params, desk):
    for j in range(0, 6):
        for ell in range(0, j + 1):
            res = exact_l2r_norm(desk_params, desk.levels[j], ell, 3)
            lb = l2r_lower_bound(desk_params, ell, 3)
            assert lb["in_hypothesis"]
            assert res["value"] >= lb["bound"], (j, ell)
            assert res["value"] >= res["d0_floor"] > 0
