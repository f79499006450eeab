import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from salemlab import (
    SpectralError, build_construction, compute_spectrum, decay_report,
    derive_params, exp_sum, exp_sum_all, f_mu_hat, f_mu_hat_real, mu_hat,
    restricted_atoms, telescope_check, trivial_bound_check,
)
from salemlab import spectral
from salemlab.cli import _verify_frequencies
from salemlab.spectral import prefactor, series_bound_check, series_lhs


@pytest.fixture(scope="module")
def odd_base():
    """The odd-base config N0 = 3 (N = 9, t = 4): periods are powers of 9."""
    params = derive_params(3, 2, 1, j_max=5, seed=7)
    return params, build_construction(params)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exp_sum_fft_vs_naive(data):
    period = data.draw(st.sampled_from([16, 256, 4096]))
    atoms = data.draw(
        st.lists(st.integers(0, period - 1), min_size=1, max_size=24, unique=True)
    )
    ks = data.draw(st.lists(st.integers(0, 10 * period), min_size=1, max_size=8))
    ks = np.array(ks, dtype=np.int64)
    naive = exp_sum(atoms, ks, period, method="naive")
    fft = exp_sum(atoms, ks, period, method="fft")
    assert np.abs(naive - fft).max() < 1e-9 * max(1.0, len(atoms))


def _reference_sum(atoms, k, period):
    """S(k) with the residue a * k mod period taken in Python integers."""
    return sum(cmath.exp(-2j * math.pi * ((a * k) % period) / period) for a in atoms)


def test_exp_sum_residues_do_not_wrap():
    # (P - 1) * (P - 5) overflows int64 unless both factors are reduced and
    # the product is taken by the split-word mulmod
    P = 9**14
    atoms, ks = [P - 1, P // 3 + 7], [P - 5, 3 * P + 11]
    got = exp_sum(atoms, ks, P)
    want = [_reference_sum(atoms, k, P) for k in ks]
    assert np.abs(got - want).max() < 1e-12


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exp_sum_matches_python_int_reference(data):
    period = 9 ** data.draw(st.integers(1, 19))
    atoms = data.draw(st.lists(st.integers(0, period - 1), min_size=1, max_size=6))
    ks = data.draw(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=6))
    got = exp_sum(atoms, np.array(ks, dtype=np.int64), period)
    want = np.array([_reference_sum(atoms, k, period) for k in ks])
    assert np.abs(got - want).max() < 1e-9 * len(atoms)


def test_lone_frequency_sums_like_a_batch(odd_base):
    params, con = odd_base
    atoms = con.levels[5].atoms
    ks = np.array([30437, 28612, 5], dtype=np.int64)
    batch = exp_sum(atoms, ks, params.period(5))
    for i, k in enumerate(ks):
        assert exp_sum(atoms, ks[i : i + 1], params.period(5))[0] == batch[i]
        assert exp_sum(atoms, int(k), params.period(5)) == batch[i]


@pytest.mark.parametrize("side", [-1, 0])
def test_cost_rule_boundary_agreement(odd_base, monkeypatch, side):
    params, con = odd_base
    atoms = restricted_atoms(params, con.levels[4], 2)
    period = params.period(4)
    # smallest |ks| for which one FFT costs no more than the weighted direct terms
    n_table = math.ceil(period * math.log2(period)
                        / (spectral._DIRECT_TERM_WEIGHT * len(atoms)))
    ks = np.arange(1, n_table + side + 1, dtype=np.int64) * 7919
    tables = []
    monkeypatch.setattr(spectral, "exp_sum_all",
                        lambda *a: tables.append(a) or exp_sum_all(*a))
    got = spectral._atom_sums(atoms, ks, period, params.fft_budget)
    assert len(tables) == (side == 0)
    direct = exp_sum(atoms, ks, period, method="naive")
    assert np.abs(got - direct).max() < 1e-11 * len(atoms)


def test_scalar_frequency_goes_direct(odd_base, monkeypatch):
    params, con = odd_base
    monkeypatch.setattr(spectral, "exp_sum_all", None)
    atoms = con.levels[5].atoms
    assert spectral._atom_sums(atoms, 30437, params.period(5), params.fft_budget) \
        == exp_sum(atoms, 30437, params.period(5))


def test_exp_sum_scalar_and_zero():
    assert exp_sum([0, 3, 5], 0, 64) == pytest.approx(3.0)
    val = exp_sum([1], 7, 64)
    assert val == pytest.approx(np.exp(-2j * np.pi * 7 / 64))


def test_exp_sum_all_budget():
    with pytest.raises(SpectralError, match="budget"):
        exp_sum_all([0], 2**12, fft_budget=2**10)


def test_parseval(desk_params, desk):
    for level in desk.levels:
        period = desk_params.period(level.j)
        table = exp_sum_all(level.atoms, period)
        total = np.sum(np.abs(table) ** 2)
        assert total == pytest.approx(period * len(level.atoms), rel=1e-9)


def test_prefactor_values():
    assert prefactor(0, 256) == 1.0
    # |prefactor(k)| = |sin(pi k/per)| / (pi k/per)
    for k in (1, 7, 100):
        z = k / 256
        assert abs(prefactor(k, 256)) == pytest.approx(
            abs(math.sin(math.pi * z)) / (math.pi * z), rel=1e-12
        )


def test_mu_hat_normalization(desk_params, desk):
    for level in desk.levels:
        assert complex(mu_hat(desk_params, level, 0)) == pytest.approx(1.0, abs=1e-13)
        for ell in range(0, level.j + 1):
            got = complex(f_mu_hat(desk_params, level, ell, 0))
            assert got == pytest.approx(
                desk_params.t ** (-ell / 2), abs=1e-12
            )


def test_mu_hat_periodic_in_k_up_to_prefactor(desk_params, desk):
    level = desk.levels[3]
    period = desk_params.period(3)
    k = np.array([5, 5 + period, 5 + 2 * period], dtype=np.int64)
    vals = mu_hat(desk_params, level, k)
    # the exponential sum repeats; only the smoothing prefactor changes
    pre = prefactor(k, period)
    ratios = vals / pre
    assert np.abs(ratios - ratios[0]).max() < 1e-9


def test_real_frequency_matches_integer_grid(desk_params, desk):
    level = desk.levels[2]
    ks = np.array([1, 3, 17, 255, 1000], dtype=np.int64)
    via_int = f_mu_hat(desk_params, level, 1, ks)
    via_real = f_mu_hat_real(desk_params, level, 1, ks.astype(float))
    assert np.abs(via_int - via_real).max() < 1e-10


def test_mu_hat_conjugate_symmetry(desk_params, desk):
    level = desk.levels[2]
    ks = np.arange(1, 50, dtype=np.int64)
    plus = f_mu_hat_real(desk_params, level, 1, ks.astype(float))
    minus = f_mu_hat_real(desk_params, level, 1, -ks.astype(float))
    assert np.abs(plus - np.conj(minus)).max() < 1e-12


def test_spectrum_csv(tmp_path, desk_params, desk):
    spec = compute_spectrum(desk_params, desk.levels[2], np.arange(16))
    out = tmp_path / "spec.csv"
    spec.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "k,re,im,abs"
    assert len(lines) == 17
    k, re, im, mag = lines[1].split(",")
    assert (k, float(re), float(im), float(mag)) == ("0", 1.0, 0.0, 1.0)


def test_telescope_bounds_hold(desk_params, desk):
    ks = np.arange(1, 2**14, dtype=np.int64)
    for j in range(1, 5):
        for ell in range(0, j + 1):
            rep = telescope_check(desk_params, desk.levels[j],
                                  desk.levels[j + 1], ks, ell=ell)
            assert rep.passed, (j, ell, rep.max_ratio, rep.worst_k)


def test_telescope_needs_consecutive_levels(desk_params, desk):
    with pytest.raises(ValueError, match="consecutive"):
        telescope_check(desk_params, desk.levels[1], desk.levels[3], [1, 2])


def test_trivial_bound(desk_params, desk):
    ks = np.arange(1, 2**14, dtype=np.int64)
    for level in desk.levels[1:]:
        for ell in range(0, level.j + 1):
            rep = trivial_bound_check(desk_params, level, ell, ks)
            assert rep["passed"], rep


def test_decay_report_shape():
    ks = np.arange(1, 4096)
    coeffs = 1.0 / np.sqrt(1.0 + ks)          # exact beta = 1 model decay
    rep = decay_report(ks, coeffs, beta=0.5)
    assert set(rep.dyadic_maxima) == set(range(0, 12))
    assert rep.fitted_exponent == pytest.approx(-0.5, abs=0.05)
    # weighted maxima decrease since the model decays faster than beta/2
    vals = [rep.dyadic_maxima[m] for m in sorted(rep.dyadic_maxima)]
    assert vals[0] > vals[-1]


def test_series_bound(desk_params):
    # the weighted sum series_lhs(k) * k^(beta/2) is bounded but carries a
    # slowly-varying log factor, so calibrate the envelope constant at the
    # grid supremum rather than at k = 1
    grid = [2**m for m in range(0, 40)]
    vals = [series_lhs(desk_params, k) * k ** 0.2 for k in grid]
    k_star = grid[int(np.argmax(vals))]
    rep = series_bound_check(desk_params, beta=0.4, k=2**13, calibration_k=k_star)
    assert rep["ratio"] <= 1.0 + 1e-9
    assert max(vals) < 4.0 * vals[0]           # bounded, no runaway growth
    assert series_lhs(desk_params, 1) > series_lhs(desk_params, 10**6)


def test_trivial_bound_witness_is_the_direct_one(odd_base):
    # k = 30437 and its twin 59049 - 30437 = 28612 tie in exact arithmetic;
    # the table alone can pick either, the direct sum picks 30437
    params, con = odd_base
    level = con.levels[5]
    ks = _verify_frequencies(params, 4, full=False)
    rep = trivial_bound_check(params, level, 5, ks)
    assert rep["worst_k"] == 30437
    ks = ks[ks != 0]
    sums = exp_sum(restricted_atoms(params, level, 5), ks, params.period(5))
    coeffs = np.abs(prefactor(ks, params.period(5)) * sums * 4.0 ** -5)
    bound = 9**5 * 4.0 ** (-5 / 2) / (np.pi * np.abs(ks).astype(np.float64))
    ratio = coeffs / bound
    assert rep["max_ratio"] == ratio.max()
    assert rep["worst_k"] == ks[ratio.argmax()]


def test_telescope_witness_is_the_direct_one(odd_base):
    params, con = odd_base
    lo, hi = con.levels[4], con.levels[5]
    ks = _verify_frequencies(params, 4, full=False)
    rep = telescope_check(params, lo, hi, ks, ell=4)
    ks = ks[ks != 0]

    def coef(level):
        period = params.period(level.j)
        sums = exp_sum(restricted_atoms(params, level, 4), ks, period)
        return prefactor(ks, period) * sums * 4.0 ** -level.j

    envelope = np.minimum(1.0, 9**5 / np.abs(ks).astype(np.float64))
    rhs = rep.constant * envelope * 4 ** (-5 / 2) * math.log(8 * 9**5)
    ratio = np.abs(coef(hi) - coef(lo)) / rhs
    assert rep.max_ratio == ratio.max()
    assert rep.worst_k == ks[ratio.argmax()]
