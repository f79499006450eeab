import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from salemlab import (
    SpectralError, build_construction, compute_spectrum, decay_report,
    derive_params, exp_sum, f_mu_hat,
    restricted_atoms, telescope_check, trivial_bound_check,
)
from salemlab import checks, expsums
from salemlab.checks import _verify_frequencies
from salemlab.construction import ConstructionError, deviation_measure
from salemlab.spectral import Spectrum, exp_sum_all, prefactor
from _oracles import f_mu_hat_real


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
    naive = exp_sum(atoms, ks, period)
    fft = exp_sum_all(atoms, period)[ks % period]
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


def _plan_read(atoms, ks, period, weights=1.0):
    """S(ks) in the order of ks, read through one plan of them."""
    plan = expsums.Frequencies(ks, period)
    s = np.empty(len(plan), dtype=np.complex128)
    for at, sums in plan.sums(atoms, weights=weights):
        s[at] = sums
    return s


def _assert_whole_period_matches(atoms, period, got):
    """``exp_sum_all`` against the plan's reads ``got`` of k in [0, period):
    bit for bit, except in the self-mirrored classes 0 and M/2 above
    period / 2, where the plan reads the twin's conjugate and the whole
    period the class's own table entry."""
    B, M = expsums.split(period)
    whole, k = exp_sum_all(atoms, period), np.arange(period)
    own = (2 * (k % M) % M == 0) & (k > period // 2)
    assert np.array_equal(whole[~own], got[:period][~own])
    assert np.abs(whole[own] - got[:period][own]).max() < 1e-11 * len(atoms)


def test_few_frequencies_read_the_tables(odd_base, monkeypatch):
    # two frequencies, far fewer than the period: one table of one class is
    # built all the same, and agrees with the direct sum
    params, con = odd_base
    atoms = restricted_atoms(params, con.levels[4], 2)
    period = params.period(4)
    ks = np.array([7919, 2 * 7919], dtype=np.int64)
    tables = []
    class_sums = expsums.class_sums
    monkeypatch.setattr(expsums, "class_sums",
                        lambda *a, **kw: tables.append(a) or class_sums(*a, **kw))
    got = _plan_read(atoms, ks, period)
    assert len(tables) == 1
    direct = exp_sum(atoms, ks, period)
    assert np.abs(got - direct).max() < 1e-11 * len(atoms)


@pytest.mark.parametrize("side", [-1, 0])
def test_cost_rule_boundary_agreement(odd_base, monkeypatch, side):
    # either side of the count at which one FFT costs as much as the direct
    # terms weighted by 20: no cost rule divides them, both read one table
    # and agree with the direct sum
    params, con = odd_base
    atoms = restricted_atoms(params, con.levels[4], 2)
    period = params.period(4)
    n_table = math.ceil(period * math.log2(period) / (20 * len(atoms)))
    ks = np.arange(1, n_table + side + 1, dtype=np.int64) * 7919
    tables = []
    class_sums = expsums.class_sums
    monkeypatch.setattr(expsums, "class_sums",
                        lambda *a, **kw: tables.append(a) or class_sums(*a, **kw))
    got = _plan_read(atoms, ks, period)
    assert len(tables) == 1
    direct = exp_sum(atoms, ks, period)
    assert np.abs(got - direct).max() < 1e-11 * len(atoms)


def test_scalar_frequency_goes_direct(odd_base, monkeypatch):
    params, con = odd_base
    monkeypatch.setattr(expsums, "class_sums", None)
    level, period = con.levels[5], params.period(5)
    assert f_mu_hat(params, level, 0, 30437) == (
        prefactor(30437, period) * exp_sum(level.atoms, 30437, period) * 4.0 ** -5)


def test_plan_above_the_budget_is_refused(odd_base, monkeypatch):
    # a period above FFT_BUDGET builds no plan, so no spectrum or screen
    # reads it (``analyze --spectrum`` exits 3: test_cli)
    params, con = odd_base
    level = con.levels[3]
    period = params.period(3)
    ks = np.arange(-50, 3000, 7, dtype=np.int64)
    monkeypatch.setattr(expsums, "FFT_BUDGET", period - 1)
    refused = f"transform length {period} exceeds"
    with pytest.raises(SpectralError, match=refused):
        expsums.Frequencies(ks, period)
    with pytest.raises(SpectralError, match=refused):
        compute_spectrum(params, level, ks)
    with pytest.raises(SpectralError, match=refused):
        trivial_bound_check(params, level, 1, ks)


def _half_table_gather(atoms, ks, period):
    """S(ks) from one complex FFT over the period, read on its half
    [0, period / 2] and mirrored above it: the one-class table, written
    out."""
    ind = np.zeros(period, dtype=np.complex128)
    ind[atoms] = 1.0
    whole = np.fft.fft(ind)
    m = ks % period
    mirrored = m > period // 2
    m[mirrored] = period - m[mirrored]
    s = whole[m]
    s[mirrored] = s[mirrored].conj()
    return s


def _signed_repeated(rng, atoms):
    """The atoms with their first three repeated, and signed weights."""
    points = np.append(atoms, atoms[:3])
    return points, np.append(rng.uniform(-1, 1, len(atoms)), [0.5, -2.0, 1.0])


def _direct_weighted(points, weights, ks, period):
    terms = np.exp(-2j * np.pi * (points[:, None] * ks[None, :] % period) / period)
    return (weights[:, None] * terms).sum(axis=0)


@pytest.mark.parametrize("period", [4096, 6561])
def test_half_table_mirrors_to_the_direct_sums(period):
    # one class: the whole period's table, read on its half, bit for bit
    rng = np.random.default_rng(period)
    atoms = rng.choice(period, size=40, replace=False)
    ks = np.concatenate([np.arange(period), [-1, -period // 2, 3 * period + 5]])
    got = _plan_read(atoms, ks, period)
    assert expsums.split(period) == (period, 1)
    assert np.array_equal(got, _half_table_gather(atoms, ks, period))
    assert np.abs(got - exp_sum(atoms, ks, period)).max() < 1e-11 * len(atoms)
    _assert_whole_period_matches(atoms, period, got)
    # conjugate twins read the same table entry, mirrored
    assert np.array_equal(got[1:period], got[period - 1 : 0 : -1].conj())
    assert _plan_read(atoms, [period - 7], period)[0] == got[period - 7]
    # unit weights given explicitly change no bit
    ones = np.ones(len(atoms))
    assert np.array_equal(_plan_read(atoms, ks, period, weights=ones), got)
    assert np.array_equal(exp_sum(atoms, ks, period, weights=ones),
                          exp_sum(atoms, ks, period))
    # signed weights on a repeated atom, the table and the direct sum
    points, weights = _signed_repeated(rng, atoms)
    want = _direct_weighted(points, weights, ks, period)
    scale = 1e-11 * np.abs(weights).sum()
    weighted = _plan_read(points, ks, period, weights=weights)
    assert np.abs(weighted - want).max() < scale
    assert np.abs(exp_sum(points, ks, period, weights=weights) - want).max() < scale
    assert np.array_equal(weighted[1:period], weighted[period - 1 : 0 : -1].conj())


@pytest.mark.parametrize("period, block", [(16**4, 2**12), (9**4, 729), (25**3, 3125)],
                         ids=["16^4-M16", "9^4-M9", "25^3-M5"])
def test_class_gather_matches_the_direct_sums(monkeypatch, period, block):
    # a block below the period splits it into M classes; even M has the
    # class M/2, which mirrors onto itself like class 0
    monkeypatch.setattr(expsums, "BLOCK", block)
    B, M = expsums.split(period)
    assert (B, B * M) == (block, period)
    rng = np.random.default_rng(period)
    atoms = rng.choice(period, size=40, replace=False)
    ks = np.concatenate([np.arange(period),
                         [0, period // 2, period - 1, period, 3 * period + 7,
                          -1, -(period // 2), -3 * period - 7]])
    got = _plan_read(atoms, ks, period)
    assert np.abs(got - exp_sum(atoms, ks, period)).max() < 1e-11 * len(atoms)
    _assert_whole_period_matches(atoms, period, got)
    # twins read the same entry, mirrored: across the paired classes c and
    # M - c, and inside classes 0 and M/2
    assert np.array_equal(got[1:period], got[period - 1 : 0 : -1].conj())
    # k, k + P, k - P and -k read one entry
    extra = got[period:]
    assert extra[3] == got[0] and extra[4] == got[7] and extra[5] == got[period - 1]
    assert extra[7] == got[7].conj()
    # unit weights given explicitly change no bit
    ones = np.ones(len(atoms))
    assert np.array_equal(_plan_read(atoms, ks, period, weights=ones), got)
    # signed weights on a repeated atom, against the direct sum, with the
    # same exact twins
    points, weights = _signed_repeated(rng, atoms)
    want = _direct_weighted(points, weights, ks, period)
    scale = 1e-11 * np.abs(weights).sum()
    weighted = _plan_read(points, ks, period, weights=weights)
    assert np.abs(weighted - want).max() < scale
    assert np.abs(exp_sum(points, ks, period, weights=weights) - want).max() < scale
    assert np.array_equal(weighted[1:period], weighted[period - 1 : 0 : -1].conj())
    # the half classes hold every k up to its twin
    covered = set()
    for kb, sums, mirrored in expsums.half_classes(period):
        assert len(kb) == B
        assert mirrored == (0 < 2 * kb[0] < period // B)
        assert np.abs(sums(atoms) - got[kb]).max() < 1e-11 * len(atoms)
        assert np.abs(sums(points, weights=weights) - want[kb]).max() < scale
        assert np.array_equal(sums(atoms, weights=ones), sums(atoms))
        covered.update(np.minimum(kb, period - kb).tolist())
    assert covered == set(range(period // 2 + 1))


def _classwise_gather(atoms, ks, period, weights=1.0):
    """S(ks) read class by class without a plan: each k folded onto its
    twin where mirrored, each class met found by a mask and read from its
    own table."""
    residues = np.asarray(atoms, dtype=np.int64) % period
    B, M = expsums.split(period)
    m = np.asarray(ks, dtype=np.int64) % period
    c = m % M
    mirrored = (m > period // 2) & (2 * c % M == 0) | (2 * c > M)
    m[mirrored] = period - m[mirrored]
    c = m % M
    s, x = np.empty(len(m), dtype=np.complex128), np.empty(B, dtype=np.complex128)
    for cls in np.flatnonzero(np.bincount(c, minlength=M)):
        at = np.flatnonzero(c == cls)
        s[at] = expsums.class_sums(residues, period, x, cls, weights=weights)[m[at] // M]
    np.negative(s.imag, out=s.imag, where=mirrored)
    return s


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plan_sums_assemble_to_the_classwise_gather(data):
    # one class (M = 1), even M and odd M, with blocks of BLOCK positions;
    # one plan serves several atom sets, with unit or signed weights
    period, block, M = data.draw(st.sampled_from(
        [(81, 81, 1), (4096, 256, 16), (1000, 100, 10), (2187, 243, 9), (3125, 625, 5)]))
    # k from [-3P, 3P], some of them the twins' edges 0, P/2, P and -P/2
    n = data.draw(st.integers(1, 300))
    ks = np.random.default_rng(data.draw(st.integers(0, 2**32))).integers(
        -3 * period, 3 * period + 1, size=n)
    ks[: n // 8] = np.resize([0, period // 2, period, -(period // 2)], n // 8)
    with mock.patch.object(expsums, "BLOCK", block):
        assert expsums.split(period) == (block, M)
        plan = expsums.Frequencies(ks, period)
        for _ in range(data.draw(st.integers(1, 3))):
            atoms = np.array(data.draw(st.lists(st.integers(0, 4 * period),
                                                min_size=1, max_size=40)))
            weights = 1.0
            if data.draw(st.booleans()):
                weights = np.array(data.draw(st.lists(
                    st.floats(-2, 2), min_size=len(atoms), max_size=len(atoms))))
            got = np.full(len(ks), np.nan, dtype=np.complex128)
            positions = []
            for at, sums in plan.sums(atoms, weights=weights):
                assert at.dtype == np.int32 and len(at) <= block
                got[at] = sums
                positions += at.tolist()
            assert sorted(positions) == list(range(len(ks)))
            want = _classwise_gather(atoms, ks, period, weights)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            read = _plan_read(atoms, ks, period, weights=weights)
            assert np.array_equal(read.view(np.uint64), want.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_half_class_parseval_equals_the_all_class_sum(data):
    # one class (M = 1), even M and odd M: a class 0 < c < M/2 counts for
    # its mirror M - c, and one class is the all-class sum bit for bit
    period, block, M = data.draw(st.sampled_from(
        [(81, 81, 1), (4096, 4096, 1), (4096, 256, 16), (1000, 100, 10),
         (2187, 243, 9), (3125, 625, 5)]))
    atoms = np.array(data.draw(st.lists(st.integers(0, period - 1), min_size=1,
                                        max_size=60, unique=True)))
    with mock.patch.object(expsums, "BLOCK", block):
        assert expsums.split(period) == (block, M)
        x = np.empty(block, dtype=np.complex128)
        every = sum(float(np.sum(np.abs(expsums.class_sums(atoms, period, x, c)) ** 2))
                    for c in range(M))
        half = checks._plancherel_sum(atoms, period)
    if M == 1:
        assert half == every
    assert half == pytest.approx(every, rel=1e-13, abs=0)
    assert half == pytest.approx(period * len(atoms), rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2**62, 2**62) | st.integers(-8, 8), max_size=200))
@example([])
@example([3, -1, 3, -2**63, -1, 0, 2**63 - 1, 3])
def test_sorted_unique_equals_numpy_unique(values):
    # small values repeat; an empty list keeps the int64 dtype
    values = np.array(values, dtype=np.int64)
    got = expsums.sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_exp_sum_scalar_and_zero():
    assert exp_sum([0, 3, 5], 0, 64) == pytest.approx(3.0)
    val = exp_sum([1], 7, 64)
    assert val == pytest.approx(np.exp(-2j * np.pi * 7 / 64))


def test_exp_sum_all_budget(monkeypatch):
    monkeypatch.setattr(expsums, "FFT_BUDGET", 2**10)
    with pytest.raises(SpectralError, match="budget"):
        exp_sum_all([0], 2**12)


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
        assert complex(f_mu_hat(desk_params, level, 0, 0)) == pytest.approx(1.0, abs=1e-13)
        for ell in range(0, level.j + 1):
            got = complex(f_mu_hat(desk_params, level, ell, 0))
            assert got == pytest.approx(
                desk_params.t ** (-ell / 2), abs=1e-12
            )
        with pytest.raises(ValueError,
                           match=f"ell={level.j + 1} exceeds level j={level.j}"):
            f_mu_hat(desk_params, level, level.j + 1, 0)


def test_mu_hat_periodic_in_k_up_to_prefactor(desk_params, desk):
    level = desk.levels[3]
    period = desk_params.period(3)
    k = np.array([5, 5 + period, 5 + 2 * period], dtype=np.int64)
    vals = f_mu_hat(desk_params, level, 0, k)
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


def test_spectrum_csv_streams_the_per_row_format(tmp_path, desk_params, desk):
    spec = compute_spectrum(desk_params, desk.levels[4],
                            np.arange(2**16, dtype=np.int64))
    out = tmp_path / "spec.csv"
    tracemalloc.start()
    try:
        spec.to_csv(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the joined rows and their copy took 16.6 MiB; 4096-row blocks, or k
    # formatted for the whole spectrum at once, pass 2 MiB
    assert peak < 2 * 2**20
    want = "k,re,im,abs\n" + "".join(
        f"{int(k)},{float(c.real)!r},{float(c.imag)!r},{float(abs(c))!r}\n"
        for k, c in zip(spec.ks, spec.coefficients))
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("ks, coefficients", [
    ([-2**63, -65536, -1, 0, 7, 2**63 - 1],
     [1 + 0j, -0.0 - 2.5e-7j, 1e16 + 1e-5j, complex("nan+infj"), 3 - 4j, 5e-324j]),
    ([5], [0.1 + 0.2j]),
    ([], []),
])
def test_spectrum_csv_spells_every_row_as_the_per_row_format(tmp_path, ks, coefficients):
    spec = Spectrum(j=0, weight="mu", ks=np.array(ks, dtype=np.int64),
                    coefficients=np.array(coefficients, dtype=np.complex128))
    out = tmp_path / "spec.csv"
    spec.to_csv(out)
    want = "k,re,im,abs\n" + "".join(f"{k},{c.real!r},{c.imag!r},{abs(c)!r}\n"
                                     for k, c in zip(ks, coefficients))
    assert out.read_bytes() == want.encode()


def test_hypot_is_abs_of_complex_on_the_desk_level_4_spectra(desk_params, desk):
    # the CSV's abs column; np.abs differs in the last digit on about a third
    for ell in range(3):
        c = compute_spectrum(desk_params, desk.levels[4], np.arange(2**16), ell=ell).coefficients
        assert np.hypot(c.real, c.imag).tolist() == [abs(v) for v in c.tolist()]


def test_telescope_bounds_hold(desk_params, desk):
    for j in range(1, 5):
        reps = telescope_check(desk_params, desk.levels[j], desk.levels[j + 1])
        assert [rep["ell"] for rep in reps] == list(range(j + 1))
        for rep in reps:
            assert rep["passed"], (j, rep["ell"], rep["max_ratio"], rep["worst_k"])
            # every residue pair {k, P - k}, k != 0, read once
            assert rep["checked"] == desk_params.period(j + 1) // 2


def test_telescope_needs_consecutive_levels(desk_params, desk):
    with pytest.raises(ConstructionError, match="nesting breach"):
        telescope_check(desk_params, desk.levels[1], desk.levels[3])


@pytest.mark.parametrize("ks", [[0], [], np.zeros(3, dtype=np.int64)])
def test_trivial_bound_needs_a_nonzero_frequency(desk_params, desk, ks):
    # as an array (k = 0 dropped) and as a plan at the level's period
    level = desk.levels[2]
    for given in (ks, expsums.Frequencies(ks, desk_params.period(2))):
        with pytest.raises(SpectralError, match="nonempty set of nonzero frequencies"):
            trivial_bound_check(desk_params, level, 1, given)


def test_trivial_bound(desk_params, desk):
    ks = np.arange(1, 2**14, dtype=np.int64)
    for level in desk.levels[1:]:
        for ell in range(0, level.j + 1):
            rep = trivial_bound_check(desk_params, level, ell, ks)
            assert rep["passed"], rep


def test_one_level_4_spectrum_stays_small(desk_params, desk):
    # a spectrum is filled class by class in blocks of at most BLOCK
    # frequencies: 5.69 MiB of temporaries when it was formed whole
    ks = np.arange(65536, dtype=np.int64)
    tracemalloc.start()
    try:
        spec = compute_spectrum(desk_params, desk.levels[4], ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spec.coefficients) == len(ks)
    assert peak < 4.5 * 2**20


def test_one_level_4_telescoping_screen_stays_small(desk_params, desk):
    # the step 4 -> 5 reads every residue of P = 16^5 class by class, with
    # the five windows' tables of one class held at a time: about 1.6 MiB
    tracemalloc.start()
    try:
        reps = telescope_check(desk_params, desk.levels[4], desk.levels[5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep["passed"] for rep in reps)
    assert peak < 2 * 2**20


def test_decay_report_shape():
    ks = np.arange(1, 4096)
    coeffs = 1.0 / np.sqrt(1.0 + ks)          # exact beta = 1 model decay
    rep = decay_report(ks, coeffs, beta=0.5)
    assert set(rep.dyadic_maxima) == set(range(0, 12))
    assert rep.fitted_exponent == pytest.approx(-0.5, abs=0.05)
    # weighted maxima decrease since the model decays faster than beta/2
    vals = [rep.dyadic_maxima[m] for m in sorted(rep.dyadic_maxima)]
    assert vals[0] > vals[-1]


def test_decay_report_counts_the_most_negative_frequency():
    # |-2^63| overflows int64 back to -2^63; as a uint64 it is 2^63, octave 63
    rep = decay_report(np.array([-2**63, 5], dtype=np.int64), [1.0, 1.0], 0.5)
    assert set(rep.dyadic_maxima) == {2, 63}


def test_decay_report_octaves_are_integer_floors_of_log2():
    # np.log2 rounds a uint64 |k| to float: 2^m - 1 above 2^48 read as 2^m
    for m in range(1, 63):
        for k, octave in ((2**m - 1, m - 1), (2**m, m), (2**m + 1, m)):
            assert set(decay_report([k, -k], [1.0, 1.0], 0.5).dyadic_maxima) == {octave}
    rep = decay_report([-2**63, 2**63 - 1, 2**54 - 1, 5], [1.0] * 4, 0.5)
    assert set(rep.dyadic_maxima) == {2, 53, 62, 63}


@pytest.mark.parametrize("seed", range(6))
def test_decay_slope_is_the_least_squares_fit(seed):
    # the closed-form slope against np.polyfit's over random octave maxima
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, 2**rng.integers(3, 21), 3000)
    coeffs = (rng.standard_normal(3000) + 1j) * ks ** -rng.uniform(0.2, 1.5)
    rep = decay_report(ks, coeffs, beta=0.5)
    octaves = np.floor(np.log2(ks)).astype(int)
    xs = np.unique(octaves)
    ys = [np.log2(np.abs(coeffs[octaves == m]).max()) for m in xs]
    assert rep.fitted_exponent == pytest.approx(np.polyfit(xs, ys, 1)[0], rel=1e-12)


def test_decay_report_forms_no_spectrum_length_array(odd_base):
    # analyze's call on odd-base level 4: its ell = 0 spectrum over
    # arange(65536), k = 0 included; dropping k = 0 from |k| and |coef| over
    # the whole spectrum peaked at 2.13 MiB above these inputs
    params, con = odd_base
    ks = np.arange(2**16, dtype=np.int64)
    coeffs = compute_spectrum(params, con.levels[4], ks).coefficients
    tracemalloc.start()
    try:
        rep = decay_report(ks, coeffs, beta=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2**20
    octaves = np.log2(ks[1:]).astype(int)
    weighted = (ks[1:] + 1.0) ** 0.25 * np.abs(coeffs[1:])
    assert rep.sup_constant == weighted.max()
    assert rep.dyadic_maxima == {int(m): weighted[octaves == m].max()
                                 for m in np.unique(octaves)}


def test_trivial_bound_witness_is_the_direct_one(odd_base):
    # k = 30437 and its twin 59049 - 30437 = 28612 tie in exact arithmetic;
    # the table alone can pick either, the direct sum picks 30437
    params, con = odd_base
    level = con.levels[5]
    ks = _verify_frequencies(params, 4)
    rep = trivial_bound_check(params, level, 5, ks)
    assert rep["worst_k"] == 30437
    ks = ks[ks != 0]
    sums = exp_sum(restricted_atoms(params, level, 5), ks, params.period(5))
    coeffs = np.abs(prefactor(ks, params.period(5)) * sums * 4.0 ** -5)
    bound = 9**5 * 4.0 ** (-5 / 2) / (np.pi * np.abs(ks).astype(np.float64))
    ratio = coeffs / bound
    assert rep["max_ratio"] == ratio.max()
    assert rep["worst_k"] == ks[ratio.argmax()]


@pytest.mark.parametrize("N0", [4, 3], ids=["even-base", "odd-base"])
def test_telescope_records_are_the_whole_line_maxima(N0):
    # each window's record against an independent scan of the coefficient
    # difference over the envelope bound at every k in [-4P, 4P] \ {0}: the
    # ratio is largest at a folded residue k' <= P/2, where it is read
    params = derive_params(N0, 2, 1, j_max=3, seed=7)
    con = build_construction(params)
    for lo, hi in zip(con.levels[:-1], con.levels[1:]):
        j, P, t = lo.j, params.period(lo.j + 1), params.t
        ks = np.arange(-4 * P, 4 * P + 1, dtype=np.int64)
        ks = ks[ks != 0]
        reps = telescope_check(params, lo, hi)
        assert [rep["ell"] for rep in reps] == list(range(j + 1))
        for rep in reps:
            ell = rep["ell"]
            diff = np.abs(f_mu_hat(params, hi, ell, ks) - f_mu_hat(params, lo, ell, ks))
            rhs = (2 * params.c_rot * np.minimum(1.0, P / np.abs(ks))
                   * t ** (-(j + 1) / 2) * math.log(8 * P))
            ratio = diff / rhs
            k = abs(int(ks[ratio.argmax()])) % P
            assert rep["max_ratio"] == pytest.approx(ratio.max(), rel=1e-12)
            assert rep["worst_k"] == min(k, P - k)
            assert rep["checked"] == P // 2


def test_telescope_reads_the_whole_period_maximum(desk_params, desk):
    # desk seed 7, step 4 -> 5, window 2: the maximum over k = 1..P - 1 of a
    # direct scan of the deviation measure is 1.2716e-5; a sample of 72k
    # frequencies read 1.2024e-5
    rep = telescope_check(desk_params, desk.levels[4], desk.levels[5])[2]
    assert rep["max_ratio"] == pytest.approx(1.2716183401837e-05, rel=1e-9)


@pytest.mark.parametrize("N0", [4, 3], ids=["even-base", "odd-base"])
def test_telescope_sum_is_the_coefficient_difference(N0):
    # prefactor(k, P) t^(-j) s(k), s the deviation measure's sum at period P,
    # is coef_{j+1}(k) - coef_j(k) for every k in [-4P, 4P], the multiples
    # of Q and of P among them
    params = derive_params(N0, 2, 1, j_max=3, seed=7)
    con = build_construction(params)
    for lo, hi in zip(con.levels[:-1], con.levels[1:]):
        j, P = lo.j, params.period(lo.j + 1)
        ks = np.arange(-4 * P, 4 * P + 1, dtype=np.int64)
        for ell in range(j + 1):
            points, weights = deviation_measure(
                params, restricted_atoms(params, lo, ell),
                restricted_atoms(params, hi, ell))
            signed = (prefactor(ks, P) * _plan_read(points, ks, P, weights=weights)
                      * float(params.t) ** -j)
            coef_lo = f_mu_hat(params, lo, ell, ks)
            diff = f_mu_hat(params, hi, ell, ks) - coef_lo
            assert np.abs(signed - diff).max() <= 1e-12 * np.abs(coef_lo).max()


def test_verify_builds_each_frequency_set_once(odd_base, monkeypatch):
    # telescoping j -> j + 1 and the trivial bound of level j + 1 share the
    # set of j
    params, con = odd_base
    calls = []
    monkeypatch.setattr(checks, "_verify_frequencies",
                        lambda p, j: calls.append(j) or _verify_frequencies(p, j))
    # ... and each set is folded and split once, at its period N^(j+1)
    plans = []
    init = expsums.Frequencies.__init__
    monkeypatch.setattr(expsums.Frequencies, "__init__",
                        lambda self, k, period: plans.append(period)
                        or init(self, k, period))
    assert all(c["passed"] for c in checks.run_verification(con))
    assert calls == list(range(params.j_max))
    assert plans == [params.period(j + 1) for j in range(params.j_max)]


@pytest.mark.parametrize("config", ["desk", "odd_base"])
def test_verify_screens_equal_the_checks_called_alone(request, monkeypatch, config):
    # every trivial-bound report of run_verification, read through the plan
    # its level shares, equals the same check given the raw frequency array,
    # and the telescoping record is the worst of its per-window reports
    if config == "desk":
        params, con = request.getfixturevalue("desk_params"), request.getfixturevalue("desk")
    else:
        params, con = request.getfixturevalue("odd_base")
    seen = {}
    for name in ("telescope_check", "trivial_bound_check"):
        def traced(*args, check=getattr(checks, name), **kwargs):
            seen.setdefault(check, []).append((args, kwargs, check(*args, **kwargs)))
            return seen[check][-1][-1]
        monkeypatch.setattr(checks, name, traced)
    records = {r["name"]: r for r in checks.run_verification(con)}
    assert len(seen[trivial_bound_check]) == sum(j + 2 for j in range(params.j_max))
    for args, kwargs, got in seen[trivial_bound_check]:
        plan = args[3]
        assert isinstance(plan, expsums.Frequencies)
        j = next(j for j in range(params.j_max) if params.period(j + 1) == plan.period)
        assert trivial_bound_check(*args[:3], _verify_frequencies(params, j), **kwargs) == got
    # telescoping reads no plan: one call per step j -> j + 1, j >= 1
    assert [args[1].j for args, _, _ in seen[telescope_check]] == list(range(1, params.j_max))
    telescoping = [rep for *_, reps in seen[telescope_check] for rep in reps]
    worst = max(telescoping, key=lambda r: r["max_ratio"])
    record = records["telescoping"]
    assert record["max_ratio"] == worst["max_ratio"]
    assert record["witness"] == {"j": worst["j"], "ell": worst["ell"], "k": worst["worst_k"]}
    assert record["checked"] == sum(rep["checked"] for rep in telescoping)
