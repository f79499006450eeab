"""Acceptance gate: one test per release criterion, each recording a single
PASS/FAIL line that the terminal-summary hook prints after the run."""

import time
from fractions import Fraction

import numpy as np

from salemlab import (
    bspline_integers, energy_lower_bound, exact_l2r_norm, exp_sum, f_mu_hat,
    l2r_lower_bound, structured_mask, sum_distribution,
    telescope_check, trivial_bound_check, verify_construction,
)
from salemlab.cli import main as cli_main
from salemlab.energy import _centered_bspline_at
from salemlab.norms import (
    ball_condition_report, direct_mass, holder_chain_check, lp_norm,
    lp_norm_quadrature, thresholds,
)
from salemlab.spectral import compute_spectrum, exp_sum_all, restricted_atoms
from salemlab.storage import level_filename


from _acceptance_report import report
from _oracles import brute_force_energy


def test_criterion_01_determinism(tmp_path):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("N0 = 4\nt0 = 2\nn0 = 1\nj_max = 5\nseed = 7\n")
    a, b = tmp_path / "a", tmp_path / "b"
    t0 = time.monotonic()
    assert cli_main(["construct", "-c", str(cfg), "-o", str(a)]) == 0
    elapsed = time.monotonic() - t0
    assert cli_main(["construct", "-c", str(cfg), "-o", str(b)]) == 0
    identical = all(
        (a / level_filename(j)).read_bytes() == (b / level_filename(j)).read_bytes()
        for j in range(6)
    )
    report(1, "deterministic byte-identical construct in < 10 s",
           identical and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_02_structure(desk_params, desk):
    ok = all(
        len(level.atoms) == 4**level.j
        and structured_mask(desk_params, level, level.j).sum() == 2**level.j
        for level in desk.levels
    )
    verify_construction(desk)   # raises on any nesting breach
    report(2, "cardinalities 4^j / 2^j and exhaustive nesting", ok)


def test_criterion_03_exponential_sums(desk_params, desk):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        period = int(rng.choice([16, 256, 4096, 65536]))
        n = min(int(rng.integers(1, 25)), period)
        atoms = rng.choice(period, size=n, replace=False)
        k = rng.integers(0, 4 * period, size=3, dtype=np.int64)
        naive = exp_sum(atoms, k, period)
        fft = exp_sum_all(atoms, period, period)[k % period]
        worst = max(worst, float(np.abs(naive - fft).max()) / max(1.0, n))
    parseval_worst = 0.0
    for level in desk.levels:
        period = desk_params.period(level.j)
        total = float(np.sum(np.abs(exp_sum_all(level.atoms, period, period)) ** 2))
        expected = period * len(level.atoms)
        parseval_worst = max(parseval_worst, abs(total - expected) / expected)
    report(3, "FFT vs naive 1e-9 on 1000 cases; Parseval 1e-6",
           worst < 1e-9 and parseval_worst < 1e-6,
           f"fft={worst:.1e} parseval={parseval_worst:.1e}")


def test_criterion_04_normalization(desk_params, desk):
    worst = 0.0
    mass_ok = True
    for level in desk.levels:
        worst = max(worst, abs(complex(f_mu_hat(desk_params, level, 0, 0)) - 1.0))
        for ell in range(0, level.j + 1):
            got = complex(f_mu_hat(desk_params, level, ell, 0))
            worst = max(worst, abs(got - desk_params.t ** (-ell / 2)))
            mass_ok = mass_ok and direct_mass(desk_params, level, ell) == Fraction(
                1, desk_params.sqrt_t**ell
            )
    report(4, "coefficient normalization 1e-12 and exact mass identity",
           worst < 1e-12 and mass_ok, f"worst={worst:.1e}")


def test_criterion_05_telescoping(desk_params, desk):
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    for j in range(1, 5):
        for rep in telescope_check(desk_params, desk.levels[j], desk.levels[j + 1]):
            worst = max(worst, rep["max_ratio"])
            ok = ok and rep["passed"]
    elapsed = time.monotonic() - t0
    report(5, "level-step decay bound, C = 2 c_rot, at every integer k",
           ok and elapsed < 120.0, f"max ratio {worst:.2e}, {elapsed:.0f}s")


def test_criterion_06_trivial_bound(desk_params, desk):
    rng = np.random.default_rng(6)
    ks = np.concatenate([
        np.arange(1, 2**16, dtype=np.int64),
        rng.integers(2**16, 2**26, size=8192, dtype=np.int64),
    ])
    ok = True
    worst = 0.0
    for level in desk.levels[1:]:
        for ell in range(0, level.j + 1):
            rep = trivial_bound_check(desk_params, level, ell, ks)
            ok = ok and rep["passed"]
            worst = max(worst, rep["max_ratio"])
    report(6, "envelope bound N^j t^(-l/2) / (pi k) at all checked (j, l, k)",
           ok, f"max ratio {worst:.3f}")


def test_criterion_07_ball_condition(desk_params, desk):
    ok = True
    for level in desk.levels:
        rep = ball_condition_report(desk_params, level)
        ok = ok and rep["sup_adic_exact_one"] and rep["sup_window_ratio"] <= 2.0
    report(7, "adic mass ratio sup exactly 1; straddling windows <= 2", ok)


def test_criterion_08_energy_oracle(desk):
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(40):
        level = desk.levels[int(rng.integers(1, 6))]
        n = int(rng.integers(1, 13))
        n = min(n, len(level.atoms))
        Y = rng.choice(level.atoms, size=n, replace=False).tolist()
        for r in (1, 2, 3):
            ok = ok and sum_distribution(Y, r).M == brute_force_energy(Y, r)
    report(8, "convolution energy equals brute-force enumeration, |Y| <= 12", ok)


def test_criterion_09_energy_lower_bound(desk_params, desk):
    ok = True
    min_slack = None
    for j in range(0, 6):
        for ell in range(0, j + 1):
            for r in (2, 3):
                Y = restricted_atoms(desk_params, desk.levels[j], ell)
                table = sum_distribution(Y, r)
                lb = energy_lower_bound(desk_params, j, ell, r)
                good = (table.M >= lb["bound"]
                        and table.support_size <= lb["z_bound"])
                ok = ok and good
                slack = float(table.M / lb["bound"])
                min_slack = slack if min_slack is None else min(min_slack, slack)
    report(9, "structured energy and sumset-size lower bounds, r in {2,3}",
           ok, f"min M/bound {min_slack:.2f}")


def test_criterion_10_exact_vs_quadrature(desk_params, desk):
    t0 = time.monotonic()
    worst_even = 0.0
    worst_plancherel = 0.0
    for j in range(0, 5):
        level = desk.levels[j]
        for ell in range(0, min(j, 2) + 1):
            for r in (1, 2):
                exact = exact_l2r_norm(desk_params, level, ell, r)
                quad = lp_norm_quadrature(desk_params, level, [ell], 2.0 * r)[0]
                rel = abs(quad.value - exact["value_float"]) / exact["value_float"]
                worst_even = max(worst_even, rel)
                if r == 1:
                    y = desk_params.sqrt_t**ell * desk_params.t ** (j - ell)
                    closed = desk_params.N**j * float(desk_params.t) ** (-2 * j) * y
                    worst_plancherel = max(
                        worst_plancherel,
                        abs(exact["value_float"] - closed) / closed,
                        abs(quad.value - closed) / closed,
                    )
    elapsed = time.monotonic() - t0
    report(10, "B-spline exact vs quadrature 0.5%; Plancherel closed form 1e-6",
           worst_even < 5e-3 and worst_plancherel < 1e-6 and elapsed < 120.0,
           f"even={worst_even:.1e} plancherel={worst_plancherel:.1e}, {elapsed:.0f}s")


def _convolution_oracle(r, m):
    # 2r-fold convolution of the unit box on a midpoint grid of step 1/m,
    # read off at the center
    h = 1.0 / m
    box = np.ones(m)
    g = box.copy()
    for _ in range(2 * r - 1):
        g = np.convolve(g, box) * h
    return g[r * (m - 1)]


def test_criterion_11_bspline_table():
    exact_c2 = bspline_integers(1).C2r == 1
    richardson = {}
    for r in (2, 3):
        vals = [_convolution_oracle(r, m) for m in (128, 256, 512)]
        first = [(4 * b - a) / 3 for a, b in zip(vals, vals[1:])]
        richardson[r] = (16 * first[1] - first[0]) / 15
    c4_ok = abs(richardson[2] - float(Fraction(2, 3))) < 1e-10
    c6_ok = abs(richardson[3] - float(Fraction(11, 20))) < 1e-10
    unity_ok = True
    for r in range(1, 6):
        for x in (Fraction(0), Fraction(1, 3), Fraction(5, 7)):
            total = sum(
                _centered_bspline_at(2 * r, x - d) for d in range(-3 * r, 3 * r + 1)
            )
            unity_ok = unity_ok and total == 1
    report(11, "spline peaks match convolution oracle 1e-10; partition of unity",
           exact_c2 and c4_ok and c6_ok and unity_ok,
           f"C4 err {abs(richardson[2] - 2 / 3):.1e}, "
           f"C6 err {abs(richardson[3] - 0.55):.1e}")


def test_criterion_12_norm_lower_bound(desk_params, desk):
    ok = True
    for j in range(0, 6):
        for ell in range(0, j + 1):
            res = exact_l2r_norm(desk_params, desk.levels[j], ell, 3)
            lb = l2r_lower_bound(desk_params, ell, 3)
            ok = ok and res["value"] >= lb["bound"]
    report(12, "exact 6th-norm power >= C_6 N^l r^(-l-1) t^(-7l/2), r = 3", ok)


def test_criterion_13_holder_chain(desk_params, desk):
    ok = True
    min_slack = None
    for ell in range(0, 3):
        for p in (2.0, 3.0, 4.0):
            rep = holder_chain_check(desk_params, desk.levels[5], [ell], p, 3,
                                     lp_norm(desk_params, desk.levels[5], [ell], p))[0]
            ok = (ok and rep["chain_holds"] and rep["implied_holds"]
                  and rep["bound_3_1_holds"] and rep["slack"] >= -1e-9)
            rel = rep["slack"] / rep["rhs"]
            min_slack = rel if min_slack is None else min(min_slack, rel)
    report(13, "interpolation chain with nonnegative slack, p in {2,3,4}, r = 3",
           ok, f"min relative slack {min_slack:.2e}")


def test_criterion_14_thresholds():
    th = thresholds(0.5, beta=0.5, q=2.0)
    base_ok = (th["p_necessary"] == 4.0 and th["p_sharp"] == 6.0
               and th["p_mock"] == 6.0)
    # the exponent formula q(2 - alpha)/(alpha(q - 1)) gives 6 at q = 2;
    # the constant 3 = (2 - alpha)/alpha is its q -> infinity limit
    formula_ok = th["pq_bound"] == 6.0
    limit_ok = abs(thresholds(0.5, q=1e9)["pq_bound"] - 3.0) < 1e-6
    grid = np.linspace(0.05, 0.95, 19)
    mono = [thresholds(0.5, beta=b)["p_mock"] for b in grid]
    mono_ok = all(a > b for a, b in zip(mono, mono[1:]))
    report(14, "thresholds 4/6/6; exponent formula 6 at q=2 with limit 3; "
               "p_mock monotone",
           base_ok and formula_ok and limit_ok and mono_ok)


def test_criterion_15_decay_boundedness(desk_params, desk):
    level = desk.levels[4]
    spec = compute_spectrum(desk_params, level, 10**6 + 1)
    ks = spec.ks[1:]
    beta = 0.4
    weighted = np.abs(spec.coefficients[1:]) * (1.0 + ks) ** (beta / 2)
    octaves = np.floor(np.log2(ks)).astype(int)
    maxima = np.array([
        weighted[octaves == m].max() for m in range(0, int(octaves.max()) + 1)
    ])
    ratio = float(maxima.max() / np.median(maxima))
    report(15, "octave maxima of weighted coefficients bounded (max/median < 4)",
           ratio < 4.0, f"ratio {ratio:.2f}")
