import math
from dataclasses import asdict, replace

import pytest
from hypothesis import given, strategies as st

from salemlab import ParamError, derive_params, make_progression


def test_desk_derivation(desk_params):
    p = desk_params
    assert (p.N, p.t, p.sqrt_t) == (16, 4, 2)
    assert p.alpha == 0.5
    assert p.period(3) == 16**3


def test_progression_desk(desk_params):
    prog = make_progression(desk_params)
    assert prog == [0, 15]


def test_eta_formula(desk_params):
    p = desk_params
    for j in range(1, 6):
        expected = math.sqrt(p.c_eta / p.t * math.log(8 * p.N ** (j + 2)))
        assert p.eta(j) == pytest.approx(expected, rel=1e-12)
        assert p.eta(j) >= 2.0   # desk scale sits in the trivial regime


def test_lambda_formulas(desk_params):
    p = desk_params
    for j in range(1, 5):
        lam = p.c_rot * p.t ** (-(j + 1) / 2) * math.log(8 * p.N ** (j + 1))
        assert p.lambda_rot_ell(j, 0) == pytest.approx(lam, rel=1e-12)
        for ell in range(1, j + 1):
            lam_ell = (
                p.c_rot * p.t ** (-(j + 1) / 2 + ell / 4)
                * math.log(8 * p.N ** (j + 1))
            )
            assert p.lambda_rot_ell(j, ell) == pytest.approx(lam_ell, rel=1e-12)


@given(n0=st.integers(1, 3), t0=st.integers(2, 4))
def test_derived_identities(n0, t0):
    N0 = t0 + 2
    p = derive_params(N0, t0, n0, j_max=2)
    assert p.N == N0 ** (2 * n0)
    assert p.t == t0 ** (2 * n0)
    assert p.sqrt_t**2 == p.t
    # alpha is exactly log t / log N
    assert p.t == pytest.approx(p.N**p.alpha, rel=1e-9)


def test_invalid_params_rejected():
    with pytest.raises(ParamError):
        derive_params(2, 2, 1)          # t0 >= N0
    with pytest.raises(ParamError):
        derive_params(4, 1, 1)          # t0 < 2
    with pytest.raises(ParamError):
        derive_params(4, 2, 0)          # n0 < 1
    with pytest.raises(ParamError):
        derive_params(4, 2, 1, j_max=-1)
    with pytest.raises(ParamError):
        derive_params(4, 2, 9, j_max=5)  # period overflows 62-bit frequencies


def test_progression_fits_block():
    p = derive_params(9, 3, 1, j_max=2)
    prog = make_progression(p)
    assert len(prog) == p.sqrt_t
    assert all(0 <= m < p.N for m in prog)
    assert len(set(prog)) == p.sqrt_t


def test_overrides_round_trip(desk_params):
    q = replace(desk_params, seed=11, c_rot=100.0)
    assert q.seed == 11 and q.c_rot == 100.0
    assert q.N == desk_params.N
    d = asdict(q)
    assert d["seed"] == 11 and d["c_rot"] == 100.0
