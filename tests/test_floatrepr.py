import numpy as np
from hypothesis import given, settings, strategies as st

from salemlab.floatrepr import WIDTH, float_rows, int_rows


def _spelled(x, rows=float_rows) -> list[str]:
    """The string that each row of ``rows(x)`` spells."""
    rows = rows(x)
    assert rows.shape == (len(x), WIDTH) and not rows[:, -1].any()
    lines = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
    return lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1]


def test_random_bit_patterns_spell_their_repr():
    # uniform bit patterns hold nan, +-inf, subnormals and negatives
    bits = np.random.default_rng(2018).integers(0, 2**64, 2**20, dtype=np.uint64)
    x = bits.view(np.float64)
    assert _spelled(x) == [repr(v) for v in x.tolist()]


EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         1e15, 1e16, 2.0**53 + 1, 0.1, 1e-4, 1e-5, 123456.5]


def test_edge_values_spell_their_repr():
    # the boundaries of the fixed notation, powers of ten (exact up to 1e22,
    # the shortest of their neighbours beyond), subnormals and the extremes
    values = EDGES + [10.0**e for e in range(-300, 300)]
    x = np.array(values + [-v for v in values] + [np.nan, np.inf, -np.inf])
    assert _spelled(x) == [repr(v) for v in x.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_hypothesis_floats_spell_their_repr(values):
    assert _spelled(np.array(values)) == [repr(v) for v in values]


def test_digit_count_sweep_spells_its_repr():
    # random decimals of 1..17 significant digits at scientific exponents
    # across the fixed/scientific boundaries (-5..17), the subnormals and the
    # extremes, each with its one-ulp neighbours, and the exact powers of 2
    # and 10: short decimals make Ryu drop many digits (every count from 0 to
    # 18), and the exact ones take the path that drops an exact vm's zeros
    rng = np.random.default_rng(17)
    exponents = [*range(-5, 18), -323, -320, -315, -310, -308, -307, -200, 200, 307, 308]
    x = np.array([float(f"{s}e{e - nd + 1}")
                  for nd in range(1, 18) for e in exponents
                  for s in rng.integers(10 ** (nd - 1), 10**nd, 16).tolist()])
    x = x[np.isfinite(x) & (x != 0)]
    x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
                        2.0 ** np.arange(-1074, 1024),
                        [float(f"1e{e}") for e in range(-323, 309)]])
    x = np.concatenate([x, -x])
    assert _spelled(x) == [repr(v) for v in x.tolist()]


def test_blocks_with_and_without_exact_large_values_spell_their_repr():
    # values of 2^54 and above take the exactness test by 5^q (2^54 + 4 and
    # 1.75 * 2^54 spell one digit short without it); a block with none of
    # them skips it
    big = [1.5 * 2.0**60, 2.0**54 + 4, 1.75 * 2.0**54, 2.0**55 + 8, 1e22]
    small = [0.1, 1.0, 123456.5, 2.0**53 + 2, 1e-300]
    for values in (small, big + small, [v for pair in zip(big, small) for v in pair]):
        x = np.array(values + [-v for v in values])
        assert _spelled(x) == [repr(v) for v in x.tolist()]


def test_int_rows_spell_each_int64():
    tens = [10**e + d for e in range(19) for d in (-1, 0, 1)]
    ks = [0, -2**63, -2**63 + 1, 2**63 - 1] + tens + [-k for k in tens]
    ks += np.random.default_rng(63).integers(-2**63, 2**63 - 1, 2**14, dtype=np.int64).tolist()
    assert _spelled(np.array(ks, dtype=np.int64), int_rows) == [str(k) for k in ks]
