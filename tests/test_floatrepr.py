import numpy as np
from hypothesis import given, settings, strategies as st

from salemlab.floatrepr import WIDTH, float_rows


def _spelled(x) -> list[str]:
    """The string that each row of ``float_rows(x)`` spells."""
    rows = float_rows(x)
    assert rows.shape == (len(x), WIDTH)
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
