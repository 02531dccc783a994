"""The byte contract of numeric CSV cells: ``cli._format_rows`` writes
each cell as ``f"{x:.17g}"`` would, and refuses a non-finite one."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrogeo import cli

_EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
    1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0**53 + 2, 0.1,
])
_CELL = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _EDGES)


def _per_cell(rows):
    return [",".join(f"{x:.17g}" for x in row) for row in rows]


def _lines(blocks):
    return "\n".join(blocks).split("\n")


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda ncols: st.lists(st.lists(_CELL, min_size=ncols, max_size=ncols),
                           min_size=1, max_size=20)))
def test_rows_match_per_cell_format(rows):
    columns = [np.array(col) for col in zip(*rows)]
    assert _lines(cli._format_rows(*columns)) == _per_cell(rows)


def test_row_count_off_chunk_boundary():
    n = 2 * cli._CHUNK_ROWS + 3
    rng = np.random.default_rng(7)
    columns = [
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        np.arange(n, dtype=float),
        -np.linspace(0.0, 1.0, n),
    ]
    blocks = cli._format_rows(*columns)
    assert len(blocks) == 3
    assert _lines(blocks) == _per_cell(zip(*(c.tolist() for c in columns)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_cell_raises(bad):
    with pytest.raises(OverflowError, match="row 2, column 2"):
        cli._format_rows(np.zeros(3), np.array([1.0, bad, 2.0]))
