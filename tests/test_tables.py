"""Tests for the one CSV writer shared by every table."""

import io

import numpy as np
import pytest

from kaczmarz_lab.tables import write_table


def _write(columns, **kw):
    fh = io.StringIO()
    write_table(fh, columns, **kw)
    return fh.getvalue()


def test_cell_formats():
    text = _write({
        "i": range(3),
        "k": np.array([1, 5, 20]),
        "name": ["a", "b", "c"],
        "x": [0.1, np.float64(1) / 3, 2],
    })
    assert text == "i,k,name,x\n0,1,a,0.1\n1,5,b,0.3333333333333333\n2,20,c,2\n"


def test_float_cells_round_trip():
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                             [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e-7, 0.1 + 0.2]])
    rows = _write({"v": values}).splitlines()
    assert rows[0] == "v"
    parsed = [float(cell) for cell in rows[1:]]
    assert len(parsed) == values.size
    assert all(p == v for p, v in zip(parsed, values))
    assert "-0.0" in rows


def test_float_column_of_integer_values_keeps_the_point():
    # a float that happens to be whole is still written as a float
    assert _write({"omega": [1.0, np.float64(2.0)]}) == "omega\n1.0\n2.0\n"


def test_no_header():
    assert _write({"k": [1, 2], "v": [0.5, 0.25]}, header=False) == "1,0.5\n2,0.25\n"


def test_unequal_lengths_raise():
    fh = io.StringIO()
    with pytest.raises(ValueError, match="differ in length"):
        write_table(fh, {"a": [1, 2, 3], "b": [0.5, 0.25]})
    assert fh.getvalue() == ""
