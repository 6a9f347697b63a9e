import re
import warnings

import numpy as np
import pytest

from mrfmap.files import real_rows


def nonfinite_rows():
    rows = np.ones((6, 3))
    rows[1, 2], rows[3, 0], rows[4, 1] = np.nan, np.inf, -np.inf
    rows[5, 0], rows[5, 2] = np.inf, -np.inf  # its float64 sum is NaN
    return rows


# (values, width, dtype, the refusal or None for an accepted array)
GATE_CASES = {
    "complex": (np.ones((2, 3)) * 1j, 3, np.float64, "complex x;"),
    "one_dimensional": (np.ones(3), 3, np.float64, "x must be (B, 3), got (3,)"),
    "three_dimensional": (np.ones((2, 3, 1)), 3, np.float64,
                          "x must be (B, 3), got (2, 3, 1)"),
    "wrong_width": (np.ones((2, 4)), 3, np.float64, "x must be (B, 3), got (2, 4)"),
    "zero_width": (np.ones((2, 0)), None, np.float64,
                   "x must be (B, N) with N >= 1, got (2, 0)"),
    "nonfinite_rows": (nonfinite_rows(), 3, np.float64,
                       "x holding NaN or inf at rows [1, 3, 4, 5]"),
    # The cast to float32 overflows to inf, with no RuntimeWarning first;
    # the row was finite, so it is named as beyond float32.
    "float32_overflow": (np.array([[1.0], [1e39]]), 1, np.float32,
                         "x beyond float32 at rows [1]"),
    "nonfinite_and_overflow": (np.array([[1e39, 1.0], [np.nan, 1e39], [1.0, 1.0]]), 2,
                               np.float32,
                               "x holding NaN or inf at rows [1] and beyond float32 at rows [0]"),
    # A Python int beyond int64 makes an object array.
    "int_overflow": ([[1], [10**39]], 1, np.float32, "x beyond float32 at rows [1]"),
    # Its float64 row sum overflows, but the row is finite.
    "huge_finite": (np.array([[1e308, 1e308]]), 2, np.float64, None),
    "c_contiguous": (np.arange(6.0).reshape(2, 3), None, np.float64, None),
    "fortran_order": (np.asfortranarray(np.arange(6.0).reshape(2, 3)), 3, np.float64, None),
    "float32_from_list": ([[0.5, 2.0]], 2, np.float32, None),
    "no_rows": (np.empty((0, 3)), 3, np.float64, None),
}


@pytest.mark.parametrize("values, width, dtype, refusal", GATE_CASES.values(),
                         ids=list(GATE_CASES))
def test_real_rows(values, width, dtype, refusal):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refusal:
            with pytest.raises(ValueError, match=re.escape(refusal)):
                real_rows("x", values, width, dtype)
            return
        rows = real_rows("x", values, width, dtype)
    assert rows.dtype == dtype and rows.flags.c_contiguous
    assert np.array_equal(rows, values)
    # An array already C-contiguous in ``dtype`` is passed on, not copied.
    as_is = (isinstance(values, np.ndarray) and values.dtype == dtype
             and values.flags.c_contiguous)
    assert (rows is values) == as_is
    assert np.shares_memory(rows, values) == (as_is and rows.size > 0)
