"""Comparing float results bit for bit."""

import numpy as np


def same_floats(got, want) -> bool:
    """Bitwise equal, except that a nan matches any nan: CPython's float add
    returns either nan operand of `nan + -nan`, depending on whether the
    interpreter has specialized the add (a trace hook turns that off), so a
    nan's sign is not a property of the code."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return bool((np.isnan(got) == nan).all()) and got[~nan].tobytes() == want[~nan].tobytes()
