"""Sign-sum enumeration kernel, the package's one enumeration of sign vectors.

Rows follow the sign vectors in lexicographic order (+1 before -1, the first
sign most significant), so a row's signs are the bits of its index; each sum
is accumulated left to right from `start`, so sums compare bitwise. The sums
go into a new array or into the caller's `out`, of any memory layout.
"""

from __future__ import annotations

import numpy as np


def enumerate_signed_sums(coeffs: np.ndarray, start=0.0, out=None) -> np.ndarray:
    """All 2^n values of start + sum_i eps_i * coeffs[i]; rows in coeffs give
    rows. They are written into `out` where given (of that shape, float64)
    and returned."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = len(coeffs)
    if out is None:
        out = np.empty((1 << n, *coeffs.shape[1:]))
    out[0] = start
    for i, a in enumerate(coeffs):
        h = 1 << (n - 1 - i)  # the partial sums lie 2h rows apart; each one
        sums = out[:: 2 * h]  # becomes itself + a and, h rows on, itself - a
        np.subtract(sums, a, out=out[h :: 2 * h])
        sums += a
    return out
