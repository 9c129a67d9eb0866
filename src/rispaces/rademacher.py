"""Rademacher functions and exact distributions of signed sums.

The n-th Rademacher function alternates +1/-1 on the 2^n dyadic intervals of
(0, 1]. Signed sums over the first n of them realize the uniform distribution
on sign vectors exactly, so norms of Rademacher sums reduce to the exact
distribution of sum_i a_i * eps_i, obtained either by enumerating the sign
vectors with eps_0 = +1 (the others are their exact negations) or by binomial
weights when all coefficients are equal. Breakpoints are cum/2^n for the
running atom count cum, with no rationals: float64 holds them exactly while
cum < 2^53 (every enumeration, and the binomial path to n = 53) and rounds to
the nearest double beyond (at n = 60, 8 of the 30 inner breakpoints). The
enumerated sums are sorted and compacted in place: one buffer of 2^(n-1)
doubles per row, a mask of run starts, and the breakpoints.
`sum_rearrangement_rows` takes many rows of coefficients at once, with one
run of the enumeration kernel, and returns a `StepRows` batch;
`sum_rearrangement` is its one-row case.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _signdist_py as _kernel
from .spaces import SpaceSpec, ri_norm
from .stepfn import StepFunction, StepRows

__all__ = [
    "MAX_ENUM_N",
    "MAX_EQUAL_N",
    "USING_EXTENSION",
    "RademacherError",
    "rademacher",
    "signed_sum",
    "sum_rearrangement",
    "sum_rearrangement_rows",
    "rademacher_sum_norm",
]

MAX_ENUM_N = 24  # 16.7M sign vectors, still desk-scale
MAX_EQUAL_N = 60  # binomial fast path for equal coefficients
USING_EXTENSION = False  # the one enumeration kernel is numpy; kept for readers of the flag


class RademacherError(ValueError):
    """Index or size outside the enumeration caps."""


def _dyadic_breaks(n: int) -> np.ndarray:
    return np.arange((1 << n) + 1, dtype=np.float64) / float(1 << n)


def rademacher(n: int) -> StepFunction:
    """r_n: +1 on (0, 2^-n], then alternating on dyadic intervals."""
    if not 1 <= n <= MAX_ENUM_N:
        raise RademacherError(f"need 1 <= n <= {MAX_ENUM_N}, got {n}")
    vals = np.where(np.arange(1 << n) % 2 == 0, 1.0, -1.0)
    return StepFunction(_dyadic_breaks(n), vals)


def signed_sum(coeffs: Sequence[float], signs: Sequence[int]) -> StepFunction:
    """The step function sum_i signs[i] * coeffs[i] * r_i on (0, 1]."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    signs = np.asarray(signs)
    n = len(coeffs)
    if n != len(signs) or n < 1:
        raise RademacherError("need equally many coefficients and signs, n >= 1")
    if n > MAX_ENUM_N:
        raise RademacherError(f"n={n} exceeds the enumeration cap {MAX_ENUM_N}")
    if not np.all(np.abs(signs) == 1):
        raise RademacherError("signs must be exactly +1 or -1")
    return StepFunction(_dyadic_breaks(n), _kernel.enumerate_signed_sums(signs * coeffs))


def _atoms_to_rows(values: np.ndarray, cum: np.ndarray, counts: np.ndarray, denominator: int):
    """(breaks, built) for rows of atoms in descending order of value: row i
    holds values[i, j] on (cum[i, j], cum[i, j+1]] / denominator for its
    first counts[i] atoms, then padding (values 0.0, cum `denominator`).

    `cum` holds the running atom counts in float64, one row per row of
    `values` or one row for all, from 0 to `denominator` = 2^n (n <= 60),
    each the double nearest to its count. It is divided in place, exactly, so
    each breakpoint is the double nearest to cum/2^n. built[i] is True where
    row i is canonical as it stands: cum/2^n is exact up to n = 53, so
    positive counts give strictly increasing breakpoints, and strictly
    decreasing finite values are then canonical."""
    if denominator < 1 or denominator & (denominator - 1) or denominator > 1 << 60:
        raise RademacherError(f"denominator must be 2^n with n <= 60, got {denominator}")
    breaks = np.divide(cum, float(denominator), out=cum)
    m, width = values.shape
    decreasing = values[:, 1:] < values[:, :-1]
    if counts.min() < width:  # padding cells count as decreasing
        decreasing |= np.arange(1, width) >= counts[:, None]
    built = decreasing.all(axis=1) & np.isfinite(values).all(axis=1)
    if denominator > 1 << 53:
        built[:] = False
    if breaks.ndim == 1:  # one row of counts for all rows
        breaks = breaks[None, :] if m == 1 else np.broadcast_to(breaks, (m, width + 1))
    return breaks, built


def _binomial_atoms(c: np.ndarray, n: int):
    """(values, cum, counts, denominator) of |c (eps_1 + ... + eps_n)| for each
    c >= 0 of `c`: the values c |n - 2k| for k <= n/2, with weights C(n, k),
    doubled unless 2k = n, out of 2^n; one row of running counts for all."""
    k = np.arange(n // 2 + 1)
    weights = [math.comb(n, j) * (1 if 2 * j == n else 2) for j in k.tolist()]
    cum = np.zeros(len(k) + 1)
    cum[1:] = np.cumsum(weights, dtype=np.int64)  # each count rounded once
    return c[:, None] * (n - 2 * k), cum, np.full(len(c), len(k)), 1 << n


def _enumerated_atoms(a: np.ndarray):
    """(values, cum, counts, denominator) of |sum_i a_i eps_i| for each row a
    of `a`, by enumeration: eps_0 = -1 gives the exact negations, so the
    2^(n-1) sums with eps_0 = +1 carry the distribution. The kernel runs once
    on all rows, elementwise, so each row's sums are bitwise its own
    enumeration. It writes them through the transpose of one buffer with a
    row of sums per row of `a`; they are sorted and compacted there, row by
    row, and the buffer holds the values when all of them differ."""
    atoms = np.empty((len(a), 1 << (a.shape[1] - 1)))
    _kernel.enumerate_signed_sums(a[:, 1:].T, start=a[:, 0], out=atoms.T)
    m, size = atoms.shape
    # sorted in place: -|s| ascending is |s| descending
    np.negative(np.abs(atoms, out=atoms), out=atoms)
    atoms.sort(axis=1)
    np.negative(atoms, out=atoms)
    new = np.empty(atoms.shape, dtype=bool)  # where a run of equal atoms starts
    new[:, 0] = True
    np.not_equal(atoms[:, 1:], atoms[:, :-1], out=new[:, 1:])
    if new.all():
        return atoms, np.arange(size + 1, dtype=np.float64), np.full(m, size), size
    counts = np.count_nonzero(new, axis=1)
    real = np.arange(counts.max()) < counts[:, None]
    values = np.zeros(real.shape)
    values[real] = atoms[new]
    # the atoms before each run, then all of them (padding included)
    cum = np.full((m, real.shape[1] + 1), float(size))
    cum[:, :-1][real] = new.nonzero()[1]
    return values, cum, counts, size


def _distributions(a: np.ndarray, equal: bool):
    """(values, breaks, counts, built): the distribution of |sum_i a_i eps_i|
    for each row a of `a`, all of equal coefficients or none, in the padded
    arrays of a `StepRows` batch, with `_atoms_to_rows`'s built flags."""
    n = a.shape[1]
    if equal:
        if n > MAX_EQUAL_N:
            raise RademacherError(f"n={n} exceeds the equal-coefficient cap {MAX_EQUAL_N}")
        values, cum, counts, denominator = _binomial_atoms(np.abs(a[:, 0]), n)
    else:
        if n > MAX_ENUM_N:
            raise RademacherError(f"n={n} exceeds the enumeration cap {MAX_ENUM_N}")
        values, cum, counts, denominator = _enumerated_atoms(a)
    breaks, built = _atoms_to_rows(values, cum, counts, denominator)
    return values, breaks, counts, built


def sum_rearrangement_rows(coeffs) -> StepRows:
    """Non-increasing rearrangement of |sum_i a_i eps_i| under uniform signs,
    for each row a of the 2-d `coeffs`: row i of the batch holds bitwise the
    breakpoints and values of `sum_rearrangement` of row i alone.

    2^n atoms of measure 2^-n, compacted, with eps_0 = -1 counted by symmetry.
    Rows of equal coefficients go through binomial weights C(n,k) on the
    values |n-2k|*|a| instead of enumeration; rows of unequal ones share one
    run of the enumeration kernel and are sorted and compacted row by row. A
    batch that mixes the two kinds, or holds a row that needs the validating
    constructor (a zero row, n > 53, values that are not finite), is taken
    one row at a time, so a row over its cap raises the first such row's
    RademacherError.
    """
    a = np.asarray(coeffs, dtype=np.float64)
    if a.ndim != 2 or 0 in a.shape:
        raise RademacherError("need at least one row of at least one coefficient")
    equal = (a == a[:, :1]).all(axis=1)
    if equal.all() or not equal.any():
        values, breaks, counts, built = _distributions(a, bool(equal[0]))
        if built.all():
            return StepRows(breaks, values, counts)
    return StepRows.stack([sum_rearrangement(row) for row in a])


def sum_rearrangement(coeffs: Sequence[float]) -> StepFunction:
    """Non-increasing rearrangement of |sum_i a_i eps_i| under uniform signs:
    the one-row case of `sum_rearrangement_rows`, on views of its arrays."""
    a = np.asarray(coeffs, dtype=np.float64)[None, :]
    if a.shape[1] < 1:
        raise RademacherError("need at least one coefficient")
    values, breaks, counts, built = _distributions(a, bool((a == a[0, 0]).all()))
    k = int(counts[0])
    return (StepFunction._canonical if built[0] else StepFunction)(
        breaks[0, : k + 1], values[0, :k])


def rademacher_sum_norm(coeffs: Sequence[float], E: SpaceSpec) -> float:
    """||sum_i a_i r_i||_E, valid because every catalog norm is
    rearrangement-invariant."""
    return ri_norm(sum_rearrangement(coeffs), E)
