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
doubles, a mask of run starts, and the breakpoints.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _signdist_py as _kernel
from .spaces import SpaceSpec, ri_norm
from .stepfn import StepFunction

__all__ = [
    "MAX_ENUM_N",
    "MAX_EQUAL_N",
    "USING_EXTENSION",
    "RademacherError",
    "rademacher",
    "signed_sum",
    "sum_rearrangement",
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


def _atoms_to_step(values_desc: np.ndarray, cum: np.ndarray, denominator: int) -> StepFunction:
    """Step function from atoms in descending order of value: atom i holds
    values_desc[i] on (cum[i], cum[i+1]] / denominator.

    `cum` holds the running atom counts in float64, from 0 to `denominator`
    = 2^n (n <= 60), each the double nearest to its count. It is divided in
    place, exactly, so each breakpoint is the double nearest to cum/2^n."""
    if denominator < 1 or denominator & (denominator - 1) or denominator > 1 << 60:
        raise RademacherError(f"denominator must be 2^n with n <= 60, got {denominator}")
    breaks = np.divide(cum, float(denominator), out=cum)
    # cum/2^n is exact up to n = 53, so positive counts give strictly
    # increasing breakpoints; strictly decreasing finite values are then canonical
    if (denominator <= 1 << 53 and np.isfinite(values_desc).all()
            and (values_desc[1:] < values_desc[:-1]).all()):
        return StepFunction._canonical(breaks, values_desc)
    return StepFunction(breaks, values_desc)


def sum_rearrangement(coeffs: Sequence[float]) -> StepFunction:
    """Non-increasing rearrangement of |sum_i a_i eps_i| under uniform signs.

    2^n atoms of measure 2^-n, compacted, with eps_0 = -1 counted by symmetry;
    equal coefficients go through binomial weights C(n,k) on the values
    |n-2k|*|a| instead of enumeration. The enumerated atoms are sorted and
    compacted in their own buffer, which holds the values when all differ.
    """
    a = np.asarray(coeffs, dtype=np.float64)
    n = len(a)
    if n < 1:
        raise RademacherError("need at least one coefficient")
    if np.all(a == a[0]):
        if n > MAX_EQUAL_N:
            raise RademacherError(f"n={n} exceeds the equal-coefficient cap {MAX_EQUAL_N}")
        c = abs(float(a[0]))
        values = []
        counts = []
        for k in range(n // 2 + 1):
            weight = math.comb(n, k)
            if 2 * k != n:
                weight *= 2
            values.append(c * (n - 2 * k))
            counts.append(weight)
        cum = np.zeros(len(counts) + 1)
        cum[1:] = np.cumsum(counts, dtype=np.int64)  # each count rounded once
        return _atoms_to_step(np.asarray(values), cum, 1 << n)
    if n > MAX_ENUM_N:
        raise RademacherError(f"n={n} exceeds the enumeration cap {MAX_ENUM_N}")
    # eps_0 = -1 gives the exact negations, so the 2^(n-1) sums with
    # eps_0 = +1 carry the distribution; starting at a[0] keeps the order
    atoms = _kernel.enumerate_signed_sums(a[1:], start=a[0])
    size = len(atoms)
    # sorted in place: -|s| ascending is |s| descending
    np.negative(np.abs(atoms, out=atoms), out=atoms)
    atoms.sort()
    np.negative(atoms, out=atoms)
    new = np.empty(size, dtype=bool)  # where a run of equal atoms starts
    new[0] = True
    np.not_equal(atoms[1:], atoms[:-1], out=new[1:])
    if new.all():
        return _atoms_to_step(atoms, np.arange(size + 1, dtype=np.float64), size)
    first = np.flatnonzero(new)
    cum = np.empty(len(first) + 1)  # the atoms before each run, then all of them
    cum[:-1] = first
    cum[-1] = size
    return _atoms_to_step(atoms[first], cum, size)


def rademacher_sum_norm(coeffs: Sequence[float], E: SpaceSpec) -> float:
    """||sum_i a_i r_i||_E, valid because every catalog norm is
    rearrangement-invariant."""
    return ri_norm(sum_rearrangement(coeffs), E)
