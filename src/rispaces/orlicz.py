"""Orlicz functions, the convex modular, and the Luxemburg norm.

The Luxemburg norm of f is inf{lam > 0 : integral Phi(f/lam) <= 1}, computed
by bracketing and bisection on the modular, which is continuous and
non-increasing in lam for step functions and finite-valued Phi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .stepfn import StepFunction, linf_norm

__all__ = [
    "OrliczFunction",
    "OrliczError",
    "exp_square",
    "power",
    "hinge",
    "custom_orlicz",
    "parse_orlicz",
    "modular",
    "luxemburg_norm",
    "luxemburg_norm_max",
    "BISECT_RTOL",
    "MAX_BISECT_ITER",
]

BISECT_RTOL = 1e-12
MAX_BISECT_ITER = 200

# grid top kept where exp-square stays finite in float64
_VALIDATION_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 12.0, 101)))


class OrliczError(ValueError):
    """Inadmissible Orlicz function or bad modular argument."""


@dataclass(frozen=True, eq=False)
class OrliczFunction:
    """Convex, even, non-decreasing evaluator with Phi(0) = 0.

    `fn` must accept numpy arrays. The descriptor string round-trips through
    the CLI (`exp2`, `power:p`, `hinge:a`, `custom`).
    """

    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    descriptor: str = "custom"

    def __post_init__(self):
        _validate(self.fn, self.descriptor)

    def __call__(self, s) -> np.ndarray:
        return self.fn(np.asarray(s, dtype=np.float64))

    def __repr__(self) -> str:
        return f"OrliczFunction({self.descriptor})"


def _validate(fn, descriptor: str, tol: float = 1e-9) -> None:
    s = _VALIDATION_GRID
    y = np.asarray(fn(s), dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise OrliczError(f"{descriptor}: non-finite values on the test grid")
    if abs(y[0]) > 0.0:
        raise OrliczError(f"{descriptor}: Phi(0) = {y[0]}, expected 0")
    if np.any(y < -tol):
        raise OrliczError(f"{descriptor}: negative values")
    y_neg = np.asarray(fn(-s), dtype=np.float64)
    if np.any(np.abs(y - y_neg) > tol * (1.0 + np.abs(y))):
        raise OrliczError(f"{descriptor}: not even")
    if np.any(np.diff(y) < -tol * (1.0 + np.abs(y[1:]))):
        raise OrliczError(f"{descriptor}: not non-decreasing on [0, inf)")
    mid = (s[:-1] + s[1:]) / 2.0
    y_mid = np.asarray(fn(mid), dtype=np.float64)
    slack = tol * (1.0 + (np.abs(y[:-1]) + np.abs(y[1:])) / 2.0)
    if np.any(y_mid > (y[:-1] + y[1:]) / 2.0 + slack):
        raise OrliczError(f"{descriptor}: midpoint convexity fails")


def exp_square() -> OrliczFunction:
    """Phi(s) = exp(s^2) - 1, the generator of the space G."""
    return OrliczFunction(lambda s: np.expm1(np.minimum(s * s, 700.0)), "exp2")


def power(p: float) -> OrliczFunction:
    if p < 1.0:
        raise OrliczError(f"power exponent must be >= 1, got {p}")
    return OrliczFunction(lambda s: np.abs(s) ** p, f"power:{p:g}")


def hinge(a: float) -> OrliczFunction:
    """Phi(s) = (|s| - a)^+; its Luxemburg norm sandwiches the partial
    integral of the rearrangement up to t = 1/a."""
    if a < 0.0:
        raise OrliczError(f"hinge offset must be >= 0, got {a}")
    return OrliczFunction(lambda s: np.maximum(np.abs(s) - a, 0.0), f"hinge:{a:g}")


def custom_orlicz(fn: Callable[[np.ndarray], np.ndarray], name: str = "custom") -> OrliczFunction:
    return OrliczFunction(fn, name)


def parse_orlicz(descriptor: str) -> OrliczFunction:
    """Parse `exp2`, `power:p`, or `hinge:a`."""
    d = descriptor.strip()
    if d == "exp2":
        return exp_square()
    if d.startswith("power:"):
        return power(float(d.split(":", 1)[1]))
    if d.startswith("hinge:"):
        return hinge(float(d.split(":", 1)[1]))
    raise OrliczError(
        f"unknown Orlicz descriptor {descriptor!r}; valid: exp2, power:p, hinge:a"
    )


def modular(f: StepFunction, phi: OrliczFunction, lam: float) -> float:
    """Integral of Phi(f/lam) over (0, 1]; non-increasing in lam."""
    if lam <= 0.0:
        raise OrliczError(f"lam must be positive, got {lam}")
    return float(np.dot(phi(f.values / lam), f.lengths))


def luxemburg_norm(f: StepFunction, phi: OrliczFunction) -> float:
    """inf{lam : modular(f, phi, lam) <= 1} by bracketing and bisection.

    The returned lam satisfies modular(lam) <= 1, and modular(lam * (1-1e-9))
    exceeds 1 unless bisection converged onto a flat stretch below 1e-12
    relative width.
    """
    if f.is_zero():
        return 0.0
    return _find_root(functools.partial(modular, f, phi), linf_norm(f))


def luxemburg_norm_max(values: np.ndarray, lengths: np.ndarray, phi: OrliczFunction):
    """(index, norm) of the row of largest Luxemburg norm among step functions
    sharing one partition: `values` has one function per row, `lengths` are
    the shared interval lengths.

    One root find of lam -> max_i M_i(lam), M_i the modular of row i. At a lam
    where the maximum exceeds 1, a row whose modular is <= 1 has norm <= lam,
    below the largest norm, so it is dropped for good; the rows that survive
    all have norms within the bisection tolerance of the largest one, and the
    first of them is returned (ties go to the lowest index). An all-zero
    input gives (0, 0.0).
    """
    A = np.abs(np.asarray(values, dtype=np.float64))
    lengths = np.asarray(lengths, dtype=np.float64)
    sup = A.max(axis=1)
    top = float(sup.max())
    if top == 0.0:
        return 0, 0.0
    live = np.flatnonzero(sup > 0.0)  # rows that may still hold the largest norm
    rows = A[live]

    def max_modular(lam):
        nonlocal live, rows
        m = phi(rows / lam) @ lengths
        largest = m.max()
        if largest > 1.0:
            keep = m > 1.0
            if not keep.all():
                live, rows = live[keep], rows[keep]
        return largest

    norm = _find_root(max_modular, top)
    return int(live[0]), norm


def _find_root(mod, lam: float) -> float:
    """Least lam, to BISECT_RTOL relative, with mod(lam) <= 1, for a
    non-increasing modular `mod`.

    Brackets from the first guess `lam` by doubling or halving, falls back to
    a bisection on the binary exponent when 2^-MAX_BISECT_ITER * lam is still
    below the root, then bisects. Returns the upper end of the bracket.
    """
    if mod(lam) > 1.0:
        lo = lam
        hi = 2.0 * lam
        for _ in range(MAX_BISECT_ITER):
            if mod(hi) <= 1.0:
                break
            lo, hi = hi, 2.0 * hi
        else:  # pragma: no cover - admissible Phi cannot get here
            raise OrliczError("failed to bracket the Luxemburg norm from above")
    else:
        hi = lam
        lo = lam / 2.0
        for _ in range(MAX_BISECT_ITER):
            if lo == 0.0:
                return hi  # halving underflowed: hi is the least positive double
            if mod(lo) > 1.0:
                break
            hi, lo = lo, lo / 2.0
        else:  # the root is below 2^-MAX_BISECT_ITER * lam
            lo, hi = _exponent_bracket(mod, hi)
    for _ in range(MAX_BISECT_ITER):
        if hi - lo <= BISECT_RTOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if mod(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _exponent_bracket(mod, hi: float):
    """Bracket [2^a, 2^(a+1)] for a norm below 2^-MAX_BISECT_ITER * hi, by
    bisection on the binary exponent; mod(hi) must not exceed 1."""
    b = math.frexp(hi)[1]  # 2^b > hi
    a = -1074  # 2^-1074 is the least positive double
    with np.errstate(all="ignore"):  # f/lam may overflow to inf: modular > 1
        if not mod(math.ldexp(1.0, a)) > 1.0:
            raise OrliczError("modular never exceeds 1; Phi appears degenerate on this input")
        while b - a > 1:
            mid = (a + b) // 2
            if mod(math.ldexp(1.0, mid)) > 1.0:
                a = mid
            else:
                b = mid
    return math.ldexp(1.0, a), math.ldexp(1.0, b)
