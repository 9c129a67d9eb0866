"""Concave weights and the Lorentz / Marcinkiewicz norms built from them.

A weight is an increasing concave evaluator on [0, 1] with phi(0) = 0
(possibly only as a limit). The Lorentz norm is the Stieltjes integral of the
decreasing rearrangement against the weight; the Marcinkiewicz norm is the
supremum over t of the partial integral of the rearrangement divided by
phi(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .stepfn import (
    StepFunction,
    StepRows,
    _binade,
    _descriptor_number,
    rearrange,
    rearrange_rows,
    stieltjes,
    stieltjes_rows,
)

__all__ = [
    "ConcaveWeight",
    "WeightError",
    "WeightDiagnostics",
    "power_weight",
    "log_g",
    "log_g_printed",
    "log_g1",
    "log_psi",
    "custom_weight",
    "parse_weight",
    "validate_weight",
    "lorentz_norm",
    "lorentz_norm_rows",
    "marcinkiewicz_norm",
    "marcinkiewicz_sup",
    "marcinkiewicz_sup_rows",
]

CONCAVITY_TOL = 1e-9


class WeightError(ValueError):
    """Inadmissible weight."""


@dataclass(frozen=True)
class WeightDiagnostics:
    valid: bool
    warnings: tuple
    errors: tuple
    phi_near_zero: float
    phi_at_one: float


@dataclass(frozen=True, eq=False)
class ConcaveWeight:
    """Increasing concave evaluator on [0, 1]; `fn` accepts numpy arrays."""

    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    descriptor: str = "custom"

    def __call__(self, t) -> np.ndarray:
        return self.fn(np.asarray(t, dtype=np.float64))

    @cached_property
    def diagnostics(self) -> "WeightDiagnostics":
        """Monotonicity/concavity diagnostics, computed once per weight."""
        return _diagnose(self.fn)

    def __repr__(self) -> str:
        return f"ConcaveWeight({self.descriptor})"


def _diagnose(fn, tol: float = CONCAVITY_TOL) -> WeightDiagnostics:
    t = np.unique(np.concatenate([np.geomspace(1e-10, 1.0, 101), np.linspace(1e-4, 1.0, 101)]))
    y = np.asarray(fn(t), dtype=np.float64)
    errors = []
    warnings = []
    if not np.all(np.isfinite(y)):
        errors.append("non-finite values on the test grid")
        return WeightDiagnostics(False, tuple(warnings), tuple(errors), math.nan, math.nan)
    if np.any(np.diff(y) < -tol * (1.0 + np.abs(y[1:]))):
        errors.append("not non-decreasing")
    # midpoint concavity on both grids
    mid = (t[:-1] + t[1:]) / 2.0
    y_mid = np.asarray(fn(mid), dtype=np.float64)
    # halves added, not a halved sum, which overflows near DBL_MAX
    slack = tol * (1.0 + (0.5 * np.abs(y[:-1]) + 0.5 * np.abs(y[1:])))
    if np.any(y_mid + slack < 0.5 * y[:-1] + 0.5 * y[1:]):
        errors.append("not concave (midpoint test fails)")
    phi0 = float(y[0])
    phi1 = float(fn(np.array([1.0]))[0])
    # logarithmic weights vanish too slowly to see at any fixed probe; accept
    # phi(0+) = 0 "in the limit" when a deep probe is still clearly decaying
    deep, deeper = (float(fn(np.array([p]))[0]) for p in (1e-150, 1e-300))
    if not (deeper <= 1e-6 or deeper <= deep / 1.2):
        warnings.append(f"phi(0+) = {deeper:.6g}, expected 0")
    if abs(phi1 - 1.0) > 1e-12:
        warnings.append(f"phi(1) = {phi1:.6g} != 1")
    if np.any(y[t > 0] <= 0.0):
        warnings.append("weight vanishes somewhere on (0, 1]")
    return WeightDiagnostics(not errors, tuple(warnings), tuple(errors), phi0, phi1)


def validate_weight(w: ConcaveWeight) -> WeightDiagnostics:
    """Monotonicity/concavity diagnostics; phi(1) != 1 is a warning, not an error.

    The result is cached on the weight, so each weight is diagnosed once.
    """
    return w.diagnostics


def power_weight(alpha: float) -> ConcaveWeight:
    """phi(t) = t^alpha, concave increasing for 0 < alpha <= 1."""
    if not 0.0 < alpha <= 1.0:
        raise WeightError(f"power weight needs 0 < alpha <= 1, got {alpha}")
    return ConcaveWeight(lambda t: np.asarray(t, float) ** alpha, f"power:{alpha:g}")


def _safe_log_form(t, form):
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = form(t[pos])
    return out


def log_g() -> ConcaveWeight:
    """phi(t) = t * sqrt(log(e/t)); Marcinkiewicz rendering of the space G."""
    return ConcaveWeight(
        lambda t: _safe_log_form(t, lambda s: s * np.sqrt(1.0 - np.log(s))), "logG"
    )


def log_g_printed() -> ConcaveWeight:
    """phi(t) = t / sqrt(log(e/t)): the other reading of the G weight.

    Fails the concavity check (it is convex near 0), so a Marcinkiewicz norm
    with it raises `WeightError`; t/phi(t) blows up as t -> 0. Kept for
    side-by-side comparison in reports.
    """
    return ConcaveWeight(
        lambda t: _safe_log_form(t, lambda s: s / np.sqrt(1.0 - np.log(s))), "logG-printed"
    )


def log_g1() -> ConcaveWeight:
    """phi(t) = 2 / sqrt(log(e^2/t)), the Lorentz weight of the space G1."""
    return ConcaveWeight(
        lambda t: _safe_log_form(t, lambda s: 2.0 / np.sqrt(2.0 - np.log(s))), "logG1"
    )


def log_psi() -> ConcaveWeight:
    """psi(t) = 2 / sqrt(log(e^4/t)), the indicator envelope of G."""
    return ConcaveWeight(
        lambda t: _safe_log_form(t, lambda s: 2.0 / np.sqrt(4.0 - np.log(s))), "logPsi"
    )


def custom_weight(fn: Callable[[np.ndarray], np.ndarray], name: str = "custom") -> ConcaveWeight:
    """Wrap an arbitrary evaluator and diagnose it; a weight that fails the
    diagnosis (one that is not non-decreasing and concave) is rejected."""
    w = ConcaveWeight(fn, name)
    if not w.diagnostics.valid:
        raise WeightError(f"{name}: " + "; ".join(w.diagnostics.errors))
    return w


def parse_weight(descriptor: str) -> ConcaveWeight:
    """Parse `power:a`, `logG`, `logG1`, `logPsi`, or `envelope:<space>`."""
    d = descriptor.strip()
    if d == "logG":
        return log_g()
    if d == "logG1":
        return log_g1()
    if d == "logPsi":
        return log_psi()
    if d.startswith("power:"):
        return power_weight(_descriptor_number(d, WeightError))
    if d.startswith("envelope:"):
        from .spaces import envelope_weight, parse_space

        return envelope_weight(parse_space(d.split(":", 1)[1]))
    raise WeightError(
        f"unknown weight descriptor {descriptor!r}; "
        "valid: power:a, logG, logG1, logPsi, envelope:<space>"
    )


def lorentz_norm_rows(rows: StepRows, w: ConcaveWeight) -> np.ndarray:
    """Stieltjes integral of each row's decreasing rearrangement against the
    weight, summed by `math.fsum` row by row."""
    return stieltjes_rows(rearrange_rows(rows), w)


def lorentz_norm(f: StepFunction, w: ConcaveWeight) -> float:
    """Stieltjes integral of the decreasing rearrangement against the weight:
    `lorentz_norm_rows` on one row, through the one-row cases `rearrange`
    and `stieltjes`."""
    return stieltjes(rearrange(f), w)


def marcinkiewicz_sup_rows(rows: StepRows, w: ConcaveWeight):
    """(norms, argmax t) of the Marcinkiewicz norm sup_t F(t)/phi(t) of each
    row, two arrays; an all-zero row gives (0.0, 1.0).

    F, the partial integral of the rearrangement, is concave and piecewise
    linear with F(0) = 0, so on each breakpoint segment F(t) = alpha + v*t
    with alpha >= 0. For concave phi and c > 0 the set {F/phi < c} =
    {c*phi(t) - v*t - alpha > 0} is an interval, so F/phi is quasi-convex on
    every segment and attains its maximum at a segment end. Near 0 the
    quotient is v*t/phi(t), which does not decrease, so the sup is the
    largest F(b)/phi(b) over the breakpoints b > 0; the first largest is
    taken. The weight is called once, on the right ends of the real cells of
    the non-zero rows. Weights that fail `validate_weight` are rejected: the
    argument needs concavity.
    """
    if not validate_weight(w).valid:
        errors = "; ".join(w.diagnostics.errors)
        raise WeightError(f"{w.descriptor}: Marcinkiewicz norm needs a concave weight; {errors}")
    r = rearrange_rows(rows)
    b = r.breakpoints[:, 1:]
    m = _binade(r.values[:, 0])  # F/m is exact and stays normal where F would not
    F = np.cumsum(r.values / m[:, None] * r.lengths, axis=1)
    nonzero = np.any(r.values != 0.0, axis=1)
    real = r.real() & nonzero[:, None]
    phi = w(b[real])
    q = np.full_like(F, -np.inf)  # padding and zero rows never hold the max
    with np.errstate(divide="ignore", invalid="ignore"):
        q[real] = np.where(phi > 0.0, F[real] / phi, -np.inf)
    first_max = (np.arange(len(q)), q.argmax(axis=1))
    norms = np.where(nonzero, m * q[first_max], 0.0)
    if not np.all(np.isfinite(norms)):
        raise WeightError(f"{w.descriptor}: weight vanishes on (0, 1]")
    return norms, np.where(nonzero, b[first_max], 1.0)


def marcinkiewicz_sup(f: StepFunction, w: ConcaveWeight):
    """(norm, argmax t) for the Marcinkiewicz norm sup_t F(t)/phi(t): the
    one-row case of `marcinkiewicz_sup_rows`."""
    norms, at = marcinkiewicz_sup_rows(StepRows.of(f), w)
    return float(norms[0]), float(at[0])


def marcinkiewicz_norm(f: StepFunction, w: ConcaveWeight) -> float:
    return marcinkiewicz_sup(f, w)[0]
