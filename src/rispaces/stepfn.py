"""Exact calculus for piecewise-constant functions on (0, 1].

A step function is stored as breakpoints 0 = t0 < t1 < ... < tk = 1 and
values v1..vk, where vi is the value on the half-open interval (t_{i-1}, t_i].
The right-closed convention makes dyadic partitions and rearrangements exact.
All functions here are pure; StepFunction instances are immutable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

_TINY = np.finfo(np.float64).tiny  # least positive normal float

__all__ = [
    "StepFunction",
    "StepFunctionError",
    "ParseError",
    "step_function",
    "constant",
    "indicator",
    "rearrange",
    "integral",
    "partial_integral",
    "stieltjes",
    "l1_norm",
    "l2_norm",
    "lp_norm",
    "lp_norm_rows",
    "linf_norm",
    "measure_above",
    "common_breakpoints",
    "values_on",
    "linear_combination",
    "multiply",
    "parse_stepfn",
    "format_stepfn",
    "read_stepfn",
    "write_stepfn",
]


class StepFunctionError(ValueError):
    """Invalid step-function data."""


class ParseError(StepFunctionError):
    """Malformed `stepfn v1` text; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _canonicalize(breaks: np.ndarray, values: np.ndarray):
    """Merge adjacent intervals carrying equal values."""
    if len(values) <= 1:
        return breaks, values
    changed = values[1:] != values[:-1]
    keep_right = np.append(changed, True)        # right endpoints of runs
    keep_value = np.concatenate(([True], changed))
    return (
        np.concatenate(([breaks[0]], breaks[1:][keep_right])),
        values[keep_value],
    )


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise-constant function on (0, 1], canonical (no equal neighbours).

    breakpoints: array of k+1 strictly increasing reals, first 0, last 1.
    values: array of k finite reals; values[i] holds on (breakpoints[i],
    breakpoints[i+1]].
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if b.ndim != 1 or v.ndim != 1 or len(b) != len(v) + 1 or len(v) < 1:
            raise StepFunctionError(
                "need k+1 breakpoints and k >= 1 values, got "
                f"{len(b)} breakpoints, {len(v)} values"
            )
        if b[0] != 0.0:
            raise StepFunctionError(f"first breakpoint must be 0, got {b[0]}")
        if b[-1] != 1.0:
            raise StepFunctionError(f"last breakpoint must be 1, got {b[-1]}")
        if not np.all(b[1:] > b[:-1]):
            raise StepFunctionError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise StepFunctionError("values must be finite")
        b, v = _canonicalize(b, v)
        b.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)

    @property
    def k(self) -> int:
        return len(self.values)

    @functools.cached_property
    def lengths(self) -> np.ndarray:
        """Interval lengths, computed once per instance and read-only."""
        lengths = np.diff(self.breakpoints)
        lengths.flags.writeable = False
        return lengths

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return np.array_equal(self.breakpoints, other.breakpoints) and np.array_equal(
            self.values, other.values
        )

    def __abs__(self) -> "StepFunction":
        return StepFunction(self.breakpoints, np.abs(self.values))

    def __neg__(self) -> "StepFunction":
        return StepFunction(self.breakpoints, -self.values)

    def scale(self, c: float) -> "StepFunction":
        return StepFunction(self.breakpoints, c * self.values)

    def __call__(self, t: float) -> float:
        """Value at t in (0, 1] (left endpoint of each interval excluded)."""
        if not 0.0 < t <= 1.0:
            raise StepFunctionError(f"t={t} outside (0, 1]")
        i = int(np.searchsorted(self.breakpoints, t, side="left"))
        return float(self.values[i - 1])

    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def __repr__(self) -> str:
        pieces = ", ".join(
            f"({self.breakpoints[i]:g},{self.breakpoints[i+1]:g}]={self.values[i]:g}"
            for i in range(min(self.k, 6))
        )
        tail = "" if self.k <= 6 else f", ... ({self.k} pieces)"
        return f"StepFunction[{pieces}{tail}]"


def step_function(breakpoints: Sequence[float], values: Sequence[float]) -> StepFunction:
    return StepFunction(np.asarray(breakpoints, float), np.asarray(values, float))


def constant(c: float) -> StepFunction:
    return StepFunction(np.array([0.0, 1.0]), np.array([float(c)]))


def indicator(t: float) -> StepFunction:
    """Indicator of (0, t]."""
    if not 0.0 < t <= 1.0:
        raise StepFunctionError(f"indicator endpoint t={t} outside (0, 1]")
    if t == 1.0:
        return constant(1.0)
    return StepFunction(np.array([0.0, t, 1.0]), np.array([1.0, 0.0]))


def rearrange(f: StepFunction) -> StepFunction:
    """Non-increasing rearrangement of |f|, equimeasurable with |f|.

    Already-rearranged inputs are returned unchanged, which makes the
    operation exactly idempotent.
    """
    a = np.abs(f.values)
    if np.all(f.values >= 0.0) and np.all(a[1:] <= a[:-1]):
        return f
    order = np.argsort(-a, kind="stable")
    breaks = np.concatenate(([0.0], np.cumsum(f.lengths[order])))
    breaks[-1] = 1.0  # guard cumsum round-off on the top endpoint
    # a tiny length can underflow against the running sum; merge such pieces
    keep = np.diff(breaks) > 0.0
    rights = breaks[1:][keep]
    rights[-1] = 1.0
    return StepFunction(np.concatenate(([0.0], rights)), a[order][keep])


def integral(f: StepFunction) -> float:
    """Exact integral over (0, 1]."""
    return math.fsum(f.values * f.lengths)


def partial_integral(f: StepFunction, t: float) -> float:
    """Exact integral of f over (0, t]; f is assumed already non-increasing."""
    if not 0.0 <= t <= 1.0:
        raise StepFunctionError(f"t={t} outside [0, 1]")
    if t == 0.0:
        return 0.0
    b, v = f.breakpoints, f.values
    j = int(np.searchsorted(b, t, side="left"))  # b[j-1] < t <= b[j]
    head = v[: j - 1] * np.diff(b[:j])
    return math.fsum(head) + float(v[j - 1]) * (t - float(b[j - 1]))


def stieltjes(f: StepFunction, weight: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sum of v_i * (w(t_i) - w(t_{i-1})) for a weight evaluator w."""
    w = np.asarray(weight(f.breakpoints), dtype=np.float64)
    return math.fsum(f.values * np.diff(w))


def l1_norm(f: StepFunction) -> float:
    return math.fsum(np.abs(f.values) * f.lengths)


def lp_norm(f: StepFunction, p: float) -> float:
    if p < 1.0:
        raise StepFunctionError(f"p must be >= 1, got {p}")
    if p == 1.0:
        return l1_norm(f)
    if math.isinf(p):
        return linf_norm(f)
    lengths = f.lengths
    return float(_lp_of_abs(np.abs(f.values), p, lambda x: math.fsum(x * lengths)))


def lp_norm_rows(values: np.ndarray, lengths: np.ndarray, p: float) -> np.ndarray:
    """Lp norms of many step functions sharing one partition: `values` has one
    function per row, `lengths` are the shared interval lengths."""
    if p < 1.0:
        raise StepFunctionError(f"p must be >= 1, got {p}")
    a = np.abs(np.asarray(values, dtype=np.float64))
    if math.isinf(p):
        return a.max(axis=1)
    lengths = np.asarray(lengths, dtype=np.float64)
    return _lp_of_abs(a, p, lambda x: x @ lengths)


def _lp_of_abs(a: np.ndarray, p: float, power_sum):
    """power_sum(a**p) ** (1/p) for a >= 0, one function or one per row.

    A direct power sum that is not a normal float has under- or overflowed
    (or, if subnormal, lost digits); such functions are evaluated on a/max(a)
    and scaled back by max(a), so the norm is positively homogeneous. All
    other functions keep the direct value bit for bit.
    """
    with np.errstate(over="ignore", under="ignore"):
        s = power_sum(a ** p)
    norm = s ** (1.0 / p)
    normal = (s >= _TINY) & np.isfinite(s)
    if np.all(normal):
        return norm
    sup = np.max(a, axis=-1)
    redo = ~normal & (sup > 0.0)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        scaled = sup * power_sum((a / sup[..., None]) ** p) ** (1.0 / p)
    return np.where(redo, scaled, norm)


def l2_norm(f: StepFunction) -> float:
    return lp_norm(f, 2.0)


def linf_norm(f: StepFunction) -> float:
    return float(np.max(np.abs(f.values)))


def measure_above(f: StepFunction, c: float) -> float:
    """Lebesgue measure of the set {|f| > c}."""
    mask = np.abs(f.values) > c
    return math.fsum(f.lengths[mask])


def common_breakpoints(fns: Iterable[StepFunction]) -> np.ndarray:
    breaks = None
    for f in fns:
        breaks = f.breakpoints if breaks is None else np.union1d(breaks, f.breakpoints)
    if breaks is None:
        raise StepFunctionError("need at least one function")
    return breaks


def values_on(f: StepFunction, breaks: np.ndarray) -> np.ndarray:
    """Values of f on each cell of a refinement of its own breakpoints."""
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    idx = np.searchsorted(f.breakpoints[1:], mids, side="left")
    return f.values[idx]


def linear_combination(fns: Sequence[StepFunction], coeffs: Sequence[float]) -> StepFunction:
    """Pointwise sum of coeffs[i] * fns[i] on the common refinement.

    Accumulates left to right, so the floating-point result matches a direct
    running sum in the same order.
    """
    if len(fns) != len(coeffs) or not fns:
        raise StepFunctionError("need equally many functions and coefficients")
    breaks = common_breakpoints(fns)
    vals = np.zeros(len(breaks) - 1)
    for f, c in zip(fns, coeffs):
        vals = vals + float(c) * values_on(f, breaks)
    return StepFunction(breaks, vals)


def multiply(f: StepFunction, g: StepFunction) -> StepFunction:
    breaks = common_breakpoints([f, g])
    return StepFunction(breaks, values_on(f, breaks) * values_on(g, breaks))


# --- `stepfn v1` text format -------------------------------------------------

HEADER = "stepfn v1"


def parse_stepfn(text: str) -> StepFunction:
    """Parse the `stepfn v1` format: header, then lines `t_i v_i`."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(1, f"expected header {HEADER!r}")
    rights = []
    values = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected `t v`, got {line!r}")
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(lineno, f"non-numeric entry in {line!r}") from None
        if not math.isfinite(t) or not math.isfinite(v):
            raise ParseError(lineno, "entries must be finite")
        if rights and t <= rights[-1]:
            raise ParseError(lineno, f"breakpoint {t} not strictly increasing")
        if t <= 0.0 or t > 1.0:
            raise ParseError(lineno, f"breakpoint {t} outside (0, 1]")
        rights.append(t)
        values.append(v)
    if not rights:
        raise ParseError(len(lines), "no intervals given")
    if rights[-1] != 1.0:
        raise ParseError(len(lines), f"last breakpoint must be 1, got {rights[-1]}")
    return StepFunction(np.concatenate(([0.0], rights)), np.asarray(values))


def format_stepfn(f: StepFunction) -> str:
    lines = [HEADER]
    for t, v in zip(f.breakpoints[1:], f.values):
        lines.append(f"{float(t)!r} {float(v)!r}")
    return "\n".join(lines) + "\n"


def read_stepfn(path) -> StepFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stepfn(fh.read())


def write_stepfn(f: StepFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_stepfn(f))
