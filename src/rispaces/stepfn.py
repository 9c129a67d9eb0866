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

__all__ = [
    "StepFunction",
    "StepRows",
    "StepFunctionError",
    "ParseError",
    "step_function",
    "constant",
    "indicator",
    "rearrange",
    "rearrange_rows",
    "integral",
    "partial_integral",
    "partial_integral_rows",
    "stieltjes",
    "stieltjes_rows",
    "lp_norm",
    "lp_norm_rows",
    "common_breakpoints",
    "values_on",
    "parse_stepfn",
    "format_stepfn",
    "read_stepfn",
]


class StepFunctionError(ValueError):
    """Invalid step-function data."""


class ParseError(StepFunctionError):
    """Malformed `stepfn v1` text; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _canonicalize(breaks: np.ndarray, values: np.ndarray):
    """Merge adjacent intervals carrying equal values, into new arrays (the
    constructor freezes them, so they must not be the caller's)."""
    if len(values) <= 1:
        return breaks.copy(), values.copy()
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

    @classmethod
    def _canonical(cls, breaks: np.ndarray, values: np.ndarray) -> "StepFunction":
        """Wrap float64 arrays the caller has proved canonical, without checks.

        The breakpoints must rise strictly from 0 to 1 and the values must be
        finite with no two neighbours equal: exactly what `__post_init__`
        would return unchanged. Both arrays are made read-only, not copied.
        """
        breaks.flags.writeable = False
        values.flags.writeable = False
        f = object.__new__(cls)
        object.__setattr__(f, "breakpoints", breaks)
        object.__setattr__(f, "values", values)
        return f

    @property
    def k(self) -> int:
        return len(self.values)

    @functools.cached_property
    def lengths(self) -> np.ndarray:
        """Interval lengths, computed once per instance and read-only."""
        b = self.breakpoints
        lengths = b[1:] - b[:-1]  # np.diff, bit for bit, without its overhead
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


class StepRows:
    """A batch of step functions on (0, 1], one per row of padded arrays.

    breakpoints: shape (m, K+1); row i holds the k_i + 1 breakpoints of its
    function, then 1.0 up to the width.
    values: shape (m, K); row i holds the k_i values, then 0.0.
    counts: shape (m,); the piece counts k_i.

    Padding cells have length 0, so they add exact zeros to every sum of
    value times length. The arrays are not copied.
    """

    __slots__ = ("breakpoints", "values", "counts")

    def __init__(self, breakpoints: np.ndarray, values: np.ndarray, counts: np.ndarray):
        self.breakpoints = breakpoints
        self.values = values
        self.counts = counts

    @classmethod
    def of(cls, f: StepFunction) -> "StepRows":
        """The one-row batch of f, on views of its arrays."""
        return cls(f.breakpoints[None, :], f.values[None, :], np.array([f.k]))

    @classmethod
    def stack(cls, fns: Sequence[StepFunction]) -> "StepRows":
        """The functions, in order, padded to the largest piece count."""
        if not fns:
            raise StepFunctionError("need at least one function")
        counts = np.array([f.k for f in fns])
        K = int(counts.max())
        breaks = np.ones((len(fns), K + 1))
        values = np.zeros((len(fns), K))
        breaks[np.arange(K + 1) <= counts[:, None]] = np.concatenate([f.breakpoints for f in fns])
        values[np.arange(K) < counts[:, None]] = np.concatenate([f.values for f in fns])
        return cls(breaks, values, counts)

    @classmethod
    def indicators(cls, ts) -> "StepRows":
        """The indicators of (0, t] for t in the 1-d `ts`, in order: the
        arrays of `stack([indicator(t) for t in ts])` whenever some t < 1.
        (A row at t = 1 has one piece and one padding cell.)"""
        ts = np.asarray(ts, dtype=np.float64)
        outside = ~((ts > 0.0) & (ts <= 1.0))
        if outside.any():
            t = float(ts[outside][0])
            raise StepFunctionError(f"indicator endpoint t={t} outside (0, 1]")
        breaks = np.zeros((len(ts), 3))
        breaks[:, 1], breaks[:, 2] = ts, 1.0
        values = np.zeros((len(ts), 2))
        values[:, 0] = 1.0
        return cls(breaks, values, np.where(ts == 1.0, 1, 2))

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def lengths(self) -> np.ndarray:
        """Cell lengths: `StepFunction.lengths` bit for bit, 0 on padding."""
        b = self.breakpoints
        return b[:, 1:] - b[:, :-1]

    def real(self, extra: int = 0) -> np.ndarray:
        """Mask of the first k_i + extra entries of each row: the real cells
        for extra = 0, the real breakpoints for extra = 1."""
        return np.arange(self.values.shape[1] + extra) < (self.counts + extra)[:, None]

    def row(self, i: int) -> StepFunction:
        """Row i as a StepFunction on copies of its real entries."""
        k = self.counts[i]
        return StepFunction._canonical(self.breakpoints[i, : k + 1].copy(), self.values[i, :k].copy())


def rearrange_rows(rows: StepRows) -> StepRows:
    """Non-increasing rearrangement of |f| for each row f, equimeasurable
    with |f|, in a batch of the same width.

    Each row holds bitwise the breakpoints and values of `rearrange` on that
    row alone. Rows that are already non-negative and non-increasing keep
    their own entries, and a batch of only such rows is returned unchanged,
    which makes the operation exactly idempotent.
    """
    V = rows.values
    A = np.abs(V)
    done = (V >= 0.0).all(1) & (A[:, 1:] <= A[:, :-1]).all(1)
    if done.all():
        return rows
    L, k = rows.lengths, rows.counts
    todo = None if not done.any() else (~done).nonzero()[0]
    if todo is not None:
        A, L, k = A[todo], L[todo], k[todo]
    m, K = A.shape
    r = np.arange(m)[:, None]
    cols = np.arange(K)
    top = (k - 1)[:, None]  # the column of the last real cell
    # padding sorts after the real zeros: it sits at the end of its row
    order = (-A).argsort(axis=1, kind="stable")
    S = A[r, order]
    R = L[r, order].cumsum(axis=1)  # the right end of each sorted cell
    R[cols >= top] = 1.0  # guard cumsum round-off on the top endpoint
    # a tiny length can underflow against the running sum; drop such cells
    advances = np.empty((m, K), bool)
    advances[:, 0] = True  # the first cell has the largest |value| and a positive length
    np.greater(R[:, 1:], R[:, :-1], out=advances[:, 1:])
    # a right end at 1 before the last would not rise strictly to the last
    if ((advances & (R >= 1.0)).sum(1) > 1).any():
        raise StepFunctionError("breakpoints must be strictly increasing")
    # merge equal neighbours: keep the end of each run of equal values when a
    # cell of the run advances (`last`: the last advancing cell so far), with
    # the right end of the last advancing cell
    last = np.maximum.accumulate(np.where(advances, cols, 0), axis=1)
    keep = cols <= top
    keep[:, :-1] &= (S[:, 1:] != S[:, :-1]) | (cols[:-1] == top)
    keep &= S[r, last] == S
    kept = keep.sum(1)
    breaks = np.ones((m, K + 1))
    breaks[:, 0] = 0.0
    values = np.zeros((m, K))
    slots = cols < kept[:, None]
    breaks[:, 1:][slots] = R[r, last][keep]
    breaks[r[:, 0], kept] = 1.0
    values[slots] = S[keep]
    if todo is None:
        return StepRows(breaks, values, kept)
    out = StepRows(rows.breakpoints.copy(), V.copy(), rows.counts.copy())
    out.breakpoints[todo], out.values[todo], out.counts[todo] = breaks, values, kept
    return out


def rearrange(f: StepFunction) -> StepFunction:
    """Non-increasing rearrangement of |f|, equimeasurable with |f|: the
    one-row case of `rearrange_rows`.

    Already-rearranged inputs are returned unchanged, which makes the
    operation exactly idempotent.
    """
    rows = StepRows.of(f)
    r = rearrange_rows(rows)
    return f if r is rows else r.row(0)


def integral(f: StepFunction) -> float:
    """Exact integral over (0, 1]."""
    return math.fsum(f.values * f.lengths)


def partial_integral_rows(rows: StepRows, ts) -> np.ndarray:
    """Exact integral of each row over (0, t] for its t in `ts`, the rows
    assumed non-increasing: `math.fsum` over the cells wholly below t, plus
    the part of the cell that holds t."""
    ts = np.asarray(ts, dtype=np.float64)
    outside = ~((ts >= 0.0) & (ts <= 1.0))
    if outside.any():
        raise StepFunctionError(f"t={float(ts[outside][0])} outside [0, 1]")
    B, V = rows.breakpoints, rows.values
    # the cell i holds t: B[i] < t <= B[i+1], where padding (1.0) never counts; i = 0 at t = 0
    r, i = np.arange(len(rows)), np.maximum((B < ts[:, None]).sum(1) - 1, 0)
    return _fsum_rows(V * rows.lengths, i) + V[r, i] * (ts - B[r, i])


def partial_integral(f: StepFunction, t: float) -> float:
    """Exact integral over (0, t] of a non-increasing f: one row of `partial_integral_rows`."""
    return float(partial_integral_rows(StepRows.of(f), [t])[0])


def stieltjes_rows(rows: StepRows, weight: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Sum of v_i * (w(t_i) - w(t_{i-1})) for each row, by `math.fsum`; the
    weight evaluator w is called once, on the real breakpoints of all rows.
    Each row is divided by the power of two m at or below its max|v| and its
    sum multiplied by m, so the sum for 2^k f is 2^k times that for f bit for
    bit wherever the values and the sum stay normal."""
    real = rows.real(extra=1)
    w = np.zeros_like(rows.breakpoints)
    w[real] = np.asarray(weight(rows.breakpoints[real]), dtype=np.float64)
    m = _binade(np.abs(rows.values).max(axis=1))
    terms = rows.values / m[:, None] * (w[:, 1:] - w[:, :-1])
    return m * _fsum_rows(terms, rows.counts)


def stieltjes(f: StepFunction, weight: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sum of v_i * (w(t_i) - w(t_{i-1})): the one-row case of `stieltjes_rows`."""
    return float(stieltjes_rows(StepRows.of(f), weight)[0])


def lp_norm(f: StepFunction, p: float) -> float:
    """The Lp norm of f, 1 <= p <= inf: the one-row case of `_lp_norm_rows`."""
    return float(_lp_norm_rows(StepRows.of(f), p)[0])


def _lp_norm_rows(rows: StepRows, p: float) -> np.ndarray:
    """The Lp norm of each row, by `math.fsum` on its real cells."""
    return _lp_of_abs(np.abs(rows.values), p, lambda x: _fsum_rows(x * rows.lengths, rows.counts))


def lp_norm_rows(values: np.ndarray, lengths: np.ndarray, p: float) -> np.ndarray:
    """Lp norms of many step functions sharing one partition: `values` has one
    function per row, `lengths` are the shared interval lengths."""
    return _lp_of_abs(np.abs(np.asarray(values, dtype=np.float64)), p, lambda x: x @ lengths)


def _lp_of_abs(a: np.ndarray, p: float, power_sum) -> np.ndarray:
    """The Lp norm of each row of a >= 0, given power_sum(x), the integral of
    each row of x (its sum times the cell lengths); a is overwritten.

    p = inf takes the row maximum. Otherwise the norm is m S^(1/p), S the
    integral of (a/m)^p, for m = `_binade`(max(a)), an exact divisor, while
    S < 2^p is finite (p <= 1023), else m = max(a) (the least double on a zero
    row). a/m is the same for 2^k a, so ||2^k f|| is 2^k ||f|| bit for bit
    wherever no value and no norm leaves the normal range.
    """
    if not p >= 1.0:
        raise StepFunctionError(f"p must be >= 1, got {p}")
    if math.isinf(p):
        return a.max(axis=1)
    m = _binade(a.max(axis=1)) if p <= 1023.0 else a.max(axis=1, initial=5e-324)
    a /= m[:, None]
    a **= p
    return m * power_sum(a) ** (1.0 / p)


def _fsum_rows(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """`math.fsum` of the first n_i entries of each row i of x, bit for bit.
    A sum of at most two doubles is one IEEE addition, which rounds the exact
    sum as fsum does (+ 0.0 turns a -0.0 into fsum's 0.0; an overflow gives
    inf where fsum raises), so only rows of more entries go through fsum."""
    head = x[:, :2]
    out = np.where(np.arange(head.shape[1]) < n[:, None], head, 0.0).sum(axis=1) + 0.0
    long = (n > 2).nonzero()[0]
    out[long] = [math.fsum(r[:k]) for r, k in zip(x[long].tolist(), n[long].tolist())]
    return out


def _binade(x: np.ndarray) -> np.ndarray:
    """The power of two 2^(e-1) <= x < 2^e of each x > 0 (0.5 at 0), by which
    a division is exact. (2^e would overflow at DBL_MAX.)"""
    return np.ldexp(1.0, np.frexp(x)[1] - 1)


def common_breakpoints(fns: Iterable[StepFunction]) -> np.ndarray:
    parts = [f.breakpoints for f in fns]
    if not parts:
        raise StepFunctionError("need at least one function")
    return np.unique(np.concatenate(parts))


def values_on(f: StepFunction, breaks: np.ndarray) -> np.ndarray:
    """Values of f on each cell of a refinement of its own breakpoints.

    A cell lies in the interval of f whose right end is the first breakpoint
    of f at or after the cell's right end. (A midpoint can round onto the
    left end of a cell whose ends are adjacent doubles.)
    """
    return f.values[np.searchsorted(f.breakpoints[1:], breaks[1:], side="left")]


def _descriptor_number(descriptor: str, error: type) -> float:
    """The number after the first colon of a descriptor such as `Lp:2`; text
    that is no number raises `error`, the parsing module's own exception."""
    text = descriptor.split(":", 1)[1]
    try:
        return float(text)
    except ValueError:
        raise error(f"malformed number {text!r} in descriptor {descriptor!r}") from None


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
