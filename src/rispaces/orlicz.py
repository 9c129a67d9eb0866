"""Orlicz functions, the convex modular, and the Luxemburg norm.

The Luxemburg norm of f is inf{lam > 0 : integral Phi(f/lam) <= 1}. One
solver computes it: one search per norm, `_row_search`, a generator that
asks for the modular at the lam it chooses and is sent the value. Both
drivers run it: `luxemburg_norm_max` runs one on the largest modular among
rows of values on one partition (`luxemburg_norm` is its one-row case), and
`luxemburg_norm_rows` runs one per row of a padded batch, in lock-step,
evaluating every pending row in one pass of Phi per round.
For Phi(s) = |s|^p the modular is lam^(-p) integral |f|^p, so the norm is
the Lp norm: the search takes it in closed form and only checks the modular
there. Otherwise it brackets: the modular is continuous and
non-increasing in lam for step functions and finite-valued Phi, so the norm
is bracketed between ||f||_inf 2^j and ||f||_inf 2^(j+1) by a galloping
search on the integer j, and the bracket is closed to 1e-12 relative. Where
Phi comes with its derivative (every catalog Phi), Newton's method in
mu = 1/lam closes it, in which the modular M(mu) = sum_i l_i Phi(mu |v_i|)
is convex and increasing; bisection finishes the job and stands in wherever
Newton cannot run. Where s Phi'(s)/Phi(s) is non-decreasing (`exp2` and
`power`, marked `log_convex`), log M is convex in log mu as well, and each
Newton point is the larger of the tangent roots of M in mu and of log M in
log mu; `hinge`, whose s Phi'/Phi decreases, and a custom Phi take the first
alone. Each driver evaluates f/lam and Phi(f/lam) into
workspaces that it reuses, through `OrliczFunction.__call__(s, out)`:
`luxemburg_norm_rows` into two flat ones of its rows' cells, and
`luxemburg_norm_max` into two of the rows' size where the rows fit in
`_CHUNK` doubles; where they hold more, it divides them straight into the
Phi workspace and evaluates Phi there in place, and a slope divides the max
row again. Rows of more than `stepfn._BLOCK` cells it evaluates in one pass
per search point, a chunk at a time, the slope terms from the same f/lam.
Every modular and slope is a row dot, `stepfn._row_dots`: above `_BLOCK`
cells the dots of its blocks, added left to right, since OpenBLAS spreads a
dot of more than 10,000 cells over its threads and its bits then depend on
how many there are.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .stepfn import (_BLOCK, StepFunction, _add_block_dots, _descriptor_number, _lp_of_abs,
                     _row_dots, _sup_rows, lp_norm_rows)

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
    "luxemburg_norm_rows",
    "BISECT_RTOL",
    "MAX_BISECT_ITER",
]

BISECT_RTOL = 1e-12
MAX_BISECT_ITER = 200
_DBL_MAX = float(np.finfo(np.float64).max)

# grid top kept where exp-square stays finite in float64
_VALIDATION_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 12.0, 101)))


class OrliczError(ValueError):
    """Inadmissible Orlicz function or bad modular argument."""


@dataclass(frozen=True, eq=False)
class OrliczFunction:
    """Convex, even, non-decreasing, unbounded evaluator with Phi(0) = 0.

    `fn` must accept numpy arrays. The descriptor string round-trips through
    the CLI (`exp2`, `power:p`, `hinge:a`, `custom`). The optional `dphi`
    lets the Luxemburg norm use Newton's method; it only proposes points, so
    an inexact one costs evaluations, not accuracy. `p` is set by `power`
    alone: Phi is |s|^p, and the Luxemburg norm is the Lp norm. `takes_out`
    is set by the catalog constructors: `fn(s, out)` evaluates into `out`
    (a new array where `out` is None), with the bits of `fn(s)`. `log_convex`
    is set by `exp_square` and `power`: s Phi'(s)/Phi(s) is non-decreasing, so
    t -> Phi(e^t s) is log-convex, and Newton may step on log M.
    """

    fn: Callable[..., np.ndarray] = field(repr=False)
    descriptor: str = "custom"
    # dphi(s, y) is the derivative Phi'(s) given y = Phi(s); it may overwrite y
    dphi: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = field(
        default=None, repr=False
    )
    p: Optional[float] = field(default=None, init=False, repr=False)
    takes_out: bool = field(default=False, init=False, repr=False)
    log_convex: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        _validate(self.fn, self.descriptor)

    def __call__(self, s, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Phi(s), evaluated into `out` where given: a float64 array of the
        shape of s, which may be s itself. Without `takes_out`, fn(s) is a
        new array that is copied into it, so in `luxemburg_norm_max` above a
        chunk of short rows its temporary has the rows' size."""
        s = np.asarray(s, dtype=np.float64)
        if self.takes_out:
            return self.fn(s, out)
        y = self.fn(s)
        if out is None:
            return y
        out[...] = y
        return out

    def __repr__(self) -> str:
        return f"OrliczFunction({self.descriptor})"


def _validate(fn, descriptor: str, tol: float = 1e-9) -> None:
    """Checks Phi on a grid of s in [0, 12], where Phi may overflow to +inf
    above s = 1 (as |s|^p does for p above about 285): inf - inf is nan,
    which passes the comparisons below, and each check that inf could fool
    compares where Phi is inf as well."""
    s = _VALIDATION_GRID
    mid = (s[:-1] + s[1:]) / 2.0
    with np.errstate(over="ignore"):
        y, y_neg, y_mid = (np.asarray(fn(x), dtype=np.float64) for x in (s, -s, mid))
    if np.any(np.isnan(y) | ((y == math.inf) & (s <= 1.0))):
        raise OrliczError(f"{descriptor}: non-finite values on the test grid")
    if abs(y[0]) > 0.0:
        raise OrliczError(f"{descriptor}: Phi(0) = {y[0]}, expected 0")
    if np.any(y < -tol):
        raise OrliczError(f"{descriptor}: negative values")
    with np.errstate(invalid="ignore"):
        odd = np.any((np.isinf(y) != np.isinf(y_neg)) | (np.abs(y - y_neg) > tol * (1.0 + np.abs(y))))
        falls = np.any(np.diff(y) < -tol * (1.0 + np.abs(y[1:])))
        slack = tol * (1.0 + (np.abs(y[:-1]) + np.abs(y[1:])) / 2.0)
        concave = np.any(y_mid > (y[:-1] + y[1:]) / 2.0 + slack)
    if odd:
        raise OrliczError(f"{descriptor}: not even")
    if falls:
        raise OrliczError(f"{descriptor}: not non-decreasing on [0, inf)")
    if concave:
        raise OrliczError(f"{descriptor}: midpoint convexity fails")
    with np.errstate(all="ignore"):
        top = float(np.asarray(fn(np.array([math.inf])), dtype=np.float64)[0])
    if top != math.inf:  # the modular of a small set would never exceed 1
        raise OrliczError(f"{descriptor}: bounded, Phi(inf) = {top}, expected inf")


def _catalog(fn, descriptor: str, dphi, log_convex: bool = False) -> OrliczFunction:
    """A catalog Phi, whose body `fn(s, out=None)` evaluates into `out`."""
    phi = OrliczFunction(fn, descriptor, dphi)
    object.__setattr__(phi, "takes_out", True)
    object.__setattr__(phi, "log_convex", log_convex)
    return phi


def _exp2(s, out=None):
    return np.expm1(np.multiply(s, s, out), out)


def _exp2_dphi(s, y):
    # 2 s exp(s^2) = 2 s (Phi + 1), in place on y
    y += 1.0
    y *= s
    y *= 2.0
    return y


@lru_cache(maxsize=None)
def exp_square() -> OrliczFunction:
    """Phi(s) = exp(s^2) - 1, the generator of the space G: one instance,
    which `spaces.fundamental_function` recognizes by identity."""
    return _catalog(_exp2, "exp2", _exp2_dphi, log_convex=True)


def power(p: float) -> OrliczFunction:
    """Phi(s) = |s|^p, whose Luxemburg norm is the Lp norm; the returned Phi
    records p, which `luxemburg_norm_max` uses in place of a root find."""
    if p < 1.0:
        raise OrliczError(f"power exponent must be >= 1, got {p}")

    def dphi(s, y):
        # p sign(s) |s|^(p-1) = p |s|^p / s, in place on y (Phi'(0) taken as 0)
        np.divide(y, s, out=y, where=s != 0.0)
        y *= p
        return y

    def fn(s, out=None):
        return np.power(np.abs(s, out), p, out)

    phi = _catalog(fn, f"power:{p:g}", dphi, log_convex=True)
    object.__setattr__(phi, "p", float(p))
    return phi


def _without_p(phi: OrliczFunction) -> OrliczFunction:
    """phi without its exponent `p`, so that its Luxemburg norm takes the root
    find; every other field is kept, `takes_out` and `log_convex` included."""
    plain = copy.copy(phi)
    object.__setattr__(plain, "p", None)
    return plain


def hinge(a: float) -> OrliczFunction:
    """Phi(s) = (|s| - a)^+; its Luxemburg norm sandwiches the partial
    integral of the rearrangement up to t = 1/a."""
    if not 0.0 <= a < math.inf:  # an infinite offset gives Phi = 0: no norm exists
        raise OrliczError(f"hinge offset must be finite and >= 0, got {a}")

    def fn(s, out=None):
        return np.maximum(np.subtract(np.abs(s, out), a, out), 0.0, out=out)

    def dphi(s, y):  # sign(s) 1{|s| > a}, in place on y
        np.greater(y, 0.0, out=y)
        return np.copysign(y, s, out=y)

    return _catalog(fn, f"hinge:{a:g}", dphi)


def custom_orlicz(fn: Callable[[np.ndarray], np.ndarray], name: str = "custom") -> OrliczFunction:
    return OrliczFunction(fn, name)


def parse_orlicz(descriptor: str) -> OrliczFunction:
    """Parse `exp2`, `power:p`, or `hinge:a`."""
    d = descriptor.strip()
    if d == "exp2":
        return exp_square()
    if d.startswith("power:"):
        return power(_descriptor_number(d, OrliczError))
    if d.startswith("hinge:"):
        return hinge(_descriptor_number(d, OrliczError))
    raise OrliczError(
        f"unknown Orlicz descriptor {descriptor!r}; valid: exp2, power:p, hinge:a"
    )


def modular(f: StepFunction, phi: OrliczFunction, lam: float) -> float:
    """Integral of Phi(f/lam) over (0, 1], the row dot `stepfn._row_dots` (in
    blocks of `_BLOCK` cells above that many); non-increasing in lam."""
    if not lam > 0.0:
        raise OrliczError(f"lam must be positive, got {lam}")
    return float(_row_dots(phi(f.values / lam), f.lengths))


def _slope(phi: OrliczFunction, s: np.ndarray, y: np.ndarray, lengths: np.ndarray, dot):
    """dot(s Phi'(s), lengths), the sum of l_i s_i Phi'(s_i), for s = v/lam and
    y = Phi(s): mu times dM/dmu at mu = 1/lam. `dot` is `_row_dots`, or for a
    chunk of a long row `_add_block_dots` from the sum so far; y is
    overwritten. Overflow gives inf or nan, which the solver reads as "no
    Newton step"."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = phi.dphi(s, y)
        d *= s
        return dot(d, lengths)


# tables of at most this many doubles (128 KiB, which stays in a 2 MiB L2
# cache) keep their f/lam in `luxemburg_norm_max` for the slope, and larger
# ones of rows of at most `_BLOCK` cells divide the max row again; longer rows
# are evaluated this many cells at a time, in whole blocks (one at least)
_CHUNK = 1 << 14


def luxemburg_norm(f: StepFunction, phi: OrliczFunction) -> float:
    """inf{lam : modular(f, phi, lam) <= 1} by bracketing, then Newton's method
    in mu = 1/lam (when phi has a `dphi`) and bisection, or in closed form for
    a power phi: the one-row case of `luxemburg_norm_max`.

    The returned lam satisfies modular(lam) <= 1, and modular(lam * (1-1e-9))
    exceeds 1 unless the bracket closed onto a flat stretch below 1e-12
    relative width.
    """
    return luxemburg_norm_max(f.values[None, :], f.lengths, phi)[1]


def luxemburg_norm_max(values: np.ndarray, lengths: np.ndarray, phi: OrliczFunction):
    """(index, norm) of the row of largest Luxemburg norm among step functions
    sharing one partition: `values` has one function per row, `lengths` are
    the shared interval lengths.

    One root find of lam -> max_i M_i(lam), M_i the modular of row i; its
    Newton slope is that of the row with the largest modular. At a lam
    where the maximum exceeds 1, a row whose modular is <= 1 has norm <= lam,
    below the largest norm, so it is dropped for good; the rows that survive
    all have norms within the root finder's tolerance of the largest one, and
    the first of them is returned (ties go to the lowest index).

    For a power Phi (`phi.p` set) the norm is the largest of the rows' Lp
    norms, and the index is the lowest row of largest Lp norm. That lam, or
    lam (1 + _PROBE) where rounding reads the modular above 1, is returned
    once the modular is checked to be <= 1 there; otherwise the root find
    runs as for any Phi. An all-zero input gives (0, 0.0). Where Phi(v/lam)
    overflows to inf up to the norm (intervals shorter than about
    1/DBL_MAX), the root found is the overflow threshold, not the norm, and
    OrliczError is raised.

    Rows of at most `_BLOCK` cells: Phi(rows / lam) goes into one workspace
    of the rows' size, and the modulars are one gemv. Where the rows fit in
    `_CHUNK` doubles, rows / lam goes into a second one, which the slope
    reuses; else it is divided into the Phi workspace, Phi is taken in
    place, and a slope divides the max row again into a workspace of one
    row. Longer rows take one pass each per search point (`_chunked_pass`),
    with two workspaces of one chunk, and ||f||_inf from their max and min,
    with no temporary of their size: every sum is that of `modular`, block
    dots added left to right, whose bits do not depend on the BLAS threads.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.float64)
    long = values.shape[1] > _BLOCK
    sup = _sup_rows(values) if long else np.abs(values).max(axis=1)
    top = float(sup.max())
    if top == 0.0:
        return 0, 0.0
    live = (sup > 0.0).nonzero()[0]  # rows that may still hold the largest norm
    rows = values if len(live) == len(values) else values[live]
    overflow = 0.0  # the largest lam at which the largest modular read inf
    with np.errstate(over="ignore"):
        closed = None
        if phi.p is not None:
            norms = lp_norm_rows(rows, lengths, phi.p)
            j = int(norms.argmax())
            closed, index = float(norms[j]), int(live[j])  # before the checks prune `live`
        if long:  # f/lam and Phi of it, one chunk of whole blocks each
            size = min(max(_CHUNK // _BLOCK, 1) * _BLOCK, rows.shape[1])
            s, y = np.empty(size), np.empty(size)
        else:  # Phi(rows / lam); rows / lam too where they fit in one chunk, else one row of it
            y = np.empty_like(rows)
            s = np.empty_like(rows) if rows.size <= _CHUNK else np.empty(rows.shape[1])
        search = _row_search(closed, top, phi.dphi is not None, phi.log_convex)
        lam, slope = next(search)
        while True:
            n = len(rows)
            if long:
                m, slopes = _chunked_pass(phi, rows, lengths, lam, slope, s, y)
            else:
                f = np.divide(rows, lam, s[:n] if s.ndim == 2 else y[:n])
                m = _row_dots(phi(f, y[:n]), lengths)
            i = m.argmax()
            largest = float(m[i])
            if largest == math.inf:
                overflow = max(overflow, lam)
            answer = largest
            if slope and long:
                answer = largest, float(slopes[i])
            elif slope:
                f = s[i] if s.ndim == 2 else np.divide(rows[i], lam, s)
                answer = largest, float(_slope(phi, f, y[i], lengths, _row_dots))
            if largest > 1.0 and n > 1:  # a lone row is the largest
                keep = m > 1.0
                if not keep.all():  # the surviving rows lead the workspaces
                    live, rows = live[keep], rows[keep]
            try:
                lam, slope = search.send(answer)
            except StopIteration as stop:
                norm, held = stop.value
                break
    if not held:
        index = int(live[0])  # after the root find, which prunes `live`
    error = _overflow_error(norm, overflow)
    if error is not None:
        raise error
    return index, norm


def _chunked_pass(phi, rows, lengths, lam, slope, s, y):
    """(modulars, slopes) at lam of rows of more than `_BLOCK` cells, slopes
    None unless `slope` is set: one pass over each row, len(s) cells (whole
    blocks) at a time. f/lam goes into s and Phi of it into y, and the slope
    terms follow from the same f/lam, over y. Each sum adds the block dots of
    a chunk to those of the chunks before it (`_add_block_dots`), so it has
    the bits of `modular` and of `_slope` on the whole row."""
    modulars = np.empty(len(rows))
    slopes = np.empty(len(rows)) if slope else None
    for r, row in enumerate(rows):
        total = terms = 0.0
        for j in range(0, len(row), len(s)):
            v, dl = row[j : j + len(s)], lengths[j : j + len(s)]
            f = np.divide(v, lam, s[: len(v)])
            t = phi(f, y[: len(v)])
            total = _add_block_dots(total, t, dl)
            if slope:
                terms = _slope(phi, f, t, dl, partial(_add_block_dots, terms))
        modulars[r] = total
        if slope:
            slopes[r] = terms
    return modulars, slopes


def luxemburg_norm_rows(values: np.ndarray, lengths: np.ndarray, phi: OrliczFunction) -> np.ndarray:
    """The Luxemburg norm of each row: row i of `values` and `lengths` holds
    a step function on its first k_i cells, those of positive length, then
    padding cells of length 0 (the arrays of a `StepRows` batch). Each norm
    is bitwise the `luxemburg_norm` of the row's k_i cells alone.

    Each nonzero row has its own search, the one of `luxemburg_norm_max`: the
    closed form for a power Phi, checked on the modular, then the root find
    from the row's ||f||_inf. The searches run in lock-step (`_Lockstep`).
    Each round evaluates every pending row at its own lam in one pass of Phi
    over all their cells, and a row's modular and slope are dots over its
    own k cells (`_row_dots`), as in its one-row case. A one-row batch takes
    that one-row case, `luxemburg_norm_max`, itself: it evaluates on views of
    the row, and each evaluation costs less than a round. An all-zero row
    has norm 0. A row whose one-row case raises OrliczError makes the call
    raise that error, the first row's first.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.float64)
    counts = np.count_nonzero(lengths, axis=1)
    if len(values) == 1:
        k = int(counts[0])
        return np.array([luxemburg_norm_max(values[:, :k], lengths[0, :k], phi)[1]])
    norms = np.zeros(len(values))
    errors = {}  # row -> its OrliczError
    index, ks, V, L, searches = [], [], [], [], []  # of the nonzero rows, by piece count
    with np.errstate(over="ignore"):
        for k in np.unique(counts).tolist():
            rows = (counts == k).nonzero()[0]
            Vk, Lk = values[rows, :k], lengths[rows, :k]
            sup = np.abs(Vk).max(axis=1)
            live = sup > 0.0
            if not live.all():
                rows, Vk, Lk, sup = rows[live], Vk[live], Lk[live], sup[live]
            closed = [None] * len(rows)
            if phi.p is not None:
                closed = _lp_of_abs(np.abs(Vk), phi.p, lambda a: _row_dots(a, Lk)).tolist()
            searches += [_row_search(lam, top, phi.dphi is not None, phi.log_convex)
                         for lam, top in zip(closed, sup.tolist())]
            index += rows.tolist()
            ks += [k] * len(rows)
            V.append(Vk.ravel())
            L.append(Lk.ravel())
        if searches:
            lockstep = _Lockstep(index, ks, np.concatenate(V), np.concatenate(L), searches)
            while lockstep.round(phi, norms, errors):
                pass
    if errors:
        raise errors[min(errors)]
    return norms


class _Lockstep:
    """The pending rows of `luxemburg_norm_rows`, ordered by piece count k:
    their cells in one flat array, V and L, with one workspace of that size
    for V/lam and one for Phi of it, and for each row its k, its search, the
    (lam, slope) it asks for, and the largest lam at which its modular read
    inf. A row's cells are a piece of the flat arrays, and the rows of one k
    are one (rows, k) block of them."""

    def __init__(self, index, ks, V, L, searches):
        self.index, self.ks, self.V, self.L = index, np.array(ks), V, L
        self.blocks = list(zip(*np.unique(self.ks, return_counts=True)[::-1]))
        self.S, self.Y = np.empty_like(V), np.empty_like(V)
        self.searches = searches
        self.requests = [next(search) for search in searches]
        self.overflow = [0.0] * len(searches)

    def _dots(self, x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """`_row_dots` of each row's cells of the flat x and lengths, one
        (rows, k) block at a time."""
        dots, start = [], 0
        for r, k in self.blocks:
            stop = start + r * k
            dots.append(_row_dots(x[start:stop].reshape(r, k), lengths[start:stop].reshape(r, k)))
            start = stop
        return np.concatenate(dots)

    def round(self, phi, norms, errors) -> bool:
        """Evaluate each row at its own lam, in one pass of Phi over the
        pending cells, and send it the modular, or the modular and its slope.
        A row whose search ends leaves, its norm in `norms` or its
        OrliczError in `errors`, and its cells are compacted out. False once
        no row is left."""
        n = len(self.V)
        S, Y = self.S[:n], self.Y[:n]
        np.divide(self.V, np.repeat([lam for lam, _ in self.requests], self.ks), S)
        modulars = self._dots(phi(S, Y), self.L).tolist()
        if any(slope for _, slope in self.requests):  # every row's: one pass
            slopes = _slope(phi, S, Y, self.L, self._dots).tolist()
        keep = []
        for i, ((lam, slope), m) in enumerate(zip(self.requests, modulars)):
            if m == math.inf:
                self.overflow[i] = max(self.overflow[i], lam)
            try:
                self.requests[i] = self.searches[i].send((m, slopes[i]) if slope else m)
                keep.append(i)
            except StopIteration as stop:
                norms[self.index[i]] = norm = stop.value[0]
                error = _overflow_error(norm, self.overflow[i])
                if error is not None:
                    errors[self.index[i]] = error
            except OrliczError as error:
                errors[self.index[i]] = error
        if len(keep) < len(self.searches):
            alive = np.zeros(len(self.ks), dtype=bool)
            alive[keep] = True
            cells = np.repeat(alive, self.ks)
            self.V, self.L, self.ks = self.V[cells], self.L[cells], self.ks[alive]
            self.blocks = list(zip(*np.unique(self.ks, return_counts=True)[::-1]))
            self.index = [self.index[i] for i in keep]
            self.searches = [self.searches[i] for i in keep]
            self.requests = [self.requests[i] for i in keep]
            self.overflow = [self.overflow[i] for i in keep]
        return bool(keep)


def _overflow_error(norm: float, overflow: float) -> Optional[OrliczError]:
    """The error for a root at most the largest lam at which the modular read
    inf: that root is the overflow threshold, not the norm. None otherwise."""
    if norm <= overflow * (1.0 + 2.0 * BISECT_RTOL):
        return OrliczError(f"Phi(f/lam) overflows up to the norm, near {norm:.6g}")
    return None


# A search is a generator: it yields (lam, slope) where it needs the modular
# M(lam), and is sent M(lam), or (M(lam), its slope) when slope is set (see
# `_newton`); it returns what it found. Each norm is one `_row_search`:
# `luxemburg_norm_max` runs it in a loop against the largest modular of its
# rows, and `_Lockstep` runs one per row of `luxemburg_norm_rows`.


def _closed_form(lam: float):
    """Search: lam, the closed-form norm of a power Phi, or lam (1 + _PROBE)
    where rounding reads the modular above 1, whichever the modular is <= 1
    at first. None where it exceeds 1 at both or lam is not a positive
    double."""
    if 0.0 < lam < math.inf:
        for x in (lam, min(lam * (1.0 + _PROBE), _DBL_MAX)):
            if (yield x, False) <= 1.0:
                return x
    return None


def _row_search(closed: Optional[float], top: float, newton: bool, log_convex: bool):
    """Search: (norm, held) for one norm. The norm is the closed form `closed`
    where it is given and checks out, and then held is True; else it is the
    root find's from top = ||f||_inf, and held is False."""
    norm = None if closed is None else (yield from _closed_form(closed))
    if norm is not None:
        return norm, True
    return (yield from _find_root(top, newton, log_convex)), False


def _find_root(lam: float, newton: bool, log_convex: bool):
    """Search: the least lam, to BISECT_RTOL relative, with M(lam) <= 1, for
    a non-increasing modular M.

    Brackets the root between lam 2^j and lam 2^(j+1), clamped to the
    positive doubles, by a galloping search on the integer j: it tries
    j = +-1, +-2, +-4, ... until the modular crosses 1, then bisects on j. A
    modular <= 1 at the least positive double returns that double; one above
    1 at the largest double raises OrliczError. Then it closes the bracket:
    by Newton's method in mu = 1/lam when `newton` is set, which asks for
    the slope too (see `_newton`; `log_convex` as there), and by bisection.
    Returns the upper end of the bracket.
    """
    tangents = {}  # lam -> (M(lam), slope) at the search's points

    def point(j):  # (lam 2^j clamped to the positive doubles, M > 1 there)
        try:
            x = max(math.ldexp(lam, j), 5e-324)
        except OverflowError:
            x = _DBL_MAX
        if not newton:
            return x, (yield x, False) > 1.0
        m, _ = tangents[x] = yield x, True
        return x, m > 1.0

    near_x, up = yield from point(0)  # the root is above lam where M(lam) > 1
    near, far = 0, 1 if up else -1  # exponents on lam's side of the root and beyond
    while True:
        if near_x == (_DBL_MAX if up else 5e-324):
            if up:
                raise OrliczError("modular exceeds 1 even at the largest double")
            return near_x
        far_x, over = yield from point(far)
        if over != up:
            break
        near, near_x, far = far, far_x, 2 * far
    while abs(far - near) > 1:
        mid = (near + far) // 2
        x, over = yield from point(mid)
        if over == up:
            near, near_x = mid, x
        else:
            far, far_x = mid, x
    lo, hi = (near_x, far_x) if up else (far_x, near_x)
    if newton:
        lo, hi = yield from _newton(lo, hi, [(x, *tangents[x]) for x in (hi, lo)], log_convex)
    for _ in range(MAX_BISECT_ITER):
        if hi - lo <= BISECT_RTOL * hi:
            break
        mid = _midpoint(lo, hi)
        if (yield mid, False) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _midpoint(lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    if mid == math.inf:  # lo + hi overflows in the top binade
        mid = 0.5 * lo + 0.5 * hi
    return mid


# Newton's points are trusted only after the modular has been evaluated
# there; a converged step is checked at (1 +- _PROBE) times its point.
_NEWTON_RTOL = 1e-13
_PROBE = 4e-13
# evaluations Newton may spend beyond those of the bisection it replaces
_NEWTON_SLACK = 4


def _bisections(lo: float, hi: float) -> int:
    """Most evaluations the closing bisection of `_find_root` takes on
    [lo, hi]: each halves the width, and it stops at a width <= BISECT_RTOL *
    hi, where hi >= lo."""
    if hi - lo <= BISECT_RTOL * hi:  # the loop's own test
        return 0
    return math.ceil(math.log2(hi - lo) - math.log2(lo) - math.log2(BISECT_RTOL))


def _tangent_root(x: float, m: float, d: float, log_convex: bool) -> float:
    """The lam where the tangent of M(mu) at mu = 1/x meets 1, from M = m and
    d = mu dM/dmu; nan where there is none, as where the tangent is flat
    (d = 0). For convex M it is at most the norm, from either side.

    For a `log_convex` Phi, log M is convex in log mu too (each term
    t -> Phi(e^t |v_i|) is log-convex, and so is their sum), and the tangent
    of log M meets 0 at lam = x exp(m log m / d), also at most the norm: the
    larger of the two roots is returned. Where m <= 0, or that root is not a
    positive double, the first root alone counts."""
    root = math.nan
    den = d - (m - 1.0)  # mu' = mu - (m - 1) / (dM/dmu), so lam' = x d / den
    if math.isfinite(m) and math.isfinite(d) and d > 0.0:
        if den > 0.0:
            root = x * (d / den)
        if log_convex and m > 0.0:
            try:
                r = x * math.exp(m * math.log(m) / d)
            except OverflowError:
                r = math.inf
            if 0.0 < r < math.inf and (math.isnan(root) or r > root):
                root = r
    return root


def _newton(lo: float, hi: float, starts, log_convex: bool):
    """Search: the bracket [lo, hi] shrunk by safeguarded Newton steps in
    mu = 1/lam.

    M(mu) is convex and increasing, so the tangent at any point meets 1 at
    a lam below the norm. For a `log_convex` Phi, a point's tangent root is
    the larger of that one and the root of the tangent of log M in log mu
    (`_tangent_root`): that one is exact for a power Phi, and it does not
    crawl where M is large at lo, where the tangent of M in mu moves lam by
    a few percent a step. Newton starts from the higher of the tangent
    roots of `starts`, (lam, M, slope) at lo and hi, and the points rise
    to the norm quadratically. Where neither has a tangent root (a modular
    or slope that is not finite, or a flat tangent), the bracket is bisected
    with the slope until a point has one, and Newton starts from there. A
    point only proposes: it moves lo or hi after M and the slope are
    evaluated there. A tangent root that reads the modular <= 1 and has no
    tangent root of its own (a flat tangent, as at a kink of M) bounds the
    norm from both sides: Newton has converged there. Once the next step is
    predicted below _NEWTON_RTOL, the points (1 +- _PROBE) times the
    proposal are evaluated, closing the bracket. The upper one becomes hi
    even where an evaluated point at the norm itself was lower, so that the
    returned lam is about _PROBE above the norm: no summation order reads
    its modular above 1, and it lies within 6e-13 of what bisection
    returns.

    The safeguard: a proposal outside (lo, hi), or a non-finite modular or
    slope, ends Newton. Newton evaluates only while the bisection that
    closes what is left still fits in `_bisections` of the starting bracket
    plus _NEWTON_SLACK evaluations. The bracket's ends differ by a factor 2,
    so bisection alone needs at least `_bisections` - 1 of them: Newton and
    the bisection after it cost at most 5 evaluations more, whatever `dphi`
    returns. When the next point would leave no room for the probes, the
    point one step above the proposal is evaluated first: on Newton's
    course it bounds the norm from above and shrinks hi.
    """
    rest = _bisections(lo, hi)  # of the bracket [lo, hi] as it stands
    budget = rest + _NEWTON_SLACK
    used = 0

    def room(n):  # n more evaluations and the bisection after them fit the budget
        return used + n + rest <= budget

    def move(p, m):  # p, where M = m, becomes lo or hi
        nonlocal used, rest, lo, hi
        used += 1
        if m <= 1.0:
            hi = p
        else:
            lo = p
        rest = _bisections(lo, hi)

    def probe(p):  # evaluate the modular at p
        move(p, (yield p, False))

    def tangent(p):  # evaluate with the slope at p; the tangent root there
        m, d = yield p, True
        move(p, m)
        return _tangent_root(p, m, d, log_convex)

    g = x = math.nan
    for t in starts:  # hi first, so that a tie goes to the nearer point
        r = _tangent_root(*t, log_convex)
        if math.isnan(g) or r > g:
            g, x = r, t[0]
    while math.isnan(g) and hi - lo > BISECT_RTOL * hi:
        # no tangent meets 1 yet: bisect, with the slope, until one does
        x = _midpoint(lo, hi)
        if not lo < x < hi:  # adjacent subnormals, where the test above reads 0
            break
        g = yield from tangent(x)
    prev = 0.0  # the previous step, none yet
    while math.isfinite(g):
        step = abs(g - x)
        # quadratic convergence: the next step is about step (step / prev)^2
        if step <= _NEWTON_RTOL * g or (
            step < prev and step * (step / prev) ** 2 <= _NEWTON_RTOL * g
        ):
            up, down = min(g * (1.0 + _PROBE), _DBL_MAX), g * (1.0 - _PROBE)
            if lo < up and room(1):  # even above hi: see the docstring
                yield from probe(up)
            if lo < down < hi and room(1):
                yield from probe(down)
            break
        if not lo < g < hi:
            break
        u = g + step  # above the norm, once Newton converges
        if not room(2) and room(1) and x < g and u < hi:
            yield from probe(u)
            if lo == u:
                break  # Newton is far off: bisect
        if not room(1):
            break
        x, prev = g, step
        g = yield from tangent(x)
        if math.isnan(g) and hi == x:
            g = x  # the norm lies in [x, hi] = [x, x]: see the docstring
    return lo, hi
