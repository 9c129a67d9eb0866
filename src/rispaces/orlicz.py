"""Orlicz functions, the convex modular, and the Luxemburg norm.

The Luxemburg norm of f is inf{lam > 0 : integral Phi(f/lam) <= 1}. One
solver computes it: `luxemburg_norm_max` finds the largest norm among rows
of values on one partition, and `luxemburg_norm` is its one-row case. For
Phi(s) = |s|^p the modular is lam^(-p) integral |f|^p, so the norm is the Lp
norm: the solver takes it in closed form and only checks the modular there.
Otherwise it searches: the modular is continuous and non-increasing in lam
for step functions and finite-valued Phi, so the norm is bracketed between
||f||_inf 2^j and ||f||_inf 2^(j+1) by a galloping search on the integer j,
and the bracket is closed to 1e-12 relative. Where Phi comes with its
derivative (every catalog Phi), Newton's method in mu = 1/lam closes it, in
which the modular M(mu) = sum_i l_i Phi(mu |v_i|) is convex and increasing;
bisection finishes the job and stands in wherever Newton cannot run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .stepfn import StepFunction, _descriptor_number, lp_norm_rows

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
    alone: Phi is |s|^p, and the Luxemburg norm is the Lp norm.
    """

    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    descriptor: str = "custom"
    # dphi(s, y) is the derivative Phi'(s) given y = Phi(s); it may overwrite y
    dphi: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = field(
        default=None, repr=False
    )
    p: Optional[float] = field(default=None, init=False, repr=False)

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
    with np.errstate(all="ignore"):
        top = float(np.asarray(fn(np.array([math.inf])), dtype=np.float64)[0])
    if top != math.inf:  # the modular of a small set would never exceed 1
        raise OrliczError(f"{descriptor}: bounded, Phi(inf) = {top}, expected inf")


def _exp2_dphi(s, y):
    # 2 s exp(s^2) = 2 s (Phi + 1), in place on y
    y += 1.0
    y *= s
    y *= 2.0
    return y


def exp_square() -> OrliczFunction:
    """Phi(s) = exp(s^2) - 1, the generator of the space G."""
    return OrliczFunction(lambda s: np.expm1(s * s), "exp2", _exp2_dphi)


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

    phi = OrliczFunction(lambda s: np.abs(s) ** p, f"power:{p:g}", dphi)
    object.__setattr__(phi, "p", float(p))
    return phi


def hinge(a: float) -> OrliczFunction:
    """Phi(s) = (|s| - a)^+; its Luxemburg norm sandwiches the partial
    integral of the rearrangement up to t = 1/a."""
    if not 0.0 <= a < math.inf:  # an infinite offset gives Phi = 0: no norm exists
        raise OrliczError(f"hinge offset must be finite and >= 0, got {a}")
    return OrliczFunction(
        lambda s: np.maximum(np.abs(s) - a, 0.0),
        f"hinge:{a:g}",
        lambda s, y: np.copysign(y > 0.0, s, out=y),  # sign(s) 1{|s| > a}
    )


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
    """Integral of Phi(f/lam) over (0, 1]; non-increasing in lam."""
    if lam <= 0.0:
        raise OrliczError(f"lam must be positive, got {lam}")
    return float(np.dot(phi(f.values / lam), f.lengths))


def _slope(phi: OrliczFunction, s: np.ndarray, y: np.ndarray, lengths: np.ndarray) -> float:
    """sum_i l_i s_i Phi'(s_i) for s = v/lam and y = Phi(s), which is mu times
    dM/dmu at mu = 1/lam; y is overwritten. Overflow gives inf or nan, which
    the solver reads as "no Newton step"."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = phi.dphi(s, y)
        d *= s
        return float(np.dot(d, lengths))


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
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.float64)
    sup = np.abs(values).max(axis=1)
    top = float(sup.max())
    if top == 0.0:
        return 0, 0.0
    live = (sup > 0.0).nonzero()[0]  # rows that may still hold the largest norm
    rows = values if len(live) == len(values) else values[live]
    overflow = 0.0  # the largest lam at which the largest modular read inf

    def max_modular(lam, slope=False):
        nonlocal live, rows, overflow
        S = rows / lam
        Y = phi(S)
        m = Y @ lengths
        i = m.argmax()
        largest = float(m[i])
        if largest == math.inf:
            overflow = max(overflow, lam)
        if largest > 1.0 and len(live) > 1:  # a lone row is the largest
            keep = m > 1.0
            if not keep.all():
                live, rows = live[keep], rows[keep]
        if slope:
            return largest, _slope(phi, S[i], Y[i], lengths)
        return largest

    with np.errstate(over="ignore"):
        found = None
        if phi.p is not None:
            found = _lp_norm_checked(live, rows, lengths, phi.p, max_modular)
        if found is None:
            norm = _find_root(max_modular, top, phi.dphi is not None)
            found = int(live[0]), norm  # after the root find, which prunes `live`
    index, norm = found
    if norm <= overflow * (1.0 + 2.0 * BISECT_RTOL):
        raise OrliczError(f"Phi(f/lam) overflows up to the norm, near {norm:.6g}")
    return index, norm


def _lp_norm_checked(live, rows, lengths, p: float, mod):
    """(live[j], lam) for the lowest row j of `rows` of largest Lp norm: lam is
    that norm or, where rounding reads mod(lam) above 1, lam (1 + _PROBE).
    None where mod exceeds 1 at both or the norm is not a positive double."""
    norms = lp_norm_rows(rows, lengths, p)
    j = int(norms.argmax())
    lam = float(norms[j])
    if not 0.0 < lam < math.inf:
        return None
    for x in (lam, min(lam * (1.0 + _PROBE), _DBL_MAX)):
        if mod(x) <= 1.0:
            return int(live[j]), x
    return None


def _find_root(mod, lam: float, newton: bool) -> float:
    """Least lam, to BISECT_RTOL relative, with mod(lam) <= 1, for a
    non-increasing modular `mod`.

    Brackets the root between lam 2^j and lam 2^(j+1), clamped to the
    positive doubles, by a galloping search on the integer j: it tries
    j = +-1, +-2, +-4, ... until the modular crosses 1, then bisects on j. A
    modular <= 1 at the least positive double returns that double; one above
    1 at the largest double raises OrliczError. Then it closes the bracket:
    by Newton's method in mu = 1/lam when `newton` is set, for which
    mod(lam, slope=True) gives (mod(lam), its slope) (see `_newton`), and by
    bisection. Returns the upper end of the bracket.
    """
    tangents = {}  # lam -> (mod(lam), slope) at the search's points

    def point(j):  # (lam 2^j clamped to the positive doubles, mod > 1 there)
        try:
            x = max(math.ldexp(lam, j), 5e-324)
        except OverflowError:
            x = _DBL_MAX
        if not newton:
            return x, mod(x) > 1.0
        m, _ = tangents[x] = mod(x, slope=True)
        return x, m > 1.0

    near_x, up = point(0)  # the root is above lam where mod(lam) > 1
    near, far = 0, 1 if up else -1  # exponents on lam's side of the root and beyond
    while True:
        if near_x == (_DBL_MAX if up else 5e-324):
            if up:
                raise OrliczError("modular exceeds 1 even at the largest double")
            return near_x
        far_x, over = point(far)
        if over != up:
            break
        near, near_x, far = far, far_x, 2 * far
    while abs(far - near) > 1:
        mid = (near + far) // 2
        x, over = point(mid)
        if over == up:
            near, near_x = mid, x
        else:
            far, far_x = mid, x
    lo, hi = (near_x, far_x) if up else (far_x, near_x)
    if newton:
        lo, hi = _newton(mod, lo, hi, [(x, *tangents[x]) for x in (hi, lo)])
    for _ in range(MAX_BISECT_ITER):
        if hi - lo <= BISECT_RTOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid == math.inf:  # lo + hi overflows in the top binade
            mid = 0.5 * lo + 0.5 * hi
        if mod(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


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


def _tangent_root(x: float, m: float, d: float) -> float:
    """The lam where the tangent of M(mu) at mu = 1/x meets 1, from M = m and
    d = mu dM/dmu; nan where there is none. For convex M it is at most the
    norm, from either side."""
    den = d - (m - 1.0)  # mu' = mu - (m - 1) / (dM/dmu), so lam' = x d / den
    if math.isfinite(m) and math.isfinite(d) and den > 0.0:
        return x * (d / den)
    return math.nan


def _newton(mod, lo: float, hi: float, starts):
    """Shrink the bracket [lo, hi] by safeguarded Newton steps in mu = 1/lam.

    M(mu) is convex and increasing, so the tangent at any point meets 1 at
    a lam below the norm. Newton starts from the higher of the tangent
    roots of `starts`, (lam, M, slope) at lo and hi, and the points rise
    to the norm quadratically. A point only proposes: it moves lo or hi
    after mod(p, slope=True) is evaluated there. Once the
    next step is predicted below _NEWTON_RTOL, the points (1 +- _PROBE)
    times the proposal are evaluated with `mod`, closing the bracket. The
    upper one becomes hi even where an evaluated point at the norm itself
    was lower, so that the returned lam is about _PROBE above the norm: no
    summation order reads its modular above 1, and it lies within 6e-13 of
    what bisection returns.

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
    budget = _bisections(lo, hi) + _NEWTON_SLACK
    used = 0

    def room(n):  # n more evaluations and the bisection after them fit the budget
        return used + n + _bisections(lo, hi) <= budget

    def probe(p):  # evaluate the modular at p, which becomes lo or hi
        nonlocal used, lo, hi
        used += 1
        if mod(p) <= 1.0:
            hi = p
        else:
            lo = p

    g = x = math.nan
    for t in starts:  # hi first, so that a tie goes to the nearer point
        r = _tangent_root(*t)
        if math.isnan(g) or r > g:
            g, x = r, t[0]
    prev = 0.0  # the previous step, none yet
    while math.isfinite(g):
        step = abs(g - x)
        # quadratic convergence: the next step is about step (step / prev)^2
        if step <= _NEWTON_RTOL * g or (
            step < prev and step * (step / prev) ** 2 <= _NEWTON_RTOL * g
        ):
            up, down = min(g * (1.0 + _PROBE), _DBL_MAX), g * (1.0 - _PROBE)
            if lo < up and room(1):  # even above hi: see the docstring
                probe(up)
            if lo < down < hi and room(1):
                probe(down)
            break
        if not lo < g < hi:
            break
        u = g + step  # above the norm, once Newton converges
        if not room(2) and room(1) and x < g and u < hi:
            probe(u)
            if lo == u:
                break  # Newton is far off: bisect
        if not room(1):
            break
        x, prev = g, step
        m, d = mod(x, slope=True)
        used += 1
        if m <= 1.0:
            hi = x
        else:
            lo = x
        g = _tangent_root(x, m, d)
    return lo, hi
