"""Unified space descriptors and norm dispatch.

A SpaceSpec names one rearrangement-invariant space: Orlicz, Lorentz,
Marcinkiewicz, Lp, or Linf. The catalog spaces are

    G   exp-square Orlicz norm on step functions,
    G1  Lorentz space with weight 2/sqrt(log(e^2/t)),
    MG  Marcinkiewicz space with weight t*sqrt(log(e/t)),
    L1.

Also here: fundamental functions (indicator norms) with cross-checked closed
forms, the Marcinkiewicz envelope of a space, and the hinge-function bound
that makes the partial integral an Orlicz-equivalent quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import orlicz as _orlicz
from . import weights as _weights
from .stepfn import (
    StepFunction,
    StepRows,
    _descriptor_number,
    _lp_norm_rows,
    indicator,
    partial_integral_rows,
    rearrange,  # not called here; perfbench's tracer tests wrap this binding
    rearrange_rows,
)

__all__ = [
    "SpaceSpec",
    "SpaceError",
    "orlicz_space",
    "lorentz_space",
    "marcinkiewicz_space",
    "lp_space",
    "linf_space",
    "space_G",
    "space_G1",
    "space_MG",
    "catalog",
    "parse_space",
    "ri_norm",
    "ri_norm_rows",
    "ri_norm_max",
    "fundamental_function",
    "envelope_weight",
    "hinge_family_bound",
    "hinge_family_bounds",
    "HingeBound",
]


class SpaceError(ValueError):
    """Unknown or inconsistent space descriptor."""


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    kind: str  # "orlicz" | "lorentz" | "marcinkiewicz" | "lp" | "linf"
    name: str
    phi: Optional[_orlicz.OrliczFunction] = None
    weight: Optional[_weights.ConcaveWeight] = None
    p: Optional[float] = None  # the exponent of "lp", inf for "linf"

    def __repr__(self) -> str:
        return f"SpaceSpec({self.name})"


def orlicz_space(phi: _orlicz.OrliczFunction, name: str | None = None) -> SpaceSpec:
    return SpaceSpec("orlicz", name or f"orlicz:{phi.descriptor}", phi=phi)


def lorentz_space(w: _weights.ConcaveWeight, name: str | None = None) -> SpaceSpec:
    return SpaceSpec("lorentz", name or f"lorentz:{w.descriptor}", weight=w)


def marcinkiewicz_space(w: _weights.ConcaveWeight, name: str | None = None) -> SpaceSpec:
    return SpaceSpec("marcinkiewicz", name or f"marcinkiewicz:{w.descriptor}", weight=w)


@lru_cache(maxsize=None)  # one SpaceSpec per p, so its closed form is checked once
def lp_space(p: float) -> SpaceSpec:
    if not p >= 1.0:
        raise SpaceError(f"Lp needs p >= 1, got {p}")
    return SpaceSpec("lp", f"Lp:{p:g}", p=float(p))


def linf_space() -> SpaceSpec:
    return SpaceSpec("linf", "Linf", p=math.inf)


@lru_cache(maxsize=None)
def space_G() -> SpaceSpec:
    return orlicz_space(_orlicz.exp_square(), name="G")


@lru_cache(maxsize=None)
def space_G1() -> SpaceSpec:
    return lorentz_space(_weights.log_g1(), name="G1")


@lru_cache(maxsize=None)
def space_MG() -> SpaceSpec:
    return marcinkiewicz_space(_weights.log_g(), name="MG")


def catalog() -> dict:
    return {
        "G": space_G(),
        "G1": space_G1(),
        "MG": space_MG(),
        "L1": lp_space(1.0),
    }


def parse_space(descriptor: str) -> SpaceSpec:
    """Parse `G`, `G1`, `MG`, `L1`, `Lp:p`, `Linf`, `orlicz:<d>`,
    `lorentz:<d>`, `marcinkiewicz:<d>`."""
    d = descriptor.strip()
    fixed = catalog()
    if d in fixed:
        return fixed[d]
    if d == "Linf":
        return linf_space()
    if d.startswith("Lp:"):
        return lp_space(_descriptor_number(d, SpaceError))
    if d.startswith("orlicz:"):
        return orlicz_space(_orlicz.parse_orlicz(d.split(":", 1)[1]))
    if d.startswith("lorentz:"):
        return lorentz_space(_weights.parse_weight(d.split(":", 1)[1]))
    if d.startswith("marcinkiewicz:"):
        return marcinkiewicz_space(_weights.parse_weight(d.split(":", 1)[1]))
    raise SpaceError(
        f"unknown space descriptor {descriptor!r}; valid: G, G1, MG, L1, Lp:p, "
        "Linf, orlicz:<d>, lorentz:<d>, marcinkiewicz:<d>"
    )


def ri_norm_rows(rows: StepRows, E: SpaceSpec) -> np.ndarray:
    """The E-norm of each row: the one dispatch on the space kind. Lorentz,
    Marcinkiewicz and Lp norms are computed on the whole batch (Lp norms by
    the body of `lp_norm`); Orlicz norms row by row on the real cells, by the
    Luxemburg solver."""
    if E.kind == "lorentz":
        return _weights.lorentz_norm_rows(rows, E.weight)
    if E.kind == "marcinkiewicz":
        return _weights.marcinkiewicz_sup_rows(rows, E.weight)[0]
    if E.kind in ("lp", "linf"):
        return _lp_norm_rows(rows, E.p)
    if E.kind == "orlicz":
        cells = zip(rows.values, rows.lengths, rows.counts)  # a row's real cells: [:k]
        return np.array([_orlicz.luxemburg_norm_max(v[None, :k], l[:k], E.phi)[1]
                         for v, l, k in cells])
    raise SpaceError(f"unhandled space kind {E.kind!r}")


def ri_norm(f: StepFunction, E: SpaceSpec) -> float:
    """The E-norm of f: the one-row case of `ri_norm_rows`."""
    return float(ri_norm_rows(StepRows.of(f), E)[0])


def ri_norm_max(breaks: np.ndarray, S: np.ndarray, E: SpaceSpec):
    """(index, norm) of the row of S of largest E-norm, each row the values of
    a step function on `breaks`; ties go to the lowest index. Orlicz norms
    come from the pruned search of `luxemburg_norm_max`; the others are the
    `ri_norm` of each row."""
    if E.kind == "orlicz":
        return _orlicz.luxemburg_norm_max(S, np.diff(breaks), E.phi)
    norms = ri_norm_rows(StepRows.stack([StepFunction(breaks, row) for row in S]), E)
    i = int(np.argmax(norms))
    return i, float(norms[i])


def _closed_form_fundamental(E: SpaceSpec, t: np.ndarray):
    """Vectorized indicator-norm formula, or None when no closed form applies."""
    if E.kind == "lorentz":
        return E.weight(t)
    if E.kind == "marcinkiewicz":
        # s/phi(s) is non-decreasing for concave phi, so the sup sits at s=t;
        # the generic sup raises WeightError for a non-concave phi
        return t / E.weight(t)
    p = E.phi.p if E.kind == "orlicz" else E.p  # Phi = |s|^p: the Lp norm
    if p is not None:
        return t ** (1.0 / p)
    if E.phi.descriptor == "exp2":
        with np.errstate(over="ignore"):  # 1/t overflows below 1/DBL_MAX
            inv = 1.0 / t
        return 1.0 / np.sqrt(np.where(np.isinf(inv), np.log1p(t) - np.log(t), np.log1p(inv)))
    return None


@lru_cache(maxsize=None)
def _closed_form_checked(E: SpaceSpec) -> bool:
    """Cross-check the closed form against the generic norm path once."""
    t = np.geomspace(1e-4, 1.0, 10)
    cf = _closed_form_fundamental(E, t)
    if cf is None:
        return False
    norms = ri_norm_rows(StepRows.stack([indicator(float(ti)) for ti in t]), E)
    for ti, ci, generic in zip(t, cf, norms):
        if abs(generic - ci) > 1e-8 * max(abs(ci), 1e-300):
            raise SpaceError(
                f"{E.name}: closed-form fundamental {ci} disagrees with generic "
                f"norm {generic} at t={ti}"
            )
    return True


def fundamental_function(E: SpaceSpec, t):
    """Indicator norm ||I_(0,t]||_E; accepts a scalar or an array of t."""
    arr = np.asarray(t, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any((arr <= 0.0) | (arr > 1.0)):
        raise SpaceError(f"fundamental function needs t in (0, 1]")
    if _closed_form_checked(E):
        out = _closed_form_fundamental(E, arr)
    else:
        out = ri_norm_rows(StepRows.stack([indicator(float(ti)) for ti in arr]), E)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=None)
def envelope_weight(E: SpaceSpec) -> _weights.ConcaveWeight:
    """Weight t / ||I_(0,t]||_E; M(weight) is dominated by E everywhere and
    agrees with it on 0/1-valued functions.

    Concavity of this weight is not guaranteed for arbitrary spaces. It is
    diagnosed once, when a norm first needs the diagnosis, and a
    Marcinkiewicz norm with a weight that fails it raises `WeightError`.
    """

    def fn(t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        pos = t > 0.0
        out[pos] = t[pos] / fundamental_function(E, t[pos])
        return out

    return _weights.ConcaveWeight(fn, f"envelope:{E.name}")


_HINGE_RTOL = 1e-10  # slack of HingeBound.ok relative to A, which the hinge suite reports


class HingeBound(NamedTuple):
    lower: float  # half the partial integral of the rearrangement up to t
    upper: float  # the partial integral itself
    norm: float  # Luxemburg norm under Phi(s) = (|s| - 1/t)^+

    @property
    def ok(self) -> bool:
        slack = _HINGE_RTOL * self.upper
        return self.lower - slack <= self.norm <= self.upper + slack


def hinge_family_bounds(rows: StepRows, ts: Sequence[float]) -> list:
    """The HingeBound of each row f and its t in `ts`: the sandwich A/2 <= N
    <= A for A = int_0^t f* and the hinge Orlicz norm N.

    Both constants follow from int_0^t f* = inf_mu (t*mu + int (|f|-mu)^+).
    N = max_b F(b)/(1 + b/t) over the right ends b of f*'s cells, F(b) = int_0^b f*,
    exactly: the modular at 1/mu keeps f*'s top cells, so it is max_b (mu F(b) - b/t).
    """
    ts = np.asarray(ts, dtype=np.float64)
    if ts.shape != (len(rows),):
        raise SpaceError(f"need one t per row: {ts.size} t for {len(rows)} rows")
    outside = ~((ts > 0.0) & (ts <= 1.0))
    if outside.any():
        raise SpaceError(f"hinge parameter t={float(ts[outside][0])} outside (0, 1]")
    r = rearrange_rows(rows)
    A = partial_integral_rows(r, ts)
    F = (r.values * r.lengths).cumsum(1)
    N = np.where(r.real(), F / (1.0 + r.breakpoints[:, 1:] / ts[:, None]), 0.0).max(1)
    return [HingeBound(a / 2.0, a, n) for a, n in zip(A.tolist(), N.tolist())]


def hinge_family_bound(f: StepFunction, t: float) -> HingeBound:
    """The hinge sandwich of f at t: the one-row case of `hinge_family_bounds`."""
    return hinge_family_bounds(StepRows.of(f), [t])[0]
