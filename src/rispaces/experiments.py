"""Verification procedures producing structured, reproducible reports.

Each suite checks one finite-dimensional inequality or construction: the
sqrt(n) growth of Rademacher sums, the sign-selection lower bound for Orlicz
norms (with a derandomized selector), the Marcinkiewicz envelope of a space,
the indicator/layer-cake chain leading from G to G1, and the basic norm
identities that everything else rests on.

Every report is a pure function of (parameters, seed): instances are drawn
up front from a seeded generator and row order is fixed, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _signdist_py as _kernel
from . import orlicz as _orlicz
from . import weights as _weights
from .rademacher import MAX_ENUM_N, MAX_EQUAL_N, sum_rearrangement, rademacher_sum_norm
from .spaces import (
    _HINGE_RTOL,
    SpaceSpec,
    catalog,
    envelope_weight,
    fundamental_function,
    hinge_family_bounds,
    lp_space,
    orlicz_space,
    ri_norm_max,
    ri_norm_rows,
    space_G,
    space_G1,
)
from .stepfn import (
    StepFunction,
    StepRows,
    common_breakpoints,
    indicator,
    lp_norm_rows,
    rearrange,  # not called here; perfbench's tracer tests wrap this binding
    rearrange_rows,
    values_on,
)

__all__ = [
    "ExperimentReport",
    "ExperimentError",
    "random_step_function",
    "random_indicator_function",
    "sign_bruteforce",
    "derandomized_signs",
    "theorem1_report",
    "envelope_lemma_check",
    "g1_chain_check",
    "g_g1_indicator_comparison",
    "hinge_sandwich_report",
    "rearrangement_report",
    "luxemburg_report",
    "fundamental_report",
    "SUITES",
    "run_suite",
]

MAX_SIGN_N = 20

# default slacks: bisection runs at 1e-12 relative, leaving two orders of
# headroom on every norm comparison
INEQ_SLACK = 1e-9
EQ_RTOL = 1e-8

_SPIKE_PROB = 0.1  # random_step_function: the chance that a plateau is a spike
_SPIKE_SCALE = 10.0  # and the spike's factor
_EQUAL_WINDOW_MAX = 3.0  # theorem1's pass windows
_STABILIZATION_MAX = 0.05
_RANDOM_WINDOW_MAX = 4.0
_T_MIN = 1e-6  # least t of the g1chain, gg1 and fundamental indicator grids


class ExperimentError(ValueError):
    """Bad experiment parameters."""


def _require(minimum: int, **params) -> None:
    """Reject a parameter below `minimum` before a suite draws anything, so
    that no suite crashes or passes on an empty set of instances."""
    for name, value in params.items():
        if value < minimum:
            raise ExperimentError(f"{name} must be >= {minimum}, got {value}")


@dataclass
class ExperimentReport:
    """One verification run: parameters in, rows and a pass flag out."""

    name: str
    params: dict
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    seed: int | None = None
    version: int = 1

    @property
    def passed(self) -> bool:
        return bool(self.summary.get("pass", False))

    def as_dict(self) -> dict:
        return _pyify(
            {
                "experiment": self.name,
                "version": self.version,
                "seed": self.seed,
                "params": self.params,
                "rows": self.rows,
                "summary": self.summary,
            }
        )

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        if self.rows:
            cols = list(self.rows[0].keys())
            out.write(",".join(cols) + "\n")
            for row in self.rows:
                out.write(",".join(_csv_cell(row.get(c)) for c in cols) + "\n")
        return out.getvalue()

    def to_text(self) -> str:
        lines = [
            f"experiment: {self.name} (v{self.version})",
            f"seed: {self.seed}",
            "params: " + json.dumps(self.params, sort_keys=True),
        ]
        if self.rows:
            cols = list(self.rows[0].keys())
            table = [[_text_cell(r.get(c)) for c in cols] for r in self.rows]
            widths = [
                max(len(c), *(len(t[i]) for t in table)) for i, c in enumerate(cols)
            ]
            lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            for t in table:
                lines.append("  ".join(v.rjust(w) for v, w in zip(t, widths)))
        lines.append("summary:")
        for key in sorted(self.summary):
            lines.append(f"  {key}: {_text_cell(self.summary[key])}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"


def _pyify(obj):
    """Recursively turn numpy scalars/arrays into plain Python values."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    return obj


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _text_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


# --- instance generators ------------------------------------------------------


def _random_breaks(rng, max_plateaus: int) -> np.ndarray:
    """Breakpoints of a random step function: a plateau count in
    [1, max_plateaus], then sorted uniform inner points."""
    k = int(rng.integers(1, max_plateaus + 1))
    breaks = np.empty(k + 1)
    breaks[0], breaks[k] = 0.0, 1.0
    breaks[1:k] = rng.uniform(0.0, 1.0, size=k - 1)
    breaks[1:k].sort()
    if (breaks[1:] > breaks[:-1]).all():
        return breaks
    # a draw of 0.0 or a repeated draw: drop it
    inner = np.unique(breaks[1:k])
    inner = inner[(inner > 0.0) & (inner < 1.0)]
    return np.concatenate(([0.0], inner, [1.0]))


def random_step_function(rng, max_plateaus: int = 10) -> StepFunction:
    """Random plateau count in [1, max_plateaus], sorted-uniform breakpoints,
    symmetric values with occasional large spikes to stress exponential tails."""
    breaks = _random_breaks(rng, max_plateaus)
    vals = rng.uniform(-1.0, 1.0, size=len(breaks) - 1)
    spikes = rng.random(len(vals)) < _SPIKE_PROB
    vals[spikes] *= _SPIKE_SCALE
    if (vals[1:] == vals[:-1]).any():
        return StepFunction(breaks, vals)  # merges the equal neighbours
    return StepFunction._canonical(breaks, vals)


def random_indicator_function(rng, max_plateaus: int = 10) -> StepFunction:
    """Random 0/1-valued step function with at least one plateau of ones."""
    breaks = _random_breaks(rng, max_plateaus)
    vals = rng.integers(0, 2, size=len(breaks) - 1).astype(float)
    if not np.any(vals == 1.0):
        vals[int(rng.integers(0, len(vals)))] = 1.0
    return StepFunction(breaks, vals)


def _random_unit_vector(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# --- sign selection -----------------------------------------------------------


def _refinement_matrix(xs):
    breaks = common_breakpoints(xs)
    X = np.empty((len(xs), len(breaks) - 1))
    for row, x in zip(X, xs):
        row[:] = values_on(x, breaks)
    return breaks, breaks[1:] - breaks[:-1], X


def _half_sign_sums(xs):
    """(breaks, lengths, X, S): the common refinement of the x_i, their values
    on it (one function per row of X) and the sums sum_i eps_i x_i.

    S has a row for each of the 2^(n-1) sign vectors with eps_1 = +1, in the
    kernel's lexicographic order (+1 before -1; `_row_signs` decodes a row):
    the others give the exact negations, and every norm and every Phi here
    is even, so a maximum or an average over these rows is one over all 2^n.
    The completions of a sign prefix are one contiguous block of rows.
    """
    n = len(xs)
    if not 1 <= n <= MAX_SIGN_N:
        raise ExperimentError(f"need 1 <= n <= {MAX_SIGN_N} functions, got {n}")
    breaks, dl, X = _refinement_matrix(xs)
    return breaks, dl, X, _kernel.enumerate_signed_sums(X[1:], start=X[0])


def _row_signs(row: int, n: int) -> tuple:
    """Signs of a `_half_sign_sums` row: +1, then the row's bits (1 is -1)."""
    return (1, *(1 - 2 * ((row >> k) & 1) for k in range(n - 2, -1, -1)))


def sign_bruteforce(xs, E: SpaceSpec):
    """Exact maximizer of ||sum_i eps_i x_i||_E over all 2^n sign vectors.

    Ties break lexicographically with +1 before -1, so eps_1 = +1. Returns
    (signs, best).
    """
    breaks, _, _, S = _half_sign_sums(xs)
    i, best = ri_norm_max(breaks, S, E)
    return _row_signs(i, len(xs)), best


def derandomized_signs(xs, phi: _orlicz.OrliczFunction, lam: float):
    """Sign vector from the method of conditional expectations.

    eps_1 = +1, as in `sign_bruteforce`: Phi is even, so the completions of
    -x_1 are the negations of those of +x_1 and give the same average. The
    other signs are fixed left to right, each keeping the choice whose
    conditional average of the modular is larger (+1 on ties); by pigeonhole
    the returned signs achieve a modular >= the average over all 2^n vectors.
    The averages are read from one table of the 2^(n-1) modulars, so the
    memory is that of `sign_bruteforce` at the same n.
    """
    if lam <= 0.0:
        raise ExperimentError(f"lam must be positive, got {lam}")
    _, dl, _, S = _half_sign_sums(xs)
    return _row_signs(_conditional_signs(phi(S / lam) @ dl), len(xs))


def _conditional_signs(mods) -> int:
    """Row of the `_half_sign_sums` table that `derandomized_signs` picks,
    given the modular of every row.

    The completions of a sign prefix are one block of rows, whose first half
    has the next sign +1, so each conditional average is a block mean: every
    step keeps the half with the larger mean (+1 on ties).
    """
    lo, size = 0, len(mods)
    while size > 1:
        size //= 2
        if np.mean(mods[lo + size : lo + 2 * size]) > np.mean(mods[lo : lo + size]):
            lo += size
    return lo


def _sign_instance(xs, phi: _orlicz.OrliczFunction) -> dict:
    """Quantities of the sign-selection inequality for one instance."""
    n = len(xs)
    _, dl, _, S = _half_sign_sums(xs)
    _, best = _orlicz.luxemburg_norm_max(S, dl, phi)
    rhs_fn = sum_rearrangement(ri_norm_rows(StepRows.stack(xs), lp_space(1.0)))
    rhs = _orlicz.luxemburg_norm(rhs_fn, phi)
    row = {
        "n": n,
        "phi": phi.descriptor,
        "lhs": best,
        "rhs": rhs,
        "margin": best - rhs,
        "pass": bool(best >= rhs - INEQ_SLACK),
    }
    # L1 variant of the left side, measured but not gated
    l1_best = float(np.max(lp_norm_rows(S, dl, 1.0)))
    row["l1_best"] = l1_best
    row["l1_ratio"] = l1_best / rhs if rhs > 0 else math.inf
    # the averaged-modular chain the proof actually establishes, at lam = lhs
    if best > 0.0:
        ave_eps = float(np.mean(phi(S / best) @ dl))
        ave_eta = _orlicz.modular(rhs_fn, phi, best)
        row["ave_eta_modular"] = ave_eta
        row["ave_eps_modular"] = ave_eps
        row["chain_ok"] = bool(ave_eta <= ave_eps + INEQ_SLACK)
    else:
        row["ave_eta_modular"] = 0.0
        row["ave_eps_modular"] = 0.0
        row["chain_ok"] = True
    return row


# --- suites ---------------------------------------------------------------


def theorem1_report(
    E: SpaceSpec | None = None,
    n_max: int = 16,
    trials: int = 200,
    seed: int = 42,
    random_n_max: int = 14,
) -> ExperimentReport:
    """Growth of ||sum_1^n r_i||_E / sqrt(n) and of coefficient sums against
    the Euclidean norm, with empirical constant windows; E=None means G."""
    _require(0, seed=seed, trials=trials, random_n_max=random_n_max)
    _require(1, n_max=n_max)
    if n_max > MAX_EQUAL_N:
        raise ExperimentError(f"n_max capped at {MAX_EQUAL_N}, got {n_max}")
    if random_n_max > MAX_ENUM_N:
        raise ExperimentError(f"random_n_max capped at {MAX_ENUM_N}, got {random_n_max}")
    E = space_G() if E is None else E
    rng = np.random.default_rng(seed)
    coeff_sets = {
        n: [_random_unit_vector(rng, n) for _ in range(trials)]
        for n in range(1, random_n_max + 1)
    }

    rows = []
    equal_ratios = []
    for n in range(1, n_max + 1):
        ratio = rademacher_sum_norm([1.0] * n, E) / math.sqrt(n)
        equal_ratios.append(ratio)
        row = {"n": n, "equal_ratio": ratio}
        if n <= random_n_max and trials > 0:
            rs = [rademacher_sum_norm(a, E) for a in coeff_sets[n]]
            row.update(
                rand_min=float(np.min(rs)),
                rand_max=float(np.max(rs)),
                rand_mean=float(np.mean(rs)),
            )
        rows.append(row)

    eq_lo, eq_hi = min(equal_ratios), max(equal_ratios)
    tail = [r for n, r in enumerate(equal_ratios, start=1) if 12 <= n <= n_max]
    stab = (max(tail) - min(tail)) / min(tail) if len(tail) >= 2 else 0.0
    rnd = [
        v
        for row in rows
        if "rand_min" in row
        for v in (row["rand_min"], row["rand_max"])
    ]
    rnd_window = (max(rnd) / min(rnd)) if rnd and min(rnd) > 0 else math.inf
    summary = {
        "equal_window": [eq_lo, eq_hi],
        "equal_window_ratio": eq_hi / eq_lo,
        "stabilization": stab,
        "random_window_ratio": rnd_window if rnd else None,
        "pass": bool(
            eq_hi / eq_lo <= _EQUAL_WINDOW_MAX
            and stab <= _STABILIZATION_MAX
            and (not rnd or rnd_window <= _RANDOM_WINDOW_MAX)
        ),
        "tolerances": {
            "equal_window_max": _EQUAL_WINDOW_MAX,
            "stabilization_max": _STABILIZATION_MAX,
            "random_window_max": _RANDOM_WINDOW_MAX,
        },
    }
    return ExperimentReport(
        "theorem1",
        params={
            "space": E.name,
            "n_max": n_max,
            "trials": trials,
            "random_n_max": random_n_max,
        },
        rows=rows,
        summary=summary,
        seed=seed,
    )


_SIGN_PHIS = ("power:1", "power:2", "exp2")


def _sign_instances(trials, n_max, seed, max_plateaus):
    """The seeded (xs, phi) instances of both sign suites: n uniform in
    [1, n_max] random step functions, Phi cycling over `_SIGN_PHIS`."""
    _require(0, seed=seed)
    _require(1, trials=trials, n_max=n_max)
    if n_max > MAX_SIGN_N:
        raise ExperimentError(f"n_max capped at {MAX_SIGN_N}, got {n_max}")
    phis = [_orlicz.parse_orlicz(d) for d in _SIGN_PHIS]
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(trials):
        n = int(rng.integers(1, n_max + 1))
        xs = [random_step_function(rng, max_plateaus) for _ in range(n)]
        instances.append((xs, phis[i % len(phis)]))
    return instances


def sign_selection_report(trials: int = 1000, n_max: int = 10, seed: int = 42) -> ExperimentReport:
    """Exhaustive verification of the sign-selection inequality on random
    instances, cycling Phi over power:1, power:2, exp2."""
    instances = _sign_instances(trials, n_max, seed, max_plateaus=10)
    rows = [_sign_instance(xs, phi) for xs, phi in instances]
    for i, row in enumerate(rows):
        row["case"] = i
    violations = sum(0 if r["pass"] else 1 for r in rows)
    chain_violations = sum(0 if r["chain_ok"] else 1 for r in rows)
    finite_ratios = [r["l1_ratio"] for r in rows if math.isfinite(r["l1_ratio"])]
    summary = {
        "violations": violations,
        "chain_violations": chain_violations,
        "min_margin": min(r["margin"] for r in rows),
        "l1_ratio_window": [min(finite_ratios), max(finite_ratios)]
        if finite_ratios
        else None,
        "pass": violations == 0 and chain_violations == 0,
        "tolerances": {"inequality_slack": INEQ_SLACK},
    }
    return ExperimentReport(
        "sign",
        params={"trials": trials, "n_max": n_max, "phis": list(_SIGN_PHIS)},
        rows=rows,
        summary=summary,
        seed=seed,
    )


def derandomization_report(trials: int = 200, n_max: int = 12, seed: int = 42) -> ExperimentReport:
    """Greedy conditional-expectation signs versus the exact modular
    distribution over all sign vectors."""
    instances = _sign_instances(trials, n_max, seed, max_plateaus=6)

    def one(xs, phi):
        n = len(xs)
        _, dl, X, S = _half_sign_sums(xs)
        # keep |values|/lam <= 1 so the exp-square modular stays tame
        lam = max(float(np.max(np.abs(X).sum(axis=0))), 1e-9)
        mods = phi(S / lam) @ dl
        greedy = float(mods[_conditional_signs(mods)])
        avg = float(np.mean(mods))
        # the quantile over all 2^n vectors: each row stands for two
        q75 = float(np.quantile(np.repeat(mods, 2), 0.75))
        l1_norms = ri_norm_rows(StepRows.stack(xs), lp_space(1.0))
        ave_eta = _orlicz.modular(sum_rearrangement(l1_norms), phi, lam)
        return {
            "n": n,
            "phi": phi.descriptor,
            "lam": lam,
            "greedy_modular": greedy,
            "avg_modular": avg,
            "q75_modular": q75,
            "ave_eta_modular": ave_eta,
            "pigeonhole_ok": bool(greedy >= avg * (1.0 - 1e-12) - 1e-300),
            "top_quartile": bool(greedy >= q75 * (1.0 - 1e-12)),
            "beats_eta_average": bool(greedy >= ave_eta * (1.0 - 1e-12) - 1e-300),
        }

    rows = [one(xs, phi) for xs, phi in instances]
    for i, row in enumerate(rows):
        row["case"] = i
    fails = sum(0 if r["pigeonhole_ok"] else 1 for r in rows)
    summary = {
        "pigeonhole_failures": fails,
        "top_quartile_fraction": sum(1 for r in rows if r["top_quartile"]) / len(rows),
        "beats_eta_fraction": sum(1 for r in rows if r["beats_eta_average"]) / len(rows),
        "pass": fails == 0,
        "tolerances": {"relative_slack": 1e-12},
    }
    return ExperimentReport(
        "derandomize",
        params={"trials": trials, "n_max": n_max, "phis": list(_SIGN_PHIS)},
        rows=rows,
        summary=summary,
        seed=seed,
    )


def envelope_lemma_check(
    E: SpaceSpec | None = None,
    trials: int = 1000,
    seed: int = 42,
    indicator_trials: int = 500,
) -> ExperimentReport:
    """Domination ||f||_E >= ||f||_{M(envelope)} and equality on 0/1-valued
    functions; E=None runs the whole catalog."""
    _require(0, seed=seed)
    _require(1, trials=trials, indicator_trials=indicator_trials)

    spaces = {E.name: E} if E is not None else catalog()
    rng = np.random.default_rng(seed)
    fs = StepRows.stack([random_step_function(rng) for _ in range(trials)])
    gs = StepRows.stack([random_indicator_function(rng) for _ in range(indicator_trials)])
    rows = []
    ok = True
    for name, space in spaces.items():
        env = envelope_weight(space)
        margins = ri_norm_rows(fs, space) - _weights.marcinkiewicz_sup_rows(fs, env)[0]
        worst = float(margins.min())
        lhs = ri_norm_rows(gs, space)
        rhs = _weights.marcinkiewicz_sup_rows(gs, env)[0]
        worst_gap = float((np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)).max())
        row_ok = worst >= -INEQ_SLACK * 10 and worst_gap <= EQ_RTOL
        ok = ok and row_ok
        rows.append(
            {
                "space": name,
                "min_domination_margin": worst,
                "max_indicator_gap": worst_gap,
                "pass": bool(row_ok),
            }
        )
    summary = {
        "pass": bool(ok),
        "tolerances": {"domination_slack": INEQ_SLACK * 10, "equality_rtol": EQ_RTOL},
    }
    return ExperimentReport(
        "envelope",
        params={
            "spaces": sorted(spaces),
            "trials": trials,
            "indicator_trials": indicator_trials,
        },
        rows=rows,
        summary=summary,
        seed=seed,
    )


def g1_chain_check(trials: int = 1000, seed: int = 42, grid: int = 200) -> ExperimentReport:
    """Three steps behind the embedding of G1: (a) the indicator norm of G is
    dominated by c * psi(t); (b) the layer-cake bound ||f||_E <= sum of
    indicator norms times value drops; (c) the measured constant in
    ||f||_G <= c' ||f||_G1, with a doubled-trials drift check."""
    _require(0, seed=seed)
    _require(1, trials=trials, grid=grid)

    G, G1 = space_G(), space_G1()
    psi = _weights.log_psi()

    ts = np.geomspace(_T_MIN, 1.0, grid)
    fund = fundamental_function(G, ts)
    c_values = fund / psi(ts)
    c_a = float(np.max(c_values))
    spot = float(fundamental_function(G, 1.0) / psi(np.array([1.0]))[0])

    rng = np.random.default_rng(seed)
    fs = rearrange_rows(StepRows.stack([random_step_function(rng) for _ in range(trials)]))
    real, ks, V = fs.real(), fs.counts, fs.values
    drops = V - np.append(V[:, 1:], np.zeros((trials, 1)), axis=1)  # the last one v_k - 0
    right_ends = fs.breakpoints[:, 1:]

    layer_worst, norms = {}, {}
    for name, E in catalog().items():
        norms[name] = ri_norm_rows(fs, E)
        fund = np.zeros_like(drops)
        fund[real] = fundamental_function(E, right_ends[real])
        rhs = [float(np.dot(a[:k], d[:k])) for a, d, k in zip(fund, drops, ks)]
        layer_worst[name] = float(np.max(norms[name] - rhs))  # must be <= 0 up to slack

    def g_ratio(g, g1):
        return np.divide(g, g1, out=np.zeros_like(g), where=g1 > 0)

    c_c = float(np.max(g_ratio(norms["G"], norms["G1"])))
    # the doubled sample: fs, then the next `trials` draws of the same stream
    more = rearrange_rows(StepRows.stack([random_step_function(rng) for _ in range(trials)]))
    c_c2 = max(c_c, float(np.max(g_ratio(ri_norm_rows(more, G), ri_norm_rows(more, G1)))))
    drift = abs(c_c2 - c_c) / c_c if c_c > 0 else 0.0

    rows = [
        {"check": "indicator_bound", "c": c_a, "spot_t1": spot},
        *(
            {"check": "layer_cake", "space": name, "max_violation": layer_worst[name]}
            for name in sorted(layer_worst)
        ),
        {"check": "conclusion", "c_prime": c_c, "c_prime_doubled": c_c2, "drift": drift},
    ]
    ok = (
        math.isfinite(c_a)
        and all(v <= EQ_RTOL for v in layer_worst.values())
        and math.isfinite(c_c)
        and drift < 0.10
    )
    summary = {
        "c_indicator": c_a,
        "spot_t1": spot,
        "c_prime": c_c,
        "drift": drift,
        "pass": bool(ok),
        "tolerances": {"layer_cake_slack": EQ_RTOL, "drift_max": 0.10},
    }
    return ExperimentReport(
        "g1chain",
        params={"trials": trials, "grid": grid, "t_min": _T_MIN},
        rows=rows,
        summary=summary,
        seed=seed,
    )


def g_g1_indicator_comparison(grid: int = 200) -> ExperimentReport:
    """Indicator norms of G (exact Orlicz), G1, and M(phi_G) over a log grid,
    with pairwise ratio windows. Pass means equivalence (ratios in [1/4, 4]),
    not equality; the exact-Orlicz-to-G1 ratio tends to 1/2 at small t.

    Also tabulates t/phi(t) for the non-concave reading of the G weight,
    whose indicator quantity blows up as t -> 0.
    """
    _require(1, grid=grid)
    G = space_G()
    phi1 = _weights.log_g1()
    phi_g = _weights.log_g()
    phi_printed = _weights.log_g_printed()
    ts = np.geomspace(_T_MIN, 1.0, grid)
    n_g = fundamental_function(G, ts)
    n_g1 = phi1(ts)
    n_mg = ts / phi_g(ts)
    printed = ts / phi_printed(ts)
    rows = [
        {
            "t": float(t),
            "norm_G": float(a),
            "norm_G1": float(b),
            "norm_MG": float(c),
            "printed_weight_quantity": float(d),
            "ratio_G_G1": float(a / b),
            "ratio_G_MG": float(a / c),
            "ratio_G1_MG": float(b / c),
        }
        for t, a, b, c, d in zip(ts, n_g, n_g1, n_mg, printed)
    ]
    ratios = np.concatenate([n_g / n_g1, n_g / n_mg, n_g1 / n_mg])
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    small_t_ratio = float(n_g[0] / n_g1[0])
    ok = lo >= 0.25 and hi <= 4.0 and abs(small_t_ratio - 0.5) <= 0.05
    summary = {
        "ratio_window": [lo, hi],
        "small_t_ratio_G_over_G1": small_t_ratio,
        "printed_weight_quantity_range": [float(printed.min()), float(printed.max())],
        "pass": bool(ok),
        "tolerances": {"ratio_bounds": [0.25, 4.0], "small_t_target": [0.45, 0.55]},
    }
    return ExperimentReport(
        "gg1",
        params={"grid_size": grid, "t_min": _T_MIN},
        rows=rows,
        summary=summary,
    )


def hinge_sandwich_report(
    trials: int = 1000, seed: int = 42, oracle_instances: int = 20
) -> ExperimentReport:
    """A/2 <= hinge Orlicz norm <= A for A the partial integral up to t, plus
    a mu-grid re-derivation of A = inf_mu (t*mu + int (|f|-mu)^+)."""
    _require(0, seed=seed, oracle_instances=oracle_instances)
    _require(1, trials=trials)
    rng = np.random.default_rng(seed)
    cases = [
        (random_step_function(rng), float(rng.uniform(0.01, 1.0)))
        for _ in range(trials)
    ]

    bounds = hinge_family_bounds(StepRows.stack([f for f, _ in cases]), [t for _, t in cases])
    rows = [
        {"t": t, "lower": hb.lower, "upper": hb.upper, "norm": hb.norm, "pass": hb.ok, "case": i}
        for i, ((_, t), hb) in enumerate(zip(cases, bounds))
    ]

    # independent oracle for the sandwich constants: grid over mu at the kinks
    oracle_worst = 0.0
    for (f, t), hb in zip(cases[:oracle_instances], bounds):
        A = hb.upper  # the partial integral of the rearrangement up to t
        vals = np.abs(f.values)
        mus = np.unique(np.concatenate(([0.0], vals, (vals[:-1] + vals[1:]) / 2.0)))
        penalties = [
            t * mu + float(np.dot(np.maximum(vals - mu, 0.0), f.lengths)) for mu in mus
        ]
        lo = min(penalties)
        oracle_worst = max(oracle_worst, abs(A - lo) / A if A else math.inf if lo else 0.0)

    fails = sum(0 if r["pass"] else 1 for r in rows)
    summary = {
        "violations": fails,
        "mu_oracle_max_gap": oracle_worst,
        "pass": bool(fails == 0 and oracle_worst <= 1e-10),
        "tolerances": {"sandwich_rtol": _HINGE_RTOL, "mu_oracle_rtol": 1e-10},
    }
    return ExperimentReport(
        "hinge",
        params={"trials": trials, "oracle_instances": oracle_instances},
        rows=rows,
        summary=summary,
        seed=seed,
    )


def rearrangement_report(trials: int = 10000, seed: int = 42) -> ExperimentReport:
    """Idempotence (bitwise), equimeasurability, and integral preservation of
    the decreasing rearrangement on random step functions."""
    _require(0, seed=seed)
    _require(1, trials=trials)
    rng = np.random.default_rng(seed)
    batch = 1000
    rows = []
    idem_fail = 0
    max_measure_dev = 0.0
    max_integral_dev = 0.0
    for start in range(0, trials, batch):
        b_measure = 0.0
        b_integral = 0.0
        fs = StepRows.stack([random_step_function(rng) for _ in range(min(batch, trials - start))])
        rs = rearrange_rows(fs)
        again = rearrange_rows(rs)  # f** is f*, row by row, bit for bit
        idem_fail += int(((again.counts != rs.counts) | (again.values != rs.values).any(1)
                          | (again.breakpoints != rs.breakpoints).any(1)).sum())
        # each row's real cells: f's |values| and lengths, then f*'s
        cells = zip(np.abs(fs.values), fs.lengths, fs.counts, rs.values, rs.lengths, rs.counts)
        for fv, fl, k, rv, rl, kr in cells:
            fv, fl, rv, rl = fv[:k], fl[:k], rv[:kr], rl[:kr]
            a = np.sort(np.unique(fv))
            cs = np.concatenate((a, (a[:-1] + a[1:]) / 2.0, a * 0.999999))
            cs = cs[cs > 0.0]
            m1 = (fv[None, :] > cs[:, None]) @ fl
            m2 = (rv[None, :] > cs[:, None]) @ rl
            if len(cs):
                b_measure = max(b_measure, float(np.max(np.abs(m1 - m2))))
            b_integral = max(b_integral, abs(math.fsum(fv * fl) - math.fsum(rv * rl)))
        rows.append(
            {
                "cases": [start, start + min(batch, trials - start)],
                "max_measure_dev": b_measure,
                "max_integral_dev": b_integral,
            }
        )
        max_measure_dev = max(max_measure_dev, b_measure)
        max_integral_dev = max(max_integral_dev, b_integral)
    summary = {
        "idempotence_failures": idem_fail,
        "max_measure_dev": max_measure_dev,
        "max_integral_dev": max_integral_dev,
        "pass": idem_fail == 0 and max_measure_dev <= 1e-12 and max_integral_dev <= 1e-12,
        "tolerances": {"summation_slack": 1e-12},
    }
    return ExperimentReport(
        "rearrangement", params={"trials": trials}, rows=rows, summary=summary, seed=seed
    )


def luxemburg_report(
    trials: int = 1000, grid: int = 100, seed: int = 42
) -> ExperimentReport:
    """Luxemburg norm against closed forms: exp-square indicator norms and the
    Lp specialization on random functions."""
    _require(0, seed=seed)
    _require(1, trials=trials, grid=grid)
    ts = np.geomspace(1e-6, 1.0, grid)
    nums = ri_norm_rows(StepRows.stack([indicator(float(t)) for t in ts]), space_G())
    refs = np.array([1.0 / math.sqrt(math.log1p(1.0 / t)) for t in ts])
    worst_cf = float(np.max(np.abs(nums - refs) / refs))
    rng = np.random.default_rng(seed)
    ps = (1.0, 1.5, 2.0, 3.0, 4.0)
    fs = [random_step_function(rng) for _ in range(trials)]
    worst_lp = 0.0
    for j, p in enumerate(ps[:trials]):  # function i has exponent ps[i % 5]
        rows = StepRows.stack(fs[j :: len(ps)])
        # |s|^p without its exponent, so that the root finder, not the
        # closed form that power(p) takes, is checked against the Lp norm
        phi = _orlicz.power(p)
        solver = orlicz_space(_orlicz.OrliczFunction(phi.fn, phi.descriptor, phi.dphi))
        ref, num = ri_norm_rows(rows, lp_space(p)), ri_norm_rows(rows, solver)
        worst_lp = max(worst_lp, float(np.max(np.abs(num - ref) / np.maximum(ref, 1e-300))))
    summary = {
        "max_closed_form_rel_err": worst_cf,
        "max_lp_rel_err": worst_lp,
        "pass": worst_cf <= 1e-9 and worst_lp <= 1e-9,
        "tolerances": {"rtol": 1e-9},
    }
    return ExperimentReport(
        "luxemburg",
        params={"trials": trials, "grid": grid},
        rows=[
            {"check": "exp2_closed_form", "max_rel_err": worst_cf},
            {"check": "lp_specialization", "max_rel_err": worst_lp},
        ],
        summary=summary,
        seed=seed,
    )


def fundamental_report(grid: int = 50, oracle_points: int = 1_000_000) -> ExperimentReport:
    """Indicator-norm identities for Lorentz and Marcinkiewicz spaces, with a
    dense-grid oracle for the Marcinkiewicz supremum and the product identity
    ||I||_Lorentz * ||I||_Marcinkiewicz = t."""
    _require(1, grid=grid, oracle_points=oracle_points)
    weights_list = [
        _weights.power_weight(0.5),
        _weights.power_weight(1.0),
        _weights.log_g(),
        _weights.log_g1(),
        _weights.log_psi(),
    ]
    ts = np.geomspace(_T_MIN, 1.0, grid)
    indicators = StepRows.stack([indicator(float(t)) for t in ts])
    oracle_base = np.geomspace(1e-8, 1.0, oracle_points)
    rows = []
    ok = True
    for w in weights_list:
        w_t = w(ts)
        closed = ts / w_t
        lor = _weights.lorentz_norm_rows(indicators, w)
        marc = _weights.marcinkiewicz_sup_rows(indicators, w)[0]
        oracle_w = w(oracle_base)
        # sup of min(s, t) / w(s) over the grid and the point s = t
        oracle = np.maximum([np.max(np.minimum(oracle_base, t) / oracle_w) for t in ts], closed)
        lor_exact = bool(np.all(lor == w_t))
        worst_m = float(np.max(np.abs(marc - closed) / closed))
        worst_oracle = float(np.max(np.abs(marc - oracle) / oracle))
        worst_prod = float(np.max(np.abs(lor * marc - ts) / ts))
        row_ok = lor_exact and worst_m <= EQ_RTOL and worst_oracle <= EQ_RTOL and worst_prod <= EQ_RTOL
        ok = ok and row_ok
        rows.append(
            {
                "weight": w.descriptor,
                "lorentz_exact": lor_exact,
                "max_marcinkiewicz_rel_err": worst_m,
                "max_oracle_rel_err": worst_oracle,
                "max_product_rel_err": worst_prod,
                "pass": bool(row_ok),
            }
        )
    summary = {
        "pass": bool(ok),
        "tolerances": {"rtol": EQ_RTOL},
    }
    return ExperimentReport(
        "fundamental",
        params={"grid": grid, "oracle_points": oracle_points, "t_min": _T_MIN},
        rows=rows,
        summary=summary,
    )


# --- suite registry (CLI entry points) -----------------------------------------

SUITES = {
    "rearrangement": rearrangement_report,
    "luxemburg": luxemburg_report,
    "fundamental": fundamental_report,
    "theorem1": theorem1_report,
    "sign": sign_selection_report,
    "derandomize": derandomization_report,
    "envelope": envelope_lemma_check,
    "g1chain": g1_chain_check,
    "gg1": g_g1_indicator_comparison,
    "hinge": hinge_sandwich_report,
}


def _suite(name: str):
    """The suite function registered as `name`; its signature declares the
    parameters the suite takes and their defaults."""
    if name not in SUITES:
        raise ExperimentError(f"unknown suite {name!r}; valid: {', '.join(sorted(SUITES))}")
    return SUITES[name]


def run_suite(name: str, **kwargs) -> ExperimentReport:
    return _suite(name)(**kwargs)
