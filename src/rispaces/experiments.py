"""Verification procedures producing structured, reproducible reports.

Each suite checks one finite-dimensional inequality or construction: the
sqrt(n) growth of Rademacher sums, the sign-selection lower bound for Orlicz
norms (with a derandomized selector), the Marcinkiewicz envelope of a space,
the indicator/layer-cake chain leading from G to G1, and the basic norm
identities that everything else rests on.

Every report is a pure function of (parameters, seed): instances are drawn
up front from a seeded generator and row order is fixed, so repeated runs are
byte-identical. Row evaluation may be spread over threads via the
RISPACES_WORKERS environment variable (positive integer, 1 = serial).
"""

from __future__ import annotations

import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import orlicz as _orlicz
from . import weights as _weights
from .rademacher import sum_rearrangement, rademacher_sum_norm
from .spaces import (
    SpaceSpec,
    catalog,
    envelope_weight,
    fundamental_function,
    hinge_family_bound,
    space_G,
    space_G1,
)
from .stepfn import (
    StepFunction,
    common_breakpoints,
    indicator,
    integral,
    l1_norm,
    lp_norm,
    lp_norm_rows,
    measure_above,
    partial_integral,
    rearrange,
    stieltjes,
    values_on,
)

__all__ = [
    "ExperimentReport",
    "ExperimentError",
    "random_step_function",
    "random_indicator_function",
    "sign_bruteforce",
    "derandomized_signs",
    "orlicz_sign_inequality",
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
WORKERS_ENV = "RISPACES_WORKERS"

# default slacks: bisection runs at 1e-12 relative, leaving two orders of
# headroom on every norm comparison
INEQ_SLACK = 1e-9
EQ_RTOL = 1e-8


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


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ExperimentError(f"{WORKERS_ENV}={raw!r} is not a positive integer")
    if n < 1:
        raise ExperimentError(f"{WORKERS_ENV} must be >= 1, got {n}")
    return n


def _pmap(fn, items):
    """Order-preserving map, threaded when RISPACES_WORKERS > 1."""
    n = worker_count()
    items = list(items)
    if n == 1 or len(items) < 2:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# --- instance generators ------------------------------------------------------


def random_step_function(
    rng, max_plateaus: int = 10, spike_prob: float = 0.1, spike_scale: float = 10.0
) -> StepFunction:
    """Random plateau count in [1, max_plateaus], sorted-uniform breakpoints,
    symmetric values with occasional large spikes to stress exponential tails."""
    k = int(rng.integers(1, max_plateaus + 1))
    inner = np.unique(rng.uniform(0.0, 1.0, size=k - 1))
    inner = inner[(inner > 0.0) & (inner < 1.0)]
    breaks = np.concatenate(([0.0], inner, [1.0]))
    vals = rng.uniform(-1.0, 1.0, size=len(breaks) - 1)
    spikes = rng.random(len(vals)) < spike_prob
    vals[spikes] *= spike_scale
    return StepFunction(breaks, vals)


def random_indicator_function(rng, max_plateaus: int = 10) -> StepFunction:
    """Random 0/1-valued step function with at least one plateau of ones."""
    k = int(rng.integers(1, max_plateaus + 1))
    inner = np.unique(rng.uniform(0.0, 1.0, size=k - 1))
    inner = inner[(inner > 0.0) & (inner < 1.0)]
    breaks = np.concatenate(([0.0], inner, [1.0]))
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
    X = np.vstack([values_on(x, breaks) for x in xs])
    return breaks, np.diff(breaks), X


def _all_signs(n: int) -> np.ndarray:
    """All 2^n sign vectors in lexicographic order, +1 before -1."""
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def _half_sign_sums(xs):
    """(breaks, lengths, signs, S): the common refinement of the x_i and the
    sums sum_i eps_i x_i on it, one row of S per row of `signs`.

    `signs` holds only the 2^(n-1) sign vectors with eps_1 = +1, in
    lexicographic order (+1 before -1): the others give the exact negations,
    and every norm and every Phi here is even, so a maximum or an average
    over these rows is one over all 2^n.
    """
    n = len(xs)
    if not 1 <= n <= MAX_SIGN_N:
        raise ExperimentError(f"need 1 <= n <= {MAX_SIGN_N} functions, got {n}")
    breaks, dl, X = _refinement_matrix(xs)
    signs = np.hstack([np.ones((1 << (n - 1), 1)), _all_signs(n - 1)])
    return breaks, dl, signs, signs @ X


def sign_bruteforce(xs, E: SpaceSpec):
    """Exact maximizer of ||sum_i eps_i x_i||_E over all 2^n sign vectors.

    Ties break lexicographically with +1 before -1, so eps_1 = +1. Returns
    (signs, best).
    """
    breaks, dl, signs, S = _half_sign_sums(xs)
    if E.kind == "orlicz":
        i, best = _orlicz.luxemburg_norm_max(S, dl, E.phi)
        return tuple(int(s) for s in signs[i]), best
    if E.kind == "lp":
        norms = lp_norm_rows(S, dl, E.p)
    elif E.kind == "linf":
        norms = np.abs(S).max(axis=1)
    else:
        norms = np.array([ri_norm_of_row(breaks, row, E) for row in S])
    i = int(np.argmax(norms))
    return tuple(int(s) for s in signs[i]), float(norms[i])


def ri_norm_of_row(breaks, row, E):
    from .spaces import ri_norm

    return ri_norm(StepFunction(breaks, row), E)


_CHUNK_BITS = 16


def _avg_modular(base, rest, dl, phi, lam):
    """Exact average of the modular over all sign completions of `rest`."""
    r = len(rest)
    if r == 0:
        return float(np.dot(phi(base / lam), dl))
    total = 0.0
    n_rows = 1 << r
    chunk = min(n_rows, 1 << _CHUNK_BITS)
    shifts = np.arange(r - 1, -1, -1)
    for start in range(0, n_rows, chunk):
        idx = np.arange(start, start + chunk)
        signs = 1.0 - 2.0 * ((idx[:, None] >> shifts) & 1)
        V = base + signs @ rest
        total += float(np.sum(phi(V / lam) @ dl))
    return total / n_rows


def derandomized_signs(xs, phi: _orlicz.OrliczFunction, lam: float):
    """Sign vector from the method of conditional expectations.

    Fixes signs left to right, at each step keeping the choice whose exact
    conditional average of the modular is larger (+1 on ties); by pigeonhole
    the returned signs achieve a modular >= the average over all 2^n vectors.
    """
    if lam <= 0.0:
        raise ExperimentError(f"lam must be positive, got {lam}")
    n = len(xs)
    if not 1 <= n <= MAX_SIGN_N:
        raise ExperimentError(f"need 1 <= n <= {MAX_SIGN_N} functions, got {n}")
    _, dl, X = _refinement_matrix(xs)
    return _conditional_signs(X, dl, phi, lam)


def _conditional_signs(X, dl, phi, lam):
    """`derandomized_signs` on the refinement matrix X (one function per row)."""
    prefix = np.zeros(X.shape[1])
    chosen = []
    for i in range(X.shape[0]):
        rest = X[i + 1 :]
        avg_plus = _avg_modular(prefix + X[i], rest, dl, phi, lam)
        avg_minus = _avg_modular(prefix - X[i], rest, dl, phi, lam)
        s = 1 if avg_plus >= avg_minus else -1
        chosen.append(s)
        prefix = prefix + s * X[i]
    return tuple(chosen)


def _sign_instance(xs, phi: _orlicz.OrliczFunction) -> dict:
    """Quantities of the sign-selection inequality for one instance."""
    n = len(xs)
    _, dl, _, S = _half_sign_sums(xs)
    _, best = _orlicz.luxemburg_norm_max(S, dl, phi)
    l1_norms = [l1_norm(x) for x in xs]
    rhs_fn = sum_rearrangement(l1_norms)
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


def orlicz_sign_inequality(xs, phi: _orlicz.OrliczFunction) -> ExperimentReport:
    """Verify sup_eps ||sum eps_i x_i||_Phi >= ||sum r_i ||x_i||_1||_Phi
    (constant exactly 1) for one instance, by exhaustive sign search."""
    row = _sign_instance(xs, phi)
    return ExperimentReport(
        name="orlicz_sign_inequality",
        params={"n": len(xs), "phi": phi.descriptor, "slack": INEQ_SLACK},
        rows=[row],
        summary={
            "pass": row["pass"] and row["chain_ok"],
            "margin": row["margin"],
            "tolerances": {"inequality_slack": INEQ_SLACK},
        },
    )


# --- suites ---------------------------------------------------------------


def theorem1_report(
    E: SpaceSpec,
    n_max: int = 16,
    trials: int = 200,
    seed: int = 42,
    random_n_max: int = 14,
    equal_window_max: float = 3.0,
    stabilization_max: float = 0.05,
    random_window_max: float = 4.0,
) -> ExperimentReport:
    """Growth of ||sum_1^n r_i||_E / sqrt(n) and of coefficient sums against
    the Euclidean norm, with empirical constant windows."""
    _require(0, seed=seed, trials=trials, random_n_max=random_n_max)
    _require(1, n_max=n_max)
    if n_max > 60:
        raise ExperimentError(f"n_max capped at 60, got {n_max}")
    if random_n_max > 24:
        raise ExperimentError(f"random_n_max capped at 24, got {random_n_max}")
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
            rs = _pmap(lambda a: rademacher_sum_norm(a, E), coeff_sets[n])
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
            eq_hi / eq_lo <= equal_window_max
            and stab <= stabilization_max
            and (not rnd or rnd_window <= random_window_max)
        ),
        "tolerances": {
            "equal_window_max": equal_window_max,
            "stabilization_max": stabilization_max,
            "random_window_max": random_window_max,
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


def sign_selection_report(
    trials: int = 1000, n_max: int = 10, seed: int = 42, max_plateaus: int = 10
) -> ExperimentReport:
    """Exhaustive verification of the sign-selection inequality on random
    instances, cycling Phi over power:1, power:2, exp2."""
    _require(0, seed=seed)
    _require(1, trials=trials, n_max=n_max, max_plateaus=max_plateaus)
    if n_max > MAX_SIGN_N:
        raise ExperimentError(f"n_max capped at {MAX_SIGN_N}, got {n_max}")
    phis = [_orlicz.parse_orlicz(d) for d in _SIGN_PHIS]
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(trials):
        n = int(rng.integers(1, n_max + 1))
        xs = [random_step_function(rng, max_plateaus) for _ in range(n)]
        instances.append((xs, phis[i % len(phis)]))
    rows = _pmap(lambda inst: _sign_instance(*inst), instances)
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


def derandomization_report(
    trials: int = 200, n_max: int = 12, seed: int = 42, max_plateaus: int = 6
) -> ExperimentReport:
    """Greedy conditional-expectation signs versus the exact modular
    distribution over all sign vectors."""
    _require(0, seed=seed)
    _require(1, trials=trials, n_max=n_max, max_plateaus=max_plateaus)
    if n_max > MAX_SIGN_N:
        raise ExperimentError(f"n_max capped at {MAX_SIGN_N}, got {n_max}")
    phis = [_orlicz.parse_orlicz(d) for d in _SIGN_PHIS]
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(trials):
        n = int(rng.integers(1, n_max + 1))
        xs = [random_step_function(rng, max_plateaus) for _ in range(n)]
        instances.append((xs, phis[i % len(phis)]))

    def one(inst):
        xs, phi = inst
        n = len(xs)
        _, dl, X = _refinement_matrix(xs)
        # keep |values|/lam <= 1 so the exp-square modular stays tame
        lam = max(float(np.max(np.abs(X).sum(axis=0))), 1e-9)
        signs = _conditional_signs(X, dl, phi, lam)
        S = _all_signs(n) @ X
        mods = phi(S / lam) @ dl
        greedy = float(np.dot(phi((np.asarray(signs) @ X) / lam), dl))
        avg = float(np.mean(mods))
        q75 = float(np.quantile(mods, 0.75))
        ave_eta = _orlicz.modular(sum_rearrangement([l1_norm(x) for x in xs]), phi, lam)
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

    rows = _pmap(one, instances)
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
    from .spaces import ri_norm

    _require(0, seed=seed)
    _require(1, trials=trials, indicator_trials=indicator_trials)

    spaces = {E.name: E} if E is not None else catalog()
    rng = np.random.default_rng(seed)
    fs = [random_step_function(rng) for _ in range(trials)]
    gs = [random_indicator_function(rng) for _ in range(indicator_trials)]
    rows = []
    ok = True
    for name, space in spaces.items():
        env = envelope_weight(space)

        def dom(f, space=space, env=env):
            lhs = ri_norm(f, space)
            rhs = _weights.marcinkiewicz_norm(f, env)
            return lhs - rhs

        margins = _pmap(dom, fs)
        worst = min(margins) if margins else 0.0

        def eq_gap(g, space=space, env=env):
            lhs = ri_norm(g, space)
            rhs = _weights.marcinkiewicz_norm(g, env)
            return abs(lhs - rhs) / max(abs(lhs), 1e-300)

        gaps = _pmap(eq_gap, gs)
        worst_gap = max(gaps) if gaps else 0.0
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


def g1_chain_check(
    trials: int = 1000, seed: int = 42, grid: int = 200, t_min: float = 1e-6
) -> ExperimentReport:
    """Three steps behind the embedding of G1: (a) the indicator norm of G is
    dominated by c * psi(t); (b) the layer-cake bound ||f||_E <= sum of
    indicator norms times value drops; (c) the measured constant in
    ||f||_G <= c' ||f||_G1, with a doubled-trials drift check."""
    from .spaces import ri_norm

    _require(0, seed=seed)
    _require(1, trials=trials, grid=grid)

    G, G1 = space_G(), space_G1()
    psi = _weights.log_psi()

    ts = np.geomspace(t_min, 1.0, grid)
    fund = fundamental_function(G, ts)
    c_values = fund / psi(ts)
    c_a = float(np.max(c_values))
    spot = float(fundamental_function(G, 1.0) / psi(np.array([1.0]))[0])

    rng = np.random.default_rng(seed)
    fs = [rearrange(random_step_function(rng)) for _ in range(trials)]

    spaces = catalog()
    layer_worst = {}
    for name, E in spaces.items():
        def gap(f, E=E):
            drops = np.append(f.values[:-1] - f.values[1:], f.values[-1])
            rhs = float(
                np.dot(fundamental_function(E, f.breakpoints[1:]), drops)
            )
            lhs = ri_norm(f, E)
            return lhs - rhs  # must be <= 0 up to slack

        gaps = _pmap(gap, fs)
        layer_worst[name] = max(gaps)

    def g_ratio(f):
        denom = ri_norm(f, G1)
        return ri_norm(f, G) / denom if denom > 0 else 0.0

    ratios = _pmap(g_ratio, fs)
    c_c = max(ratios)
    rng2 = np.random.default_rng(seed)
    fs2 = [rearrange(random_step_function(rng2)) for _ in range(2 * trials)]
    c_c2 = max(_pmap(g_ratio, fs2))
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
        params={"trials": trials, "grid": grid, "t_min": t_min},
        rows=rows,
        summary=summary,
        seed=seed,
    )


def g_g1_indicator_comparison(
    grid_size: int = 200, t_min: float = 1e-6
) -> ExperimentReport:
    """Indicator norms of G (exact Orlicz), G1, and M(phi_G) over a log grid,
    with pairwise ratio windows. Pass means equivalence (ratios in [1/4, 4]),
    not equality; the exact-Orlicz-to-G1 ratio tends to 1/2 at small t.

    Also tabulates t/phi(t) for the non-concave reading of the G weight,
    whose indicator quantity blows up as t -> 0.
    """
    _require(1, grid_size=grid_size)
    G = space_G()
    phi1 = _weights.log_g1()
    phi_g = _weights.log_g()
    phi_printed = _weights.log_g_printed()
    ts = np.geomspace(t_min, 1.0, grid_size)
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
        params={"grid_size": grid_size, "t_min": t_min},
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

    def one(case):
        f, t = case
        hb = hinge_family_bound(f, t)
        return {"t": t, "lower": hb.lower, "upper": hb.upper, "norm": hb.norm, "pass": hb.ok}

    rows = _pmap(one, cases)
    for i, row in enumerate(rows):
        row["case"] = i

    # independent oracle for the sandwich constants: grid over mu at the kinks
    oracle_worst = 0.0
    for f, t in cases[:oracle_instances]:
        A = partial_integral(rearrange(f), t)
        vals = np.abs(f.values)
        mus = np.unique(np.concatenate(([0.0], vals, (vals[:-1] + vals[1:]) / 2.0)))
        penalties = [
            t * mu + float(np.dot(np.maximum(vals - mu, 0.0), f.lengths)) for mu in mus
        ]
        oracle_worst = max(oracle_worst, float(abs(A - min(penalties)) / (1.0 + abs(A))))

    fails = sum(0 if r["pass"] else 1 for r in rows)
    summary = {
        "violations": fails,
        "mu_oracle_max_gap": oracle_worst,
        "pass": bool(fails == 0 and oracle_worst <= 1e-10),
        "tolerances": {"sandwich_slack": INEQ_SLACK, "mu_oracle_rtol": 1e-10},
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
        for _ in range(min(batch, trials - start)):
            f = random_step_function(rng)
            r = rearrange(f)
            if rearrange(r) != r:
                idem_fail += 1
            a = np.sort(np.unique(np.abs(f.values)))
            cs = np.concatenate((a, (a[:-1] + a[1:]) / 2.0, a * 0.999999))
            cs = cs[cs > 0.0]
            m1 = (np.abs(f.values)[None, :] > cs[:, None]) @ f.lengths
            m2 = (r.values[None, :] > cs[:, None]) @ r.lengths
            if len(cs):
                b_measure = max(b_measure, float(np.max(np.abs(m1 - m2))))
            b_integral = max(b_integral, abs(integral(abs(f)) - integral(r)))
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
    phi = _orlicz.exp_square()
    ts = np.geomspace(1e-6, 1.0, grid)
    worst_cf = 0.0
    for t in ts:
        num = _orlicz.luxemburg_norm(indicator(float(t)), phi)
        ref = 1.0 / math.sqrt(math.log1p(1.0 / t))
        worst_cf = max(worst_cf, abs(num - ref) / ref)
    rng = np.random.default_rng(seed)
    ps = (1.0, 1.5, 2.0, 3.0, 4.0)
    worst_lp = 0.0
    for i in range(trials):
        f = random_step_function(rng)
        p = ps[i % len(ps)]
        ref = lp_norm(f, p)
        num = _orlicz.luxemburg_norm(f, _orlicz.power(p))
        worst_lp = max(worst_lp, abs(num - ref) / max(ref, 1e-300))
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


def fundamental_report(
    grid: int = 50, oracle_points: int = 1_000_000, t_min: float = 1e-6
) -> ExperimentReport:
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
    ts = np.geomspace(t_min, 1.0, grid)
    oracle_base = np.geomspace(1e-8, 1.0, oracle_points)
    rows = []
    ok = True
    for w in weights_list:
        lor_exact = True
        worst_m = 0.0
        worst_oracle = 0.0
        worst_prod = 0.0
        for t in ts:
            f = indicator(float(t))
            lor = _weights.lorentz_norm(f, w)
            if lor != float(w(np.array([t]))[0]):
                lor_exact = False
            marc = _weights.marcinkiewicz_norm(f, w)
            closed = float(t / w(np.array([t]))[0])
            worst_m = max(worst_m, float(abs(marc - closed) / closed))
            s = np.append(oracle_base, t)
            oracle = float(np.max(np.minimum(s, t) / w(s)))
            worst_oracle = max(worst_oracle, float(abs(marc - oracle) / oracle))
            worst_prod = max(worst_prod, float(abs(lor * marc - t) / t))
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
        params={"grid": grid, "oracle_points": oracle_points, "t_min": t_min},
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


def run_suite(name: str, **kwargs) -> ExperimentReport:
    if name not in SUITES:
        raise ExperimentError(
            f"unknown suite {name!r}; valid: {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](**kwargs)
