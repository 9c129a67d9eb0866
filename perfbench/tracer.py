"""In-memory span tracer and the instrumentation of the rispaces layers.

The tracer measures each layer from outside: it replaces public functions of
the `rispaces` modules with wrappers that open a span or bump a counter, and
puts the originals back afterwards. Nothing inside the package changes, so a
traced suite must write exactly the report bytes of an untraced one.

`from .x import y` copies the reference to `y` into the importing module, so
patching `x.y` alone would miss calls made through the copy. `Instrumentation`
therefore replaces every binding of the original object in every loaded
`rispaces` module. A target that cannot be found is listed in `missing`, and
one that was installed but never called is listed by `never_fired`, so that a
refactor that renames or moves a function shows as a gap, not as a zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SPACE_KINDS = ("orlicz", "lorentz", "marcinkiewicz", "lp", "linf")


class Tracer:
    """Spans (id, parent, run, name, start, end) and counters, in memory.

    Spans nest strictly (the suites run single-threaded with
    RISPACES_WORKERS=1), so a span's self time is its duration minus the sum
    of its direct children's durations, computed as each span closes.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.run_id = None
        self._stack: list = []  # [span id, name, start, time covered by children]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self.counts[name + ".calls"] += 1
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, children = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - children
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, self.run_id, name, start, end))

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self._stack[-1][1] if self._stack else None


# --- what each wrapper counts besides calls -------------------------------------


def _rows(tracer, name, args, kwargs, out):
    tracer.counts[name + ".rows"] += int(np.shape(args[0])[0])


def _ri_norm_kind(tracer, name, args, kwargs, out):
    space = args[1] if len(args) > 1 else kwargs["E"]
    tracer.counts[f"{name}.{space.kind}.calls"] += 1


def _fundamental_elems(tracer, name, args, kwargs, out):
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.counts[name + ".elems"] += int(np.size(t))


def _atoms(tracer, name, args, kwargs, out):
    tracer.counts["rademacher.atoms"] += int(out.k)


def _kernel_sums(tracer, name, args, kwargs, out):
    tracer.counts[name + ".sums"] += int(np.size(out))
    # computed, not measured: bytes of the coefficient and sum arrays
    tracer.counts[name + ".bytes_computed"] += 8 * (int(np.size(args[0])) + int(np.size(out)))


def _modular_in_norm(tracer, name, args, kwargs, out):
    if tracer.current() == "orlicz.luxemburg_norm":
        tracer.counts["orlicz.modular.in_norm"] += 1


def _phi_elems(tracer, name, args, kwargs, out):
    tracer.counts[name + ".elems"] += int(np.size(out))


def _weight_elems(tracer, name, args, kwargs, out):
    tracer.counts[name + ".elems"] += int(np.size(out))
    if tracer.current() == "weights.marcinkiewicz_sup":
        tracer.counts["weights.weight.in_sup"] += 1


@dataclass(frozen=True)
class Target:
    """One instrumented callable: `module.attr`, or `module.Class.__call__`.

    A `span` target records a span (and hence self time); the others only
    count, because they are called too often for a span per call.
    """

    name: str
    module: str
    attr: str
    span: bool = True
    extra: Optional[Callable] = None


TARGETS = (
    Target("stepfn.rearrange", "rispaces.stepfn", "rearrange"),
    Target("stepfn.common_breakpoints", "rispaces.stepfn", "common_breakpoints"),
    Target("orlicz.luxemburg_norm", "rispaces.orlicz", "luxemburg_norm"),
    Target("orlicz.luxemburg_norm_rows", "rispaces.orlicz", "luxemburg_norm_rows", extra=_rows),
    Target("orlicz.modular", "rispaces.orlicz", "modular", span=False, extra=_modular_in_norm),
    Target("orlicz.phi", "rispaces.orlicz", "OrliczFunction.__call__", span=False,
           extra=_phi_elems),
    Target("weights.marcinkiewicz_sup", "rispaces.weights", "marcinkiewicz_sup"),
    Target("weights.lorentz_norm", "rispaces.weights", "lorentz_norm"),
    Target("weights.weight", "rispaces.weights", "ConcaveWeight.__call__", span=False,
           extra=_weight_elems),
    Target("spaces.ri_norm", "rispaces.spaces", "ri_norm", extra=_ri_norm_kind),
    Target("spaces.fundamental_function", "rispaces.spaces", "fundamental_function",
           extra=_fundamental_elems),
    Target("rademacher.sum_rearrangement", "rispaces.rademacher", "sum_rearrangement",
           extra=_atoms),
    Target("rademacher.kernel", "rispaces._signdist_py", "enumerate_signed_sums",
           extra=_kernel_sums),
    Target("experiments.sign_bruteforce", "rispaces.experiments", "sign_bruteforce"),
    Target("experiments.derandomized_signs", "rispaces.experiments", "derandomized_signs"),
)


def _wrap(tracer: Tracer, target: Target, fn):
    name, extra = target.name, target.extra
    if target.span:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if extra is not None:
                extra(tracer, name, args, kwargs, out)
            return out

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if extra is not None:
                extra(tracer, name, args, kwargs, out)
            return out

    return wrapper


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "rispaces" or key.startswith("rispaces."))
    ]


class Instrumentation:
    """Installs wrappers for `targets` on every binding, and removes them.

    Use as a context manager around traced work only: while it is not
    installed, the package runs its own, unwrapped functions.
    """

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self.missing: list = []  # target names not found in the package
        self.bindings: dict = {}  # target name -> "module.attr" bindings patched
        self._undo: list = []  # (namespace, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        self.missing = []
        self.bindings = {}
        for target in self.targets:
            owner_name, _, attr = target.attr.rpartition(".")
            owner = sys.modules.get(target.module)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            # a class's own dict, so that an inherited or metaclass __call__
            # counts as missing
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = _wrap(self.tracer, target, original)
            if owner_name:  # a method: wrap it on the class itself
                self._patch(owner, attr, original, wrapper, target.name,
                            f"{target.module}.{target.attr}")
                continue
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper, target.name,
                                    f"{mod.__name__}.{key}")

    def _patch(self, namespace, attr, original, wrapper, name, label) -> None:
        setattr(namespace, attr, wrapper)
        self._undo.append((namespace, attr, original))
        self.bindings.setdefault(name, []).append(label)

    def uninstall(self) -> None:
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)

    def never_fired(self) -> list:
        """Installed targets whose wrapper was never called."""
        return [
            t.name
            for t in self.targets
            if t.name not in self.missing and self.tracer.counts[t.name + ".calls"] == 0
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(tracer: Tracer) -> dict:
    """Deterministic per-layer counters and ratios of one traced pass."""
    c = tracer.counts
    names = [t.name + ".calls" for t in TARGETS] + [
        "rademacher.atoms",
        "rademacher.kernel.sums",
        "rademacher.kernel.bytes_computed",
        "orlicz.luxemburg_norm_rows.rows",
        "orlicz.phi.elems",
        "weights.weight.elems",
        *(f"spaces.ri_norm.{kind}.calls" for kind in SPACE_KINDS),
        "spaces.fundamental_function.elems",
    ]
    out = {name: c[name] for name in names}
    out["rademacher.atoms_per_sum"] = _ratio(
        c["rademacher.atoms"], c["rademacher.sum_rearrangement.calls"])
    out["orlicz.modular_per_norm"] = _ratio(
        c["orlicz.modular.in_norm"], c["orlicz.luxemburg_norm.calls"])
    out["weights.weight_calls_per_sup"] = _ratio(
        c["weights.weight.in_sup"], c["weights.marcinkiewicz_sup.calls"])
    return out


def layer_times(tracer: Tracer) -> dict:
    """Self time in seconds of each spanned layer, over one traced pass."""
    spanned = [t.name for t in TARGETS if t.span] + ["experiments.suite"]
    out = {name + ".self_s": tracer.self_s[name] for name in spanned}
    # the serialize span has no children, so its self time is its duration
    out["experiments.serialize_s"] = tracer.self_s["experiments.serialize"]
    return out
