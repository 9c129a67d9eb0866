"""The benchmark's workloads: the suite calls that make one pass of each, and
the lazy set-up a fresh interpreter finishes before its first suite call.

Each workload is chosen so that one layer on the roadmap dominates it while
another layer is absent or minor (see README.md). The parameters are fixed
here, never taken from the suites' defaults, so that a change of a default
cannot change what is measured. The suite seed is the benchmark's seed.

This module imports `rispaces` only inside functions, so that the set-up
probe can time the package import itself.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One suite call: `experiments.run_suite(suite, seed=seed, **kwargs)`.

    `params` is what the report's `params` must contain for the call to
    count as the one the benchmark asked for.
    """

    suite: str
    params: dict
    kwargs: dict


# enumeration arrays of 2^20 sums (8 MB), beyond the L2 cache
_THEOREM1_WIDE = {"n_max": 20, "trials": 2, "random_n_max": 20}
# fewer trials than the acceptance run (1,000 and 500), so that a run has
# several passes of a few seconds for its median
_ENVELOPE = {"trials": 100, "indicator_trials": 50}
_SIGN = {"trials": 1000, "n_max": 10}
_DERANDOMIZE = {"trials": 200, "n_max": 12}

WORKLOADS = ("theorem1-wide", "envelope", "signs")


def setup(workload: str) -> None:
    """The lazy set-up a CLI run of this workload pays before its suite."""
    from rispaces.spaces import catalog, envelope_weight, space_G

    if workload == "theorem1-wide":
        space_G()
    elif workload == "envelope":
        # catalog spaces, envelope weights and the closed-form cross-checks
        for space in catalog().values():
            envelope_weight(space)
    elif workload != "signs":
        raise ValueError(f"unknown workload {workload!r}")


def ops(workload: str) -> list:
    """The suite calls of one pass of `workload`, in order."""
    from rispaces.spaces import space_G

    if workload == "theorem1-wide":
        return [Op("theorem1", {"space": "G", **_THEOREM1_WIDE},
                   {"E": space_G(), **_THEOREM1_WIDE})]
    if workload == "envelope":
        return [Op("envelope", {"spaces": ["G", "G1", "L1", "MG"], **_ENVELOPE}, _ENVELOPE)]
    if workload == "signs":
        return [Op("sign", _SIGN, _SIGN), Op("derandomize", _DERANDOMIZE, _DERANDOMIZE)]
    raise ValueError(f"unknown workload {workload!r}")
