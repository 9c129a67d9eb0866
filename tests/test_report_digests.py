"""The ten default reports, byte for byte.

`report_digests.json` holds the SHA-256 of `run_suite(name).to_json()` for
every suite at its defaults (the bytes that `python -m rispaces verify
<name>` prints), and the environment they were recorded in, the BLAS
among it: its kernels set the bits of every dot. A change that moves report
bytes on purpose records the new digests there and says which suites moved.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rispaces
from rispaces import experiments as ex

RECORDED = json.loads((Path(__file__).parent / "report_digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def reports():
    return {name: ex.run_suite(name) for name in ex.SUITES}


def test_default_reports_match_recorded_digests(reports):
    recorded = RECORDED["sha256"]
    got = {name: hashlib.sha256(rep.to_json().encode()).hexdigest()
           for name, rep in reports.items()}
    missing = sorted(set(got) - set(recorded))
    assert not missing, f"no recorded digest for suite(s) {missing}"
    unknown = sorted(set(recorded) - set(got))
    assert not unknown, f"digests recorded for unknown suite(s) {unknown}"
    moved = [f"{name}: {recorded[name]} -> {sha}" for name, sha in got.items()
             if sha != recorded[name]]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    here = (f"numpy {np.__version__}, blas {blas['name']} {blas['version']}, "
            f"python {platform.python_version()}")
    assert not moved, (
        f"report bytes differ from those recorded with {RECORDED['recorded_with']} "
        f"(this run: {here}):\n" + "\n".join(moved)
    )


def _plain(obj, path="") -> list:
    """Paths in obj to values other than dict, list, str, int, float, bool
    and None (dict keys must be str); numpy scalars are not plain."""
    if isinstance(obj, dict):
        bad = [f"{path}: key {k!r}" for k in obj if type(k) is not str]
        return bad + [p for k, v in obj.items() for p in _plain(v, f"{path}/{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _plain(v, f"{path}/{i}")]
    return [] if obj is None or type(obj) in (str, int, float, bool) else [f"{path}: {type(obj)}"]


def test_default_reports_hold_plain_python_values(reports):
    # `as_dict` holds the report's fields as built, `to_json` dumps it as it
    # is, and `to_csv` writes repr(float) of row values (an np.float64 would
    # print as np.float64(...))
    bad = [p for name, rep in reports.items()
           for p in _plain({"params": rep.params, "rows": rep.rows, "summary": rep.summary}, name)]
    assert bad == []


def test_report_does_not_depend_on_the_blas_thread_count():
    # sums of up to 2^16 atoms: OpenBLAS spreads a dot of more than 10,000
    # cells over its threads, so a row's dot is summed in blocks of 2^13
    code = ("import sys; from rispaces import experiments as ex; sys.stdout.write(ex.run_suite("
            "'theorem1', seed=42, n_max=16, trials=2, random_n_max=16).to_json())")
    src = str(Path(rispaces.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             timeout=120, check=True)
        reports.append(run.stdout)
    assert reports[0] == reports[1]
