"""SHA-256 digests of the default verify reports of one or two checkouts.

    python3 tools/report_digests.py                  # this checkout
    python3 tools/report_digests.py OLD NEW          # two checkouts, compared

Runs `python -m rispaces verify <suite>` for every suite the checkout
registers (`rispaces.experiments.SUITES`), one at a time, with the
checkout's `src/` first on PYTHONPATH, and prints each suite's exit code and
the SHA-256 of its JSON report. With one checkout it ends with the JSON
object that `tests/report_digests.json` holds: the digests and the numpy,
Python and platform they were recorded with, so that a deliberate move of
report bytes is recorded from this output. With two checkouts it then names
the suites whose report bytes or exit codes differ, a suite that only one
checkout has among them. Exits 0 when every run exited 0 and no suite
differs, else 1. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    """`python *args` run from `checkout` with its `src/` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          capture_output=True, check=False)


def suites(checkout: Path) -> list[str]:
    """The suite names registered in `checkout`."""
    listing = run(checkout, "-c", "import rispaces.experiments as e; print(*e.SUITES)")
    if listing.returncode != 0:
        sys.exit(f"{checkout}: cannot list suites\n{listing.stderr.decode()}")
    return listing.stdout.decode().split()


# what `tests/report_digests.json` records as "recorded_with"
_ENVIRONMENT = """import json, platform, numpy
print(json.dumps({"numpy": numpy.__version__, "python": platform.python_version(),
                  "platform": " ".join([platform.system(), platform.machine(), *platform.libc_ver()])}))"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path,
                        help="one or two checkouts (default: the one holding this script)")
    args = parser.parse_args(argv)
    checkouts = args.checkouts or [Path(__file__).resolve().parent.parent]
    if len(checkouts) > 2:
        parser.error("give at most two checkouts")
    results = {}
    for checkout in checkouts:
        print(checkout)
        for suite in suites(checkout.resolve()):
            report = run(checkout.resolve(), "-m", "rispaces", "verify", suite)
            code, sha = results[checkout, suite] = (
                report.returncode, hashlib.sha256(report.stdout).hexdigest())
            print(f"  {suite:<14} exit {code}  {sha}", flush=True)
    ok = all(code == 0 for code, _ in results.values())
    if len(checkouts) == 1:
        recorded_with = json.loads(run(checkouts[0].resolve(), "-c", _ENVIRONMENT).stdout)
        digests = {suite: sha for (_, suite), (_, sha) in results.items()}
        print(json.dumps({"recorded_with": recorded_with, "sha256": digests}, indent=2))
    if len(checkouts) == 2:
        old, new = checkouts
        names = dict.fromkeys(s for _, s in results)  # in first-seen order
        differ = [s for s in names if results.get((old, s)) != results.get((new, s))]
        print("differ:", ", ".join(differ) if differ else "none")
        ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
