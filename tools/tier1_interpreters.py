"""Run the Tier-1 tests and the census digest under other local interpreters.

    python3 tools/tier1_interpreters.py /path/to/python3.12 /path/to/python3.13 ...

The interpreter running this script lends its pure-Python test packages
(pytest and ``_pytest``, pluggy, iniconfig, packaging, pygments, hypothesis
with its top-level plugin modules, attrs and sortedcontainers, each with its
``dist-info`` so that pytest finds hypothesis's plugin): they are linked into
a temporary directory put on ``PYTHONPATH``, so nothing is installed or
downloaded.  numpy is compiled and not lent; the tests that need it skip
themselves where it is missing.  Bytecode goes to the temporary directory
too.  Each interpreter runs

* Tier-1: ``python -m pytest -q --continue-on-collection-errors`` in the
  repository root, and
* the census digest: ``orbitinv enumerate`` at the CI bounds, whose SHA-256
  must be the CI pin,

and gets one line: its version, pytest's summary (or why pytest did not
start) and the digest's verdict.  The exit code is 0 when every interpreter
passed both, else 1.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DISTRIBUTIONS = ("pytest", "pluggy", "iniconfig", "packaging", "pygments", "hypothesis",
                 "attrs", "sortedcontainers")
CENSUS = ["enumerate", "--bounds", "max_g=1", "max_f=2", "max_cycles=1", "max_cycle_len=4"]
CENSUS_SHA256 = "a203d1fc5cea82848debbd27722a35f78151507712b3fb3980e19af81f0ab005"


def link_test_packages(target: Path) -> None:
    """Symlink every top-level entry of each distribution into ``target``."""
    for name in DISTRIBUTIONS:
        dist = importlib.metadata.distribution(name)
        for top in sorted({f.parts[0] for f in dist.files} - {"..", "__pycache__"}):
            source = Path(dist.locate_file(top))
            if not (target / top).exists():
                (target / top).symlink_to(source)


def summary(output: str) -> str:
    """pytest's last summary line, or the error that stopped it."""
    lines = [line for line in output.splitlines() if line.strip()]
    for line in reversed(lines):
        if " in " in line and any(word in line for word in ("passed", "failed", "error")):
            return line.strip("= ")
    errors = [line for line in lines if "Error" in line]
    return "did not start: " + (errors[-1].strip() if errors else "no summary")


def run(python: str, env: dict) -> tuple[bool, str]:
    version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                             capture_output=True, text=True, env=env).stdout.strip()
    tests = subprocess.run([python, "-m", "pytest", "-q", "--continue-on-collection-errors",
                            "-p", "no:cacheprovider"],
                           capture_output=True, text=True, cwd=ROOT, env=env)
    census = subprocess.run([python, "-m", "orbitinv.cli", *CENSUS],
                            capture_output=True, cwd=ROOT, env=env)
    census_ok = (census.returncode == 0
                 and hashlib.sha256(census.stdout).hexdigest() == CENSUS_SHA256)
    passed = tests.returncode == 0 and census_ok
    line = (f"{version or python}: tier-1 {summary(tests.stdout + tests.stderr)}; "
            f"census digest {'ok' if census_ok else 'WRONG'}")
    return passed, line


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        packages = Path(tmp, "packages")
        packages.mkdir()
        link_test_packages(packages)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(packages), str(ROOT / "src")]),
                   PYTHONPYCACHEPREFIX=str(Path(tmp, "pycache")))
        for python in argv:
            passed, line = run(python, env)
            ok = ok and passed
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
