"""Reference spot run at the ROADMAP baseline sizes.

Usage (from the repository root)::

    python3 perfbench/spot.py

Each item runs in a fresh interpreter, three times; the median wall time and
the largest peak RSS are printed as one JSON object per item. The
items are the ones ROADMAP's baseline quotes: ``wigner`` on a 401 x 401 grid
(in process, and as a ``python -m cvsqueeze.cli`` subprocess writing to
stdout), ``verify basis``, one inverse Segal-Bargmann point at order 24,
``hamiltonian_fock`` at n_trunc 20 and 40, and a cold ``import cvsqueeze``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEATS = 3
WIGNER_401 = ["wigner", "--alpha=0.5", "--k=2", "--n1=401", "--n2=401", "--z1=0.4+0.3j"]


def _item(name: str) -> None:
    """Run one item in this interpreter and print its seconds and peak RSS."""
    start = time.perf_counter()
    if name == "import_cvsqueeze":
        import cvsqueeze  # noqa: F401
    elif name == "wigner_401_subprocess":
        subprocess.run([sys.executable, "-m", "cvsqueeze.cli", *WIGNER_401],
                       check=True, stdout=subprocess.PIPE)
    else:
        import contextlib
        import io

        import cvsqueeze
        from cvsqueeze import cli, model, states

        start = time.perf_counter()
        if name == "wigner_401_in_process":
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(WIGNER_401)
        elif name == "verify_basis":
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["verify", "basis"])
        elif name == "isb_point_order24":
            labels = states.DisplacementLabels(0.4 + 0.3j, -0.2 + 0.5j)
            psi_b = states.bargmann_series(2, 0.5, labels, 20)
            states.inverse_segal_bargmann(psi_b, 0.3, -0.2, states.OscillatorGeometry(1.0, 1.0), order=24)
        elif name.startswith("hamiltonian_fock_"):
            spec = cvsqueeze.OscillatorSpec(omega1=1.0, omega2=1.0)
            model.hamiltonian_fock(0.5, spec, 0.4 + 0.3j, -0.2 + 0.5j, int(name.rsplit("_", 1)[1]))
        else:
            raise SystemExit(f"unknown item {name!r}")
    seconds = time.perf_counter() - start
    usage = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({"seconds": seconds, "peak_rss_mb": usage / 1024.0}))


ITEMS = (
    "import_cvsqueeze", "wigner_401_in_process", "wigner_401_subprocess", "verify_basis",
    "isb_point_order24", "hamiltonian_fock_20", "hamiltonian_fock_40",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--item", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.item:
        _item(args.item)
        return
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for name in ITEMS:
        samples = []
        for _ in range(REPEATS):
            proc = subprocess.run([sys.executable, __file__, "--item", name], check=True, cwd=ROOT,
                                  capture_output=True, text=True, env=env)
            samples.append(json.loads(proc.stdout.splitlines()[-1]))
        print(json.dumps({
            "item": name,
            "median_s": statistics.median(s["seconds"] for s in samples),
            "samples_s": [s["seconds"] for s in samples],
            "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        }))


if __name__ == "__main__":
    main()
