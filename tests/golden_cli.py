"""Golden CLI outputs: the exit code and the sha256 of stdout and stderr of
a fixed list of ``cvsqueeze`` commands, run in-process through ``cli.main``.

``tests/golden_cli.json`` holds them, with the platform that wrote them;
``test_golden_cli.py`` reruns every command and compares.  A change that
alters an output on purpose rewrites the file in the same change::

    PYTHONPATH=src python tests/golden_cli.py

and names each changed entry and why it changed.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
from pathlib import Path

import numpy as np

from cvsqueeze.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

_LABELS = ["--z1=0.3+0.1j", "--z2=-0.2+0.4j"]
_OMEGAS = ["--omega1=1.0", "--omega2=1.44"]

COMMANDS = [
    ["sweep", "--alphas=0.2,0.5,0.9"],
    ["sweep", "--alphas=0.2,0.5,0.9", "--format=json", "--a=1.3", "--b=0.7", "--hbar=0.5"],
    ["sweep", "--alphas=1e-4,0.05"],
    ["sweep", "--alphas=1e-4", "--format=json"],
    # the tiny alpha exits 2
    ["sweep", "--alphas=0.5,1e-6"],
    ["wigner", "--k=1", "--alpha=0.3", "--n1=11", "--n2=9"],
    ["wigner", "--k=1", "--alpha=0.3", *_LABELS, "--axes=x1,p2", "--fix=x2=0.25", "--fix=p1=-0.5",
     "--n1=7", "--n2=5", "--format=json"],
    ["wigner", "--k=2", "--alpha=0.5", *_LABELS, "--axes=x2,p1", "--fix=p2=0.3", "--n1=6", "--n2=8",
     "--range1=-2:2.5", "--range2=-1:3"],
    ["wigner", "--k=2", "--alpha=0.35", *_LABELS, "--axes=p1,x1", "--fix=x2=-0.1", "--hbar=0.7",
     "--a=1.2", "--b=0.8", "--n1=5", "--n2=7", "--format=json"],
    ["wigner", "--k=2", "--alpha=0.05", "--n1=9", "--n2=9", "--format=json"],
    # every value underflows to zero at this hbar
    ["wigner", "--alpha=0.5", "--n1=3", "--n2=3", "--hbar=1e-154", "--axes=p1,p2", "--range1=1e-100:1"],
    # tables of two blocks of rows, each of many slices
    ["wigner", "--k=2", "--alpha=0.4", *_LABELS, "--fix=p1=0.2", "--n1=300", "--n2=41", "--range1=-4:4"],
    ["wigner", "--k=1", "--alpha=0.6", *_LABELS, "--axes=p2,x1", "--n1=300", "--n2=41", "--range2=-2.5:3",
     "--format=json"],
    *(["hamiltonian", f"--alpha={alpha}", *_LABELS, *_OMEGAS] for alpha in ("1e-4", "0.05", "0.5")),
    # the ground-state check fails at this alpha: exit 1
    ["hamiltonian", "--alpha=1e-6", *_LABELS, *_OMEGAS],
    # usage errors, whose usage text argparse wraps: exit 2
    ["wigner", "--alpha=0.5", "--axes=x1,p1", "--fix=p1=0.2"],
    ["hamiltonian", "--alpha=0.5", "--format=csv"],
    ["verify", "all"],
]


def platform_name() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(), "machine": platform.machine()}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> dict:
    """Exit code and sha256 of stdout and stderr of ``cvsqueeze argv``.

    argparse wraps its usage text to the terminal width, so COLUMNS is
    pinned to 80 while the command runs.
    """
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"argv": list(argv), "exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}


def write() -> None:
    document = {"platform": platform_name(), "commands": [run(argv) for argv in COMMANDS]}
    GOLDEN.write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    write()
