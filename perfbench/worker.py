"""Benchmark worker: runs the parent's jobs one at a time and times each call.

Usage: ``python3 perfbench/worker.py OUT_DIR`` with ``src`` on PYTHONPATH.
The parent writes one JSON request per line to stdin and reads one JSON
reply per line from stdout:

* ``{"op": "job", "job": {...}}`` runs one job; the reply holds its latency,
  exit code, output (a file path or captured stdout) and, for library jobs,
  the returned values;
* ``{"op": "trace", "on": true}`` installs the span tracer for the jobs
  that follow, ``"on": false`` removes it again; spans and counters
  accumulate over every traced job;
* ``{"op": "summary", "path": ...}`` writes the spans and replies with the
  per-layer numbers;
* ``{"op": "ping"}`` replies at once, which tells the parent that the
  worker has finished importing;
* ``{"op": "exit"}`` replies with peak RSS and the environment, then exits.

Only the call into ``cvsqueeze`` is timed. Job output goes to files under
OUT_DIR, or to captured stdout for ``verify``, so that stdout carries only
replies.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import resource
import sys
import time

import numpy as np

from cvsqueeze import basis, cli, quadrature, states

from spans import Tracer

FILE_OUTPUT = ("wigner", "sweep", "hamiltonian")
gauss_hermite = quadrature.gauss_hermite


def _pairs(values) -> list:
    array = np.asarray(values, dtype=complex)
    return np.stack([array.real, array.imag], axis=-1).tolist()


def _cli_call(argv: list[str]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, stdout.getvalue(), stderr.getvalue()


def _isb_call(p: dict):
    geom = states.OscillatorGeometry(a=p["a"], b=p["b"], hbar=p["hbar"])
    labels = states.DisplacementLabels(z1=complex(*p["z1"]), z2=complex(*p["z2"]))
    x1 = np.asarray(p["x1"])[:, None]
    x2 = np.asarray(p["x2"])[None, :]
    psi_b = states.bargmann_series(p["k"], p["alpha"], labels, p["n_max"])
    return states.inverse_segal_bargmann(psi_b, x1, x2, geom, order=p["order"])


def _gram_call(p: dict):
    return basis.basis_gram(p["alpha"], p["max_index"], p["order"])


def run_job(job: dict, out_dir: str, tracer: Tracer | None) -> dict:
    kind, p = job["kind"], job["params"]
    path = None
    if kind in ("isb", "gram"):
        fn, args = (_isb_call if kind == "isb" else _gram_call), (p,)
    else:
        argv = list(job["argv"])
        if kind in FILE_OUTPUT:
            path = os.path.join(out_dir, f"job.{kind}")
            argv.append(f"--out={path}")
        fn, args = _cli_call, (argv,)
    reply: dict = {}
    # start each job from a collected heap, as a fresh CLI process would, so
    # that collector pauses left by earlier jobs do not land in its latency
    gc.collect()
    start = time.perf_counter()
    try:
        result = tracer.run(f"job.{kind}", fn, *args) if tracer else fn(*args)
    except Exception as exc:  # a raising job is a failed job, not a dead worker
        reply["latency_s"] = time.perf_counter() - start
        reply["error"] = f"raised {type(exc).__name__}: {exc}"
        return reply
    reply["latency_s"] = time.perf_counter() - start
    if kind in ("isb", "gram"):
        reply["values"] = _pairs(result)
        return reply
    rc, stdout, stderr = result
    reply.update(rc=rc, stderr=stderr[-2000:])
    if path is not None and os.path.exists(path):
        reply["path"] = path
        size = os.path.getsize(path)
    else:
        reply["text"] = stdout
        size = len(stdout.encode())
    if tracer is not None:
        tracer.count("cli.bytes_out", size)
        if kind == "wigner":
            tracer.count("cli.rows_out", p["n"] * p["n"])
        elif kind == "sweep":
            tracer.count("cli.rows_out", 2 * len(p["alphas"]))
    return reply


def _blas_threads():
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib_path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(out_dir: str) -> None:
    replies = sys.stdout
    tracer = Tracer()
    tracing = False
    hits = misses = 0
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "job":
            before = gauss_hermite.cache_info()
            reply = run_job(request["job"], out_dir, tracer if tracing else None)
            if tracing:
                after = gauss_hermite.cache_info()
                hits += after.hits - before.hits
                misses += after.misses - before.misses
        elif op == "trace":
            if request["on"] and not tracing:
                tracer.install()
            elif tracing and not request["on"]:
                tracer.uninstall()
            tracing = bool(request["on"])
            reply = {}
        elif op == "summary":
            reply = tracer.summary()
            reply["quadrature.gauss_hermite.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            tracer.save(request["path"])
        elif op == "ping":
            reply = {}
        elif op == "exit":
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            replies.write(json.dumps({"peak_rss_mb": peak, "env": environment()}) + "\n")
            replies.flush()
            return
        else:
            raise ValueError(f"unknown request {op!r}")
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    main(sys.argv[1])
