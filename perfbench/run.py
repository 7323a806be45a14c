"""cvsqueeze benchmark: closed loop, one client, one fresh worker per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload export --seed 1 --seconds 30 --trace 0

The parent builds the seeded job list (``jobs.py``), starts a worker process
(``worker.py``) that imports ``cvsqueeze`` from ``src/``, sends it one job at
a time, and checks each reply with an independent oracle (``oracles.py``)
before sending the next job, so checks stay outside the timed interval and
outside the worker's memory. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs each job of the first round twice, untraced and with spans
installed, and reports the per-layer metrics and the tracing overhead.

The last line of stdout is the result object; the line before it holds the
details: environment, rounds, per-kind latencies, the tail percentile and
every failing job with its parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as joblist

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
# cold imports per run, spread over the run so that their median spans the
# host's drift over the whole run rather than a burst of a few seconds
SETUP_SAMPLES = 15
IMPORTTIME_SAMPLES = 3
COLD_IMPORT = "import cvsqueeze.cli"
# numpy is imported first, so that its import is not charged to whichever
# layer happens to import it first
IMPORTTIME_SCRIPT = "import numpy; import cvsqueeze.cli"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports ``cvsqueeze.cli``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_IMPORT], env=_child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def own_import_seconds(importtime_log: str) -> dict[str, float]:
    """Import seconds of each ``cvsqueeze`` layer from ``-X importtime`` output.

    A layer's time is its cumulative time minus that of the ``cvsqueeze``
    modules it imports, so it counts its own body and the third-party
    modules it is the first to import (``scipy.ndimage`` for ``model``).
    """
    entries = []  # (indent, module, cumulative microseconds), children before parents
    for line in importtime_log.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    parent = []
    for j, (indent, _, _) in enumerate(entries):
        parent.append(next((k for k in range(j + 1, len(entries)) if entries[k][0] < indent), None))
    owner = {}  # index of each cvsqueeze module's nearest cvsqueeze ancestor
    for j, (_, name, _) in enumerate(entries):
        k = parent[j]
        while k is not None and not entries[k][1].startswith("cvsqueeze"):
            k = parent[k]
        if name.startswith("cvsqueeze"):
            owner[j] = k
    seconds = {}
    for i, (_, name, cumulative) in enumerate(entries):
        if name.startswith("cvsqueeze."):
            nested = sum(entries[j][2] for j, k in owner.items() if k == i)
            seconds[name.removeprefix("cvsqueeze.")] = (cumulative - nested) / 1e6
    return seconds


def layer_import_seconds() -> dict[str, float]:
    """Per-layer import seconds, median over a few fresh interpreters."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORTTIME_SCRIPT],
            env=_child_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        )
        for layer, seconds in own_import_seconds(proc.stderr).items():
            samples.setdefault(layer, []).append(seconds)
    return {layer: statistics.median(values) for layer, values in samples.items()}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }


class Worker:
    """The worker process and its line-based request/reply channel."""

    def __init__(self):
        OUT_DIR.mkdir(exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(OUT_DIR)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
        )
        # wait until the worker has imported cvsqueeze, so that its start-up
        # does not overlap the first cold-import sample
        self.request({"op": "ping"})

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def setup_slots(n_jobs: int) -> list[int]:
    """For each cold-import sample, the index of the job it is taken before."""
    return [i * n_jobs // SETUP_SAMPLES for i in range(SETUP_SAMPLES)]


def run_jobs(worker: Worker, batch: list[dict], setup: list[float] | None = None) -> list[dict]:
    """Send each job, then check its output before sending the next.

    With a ``setup`` list, cold-import samples are taken between jobs, at
    ``setup_slots``, and appended to it.
    """
    import oracles

    slots = setup_slots(len(batch)) if setup is not None else []
    records = []
    for i, job in enumerate(batch):
        for _ in range(slots.count(i)):
            setup.append(cold_import_seconds())
        reply = worker.request({"op": "job", "job": job})
        if "path" in reply:
            path = Path(reply.pop("path"))
            reply["text"] = path.read_text(encoding="utf-8")
            path.unlink()
        try:
            reason = oracles.check(job, reply)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        records.append({
            "kind": job["kind"],
            "latency_s": reply["latency_s"],
            "ok": reason is None,
            "reason": reason,
            "known_defect": None if reason is None else oracles.known_defect(job, reason),
            "job": job,
        })
    return records


def run_paired(worker: Worker, batch: list[dict]) -> tuple[list[dict], list[dict]]:
    """Run each job untraced and traced, back to back, alternating which goes
    first, so that warm caches favour neither side of the overhead."""
    untraced, traced = [], []
    for i, job in enumerate(batch):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            worker.request({"op": "trace", "on": on})
            (traced if on else untraced).extend(run_jobs(worker, [job]))
    worker.request({"op": "trace", "on": False})
    return untraced, traced


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten jobs beyond it.

    Returns (value, percentile, jobs beyond). With fewer than eleven jobs no
    percentile has ten beyond it, and the maximum is returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 11 if n >= 11 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def end_to_end(records: list[dict], setup: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    ok = [r["latency_s"] for r in records if r["ok"]]
    busy = sum(r["latency_s"] for r in records)
    tail_s, tail_pct, beyond = tail(ok) if ok else (float("nan"), 0.0, 0)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(ok) / busy, "1/s"),
        "job_p50_s": (statistics.median(ok) if ok else float("nan"), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_frac": ((len(records) - len(ok)) / len(records), "ratio"),
    }
    details = {"tail_percentile": tail_pct, "tail_jobs_beyond": beyond, "successful_jobs": len(ok),
               "busy_s": busy, "setup_samples_s": setup}
    return metrics, details


def per_kind(records: list[dict]) -> dict:
    kinds: dict[str, dict] = {}
    for r in records:
        entry = kinds.setdefault(r["kind"], {"attempted": 0, "failed": 0, "latencies": []})
        entry["attempted"] += 1
        entry["failed"] += not r["ok"]
        entry["latencies"].append(r["latency_s"])
    return {
        kind: {"attempted": e["attempted"], "failed": e["failed"],
               "median_latency_s": statistics.median(e["latencies"])}
        for kind, e in kinds.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cvsqueeze" / "__init__.py").is_file():
        print(f"error: no cvsqueeze sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cvsqueeze

    if Path(cvsqueeze.__file__).resolve().parent != SRC / "cvsqueeze":
        print(f"error: cvsqueeze imported from {cvsqueeze.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = machine()
    setup: list[float] = []
    job_list = joblist.build_jobs(args.workload, args.seed, args.seconds)
    worker = Worker()
    try:
        if args.trace:
            untraced, traced = run_paired(worker, [job for job in job_list if job["round"] == 0])
            spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.npz"
            layers = worker.request({"op": "summary", "path": str(spans_path)})
            records = untraced + traced
        else:
            records = run_jobs(worker, job_list, setup)
        final = worker.request({"op": "exit"})
    finally:
        worker.close()

    env.update(final["env"])
    failures = [r for r in records if not r["ok"]]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": joblist.rounds_for(args.workload, args.seconds),
        "environment": env, "kinds": per_kind(records),
        "failures": [{"kind": r["kind"], "reason": r["reason"], "known_defect": r["known_defect"],
                      "params": r["job"]["params"]} for r in failures],
    }
    if args.trace:
        jps = {name: sum(r["ok"] for r in rs) / sum(r["latency_s"] for r in rs)
               for name, rs in (("untraced", untraced), ("traced", traced))}
        values = {name: (value, _layer_unit(name)) for name, value in layers.items()}
        for layer, seconds in layer_import_seconds().items():
            values[f"{layer}.import_s"] = (seconds, "s")
        values["trace.untraced_jobs_per_s"] = (jps["untraced"], "1/s")
        values["trace.traced_jobs_per_s"] = (jps["traced"], "1/s")
        values["trace.overhead_frac"] = (1.0 - jps["traced"] / jps["untraced"], "ratio")
        details["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values, extra = end_to_end(records, setup, final["peak_rss_mb"])
        details.update(extra)
    print(json.dumps(details, sort_keys=True))
    result = {
        # correct: every output was checked, and every failure is a documented defect
        "correct": all(r["known_defect"] for r in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(values.items())},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_out")):
        return "B"
    return "ratio" if name.endswith("ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
