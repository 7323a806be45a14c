"""Tests of the benchmark itself: job lists, oracles, span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
from cvsqueeze import basis, cli, states  # noqa: E402
from run import SETUP_SAMPLES, own_import_seconds, setup_slots, tail  # noqa: E402


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_job_list(workload):
    first = jobs.build_jobs(workload, 7, 24)
    assert first == jobs.build_jobs(workload, 7, 24)
    assert first != jobs.build_jobs(workload, 8, 24)
    json.dumps(first)  # the worker receives jobs as JSON


def test_failure_driving_alphas_are_seed_independent():
    def tiny(seed):
        return sorted(job["params"]["alphas"][-1] for job in jobs.build_jobs("export", seed, 24)
                      if job["kind"] == "sweep" and job["params"]["alphas"][-1] < 0.05)

    rounds = jobs.rounds_for("export", 24)
    assert tiny(1) == tiny(2)
    assert len(tiny(1)) == len(range(0, jobs.SWEEPS_PER_ROUND * rounds, jobs.TINY_EVERY))
    assert all(alpha <= oracles.SWEEP_PAIRING_ALPHA for alpha in tiny(1))


def test_export_tables_are_seed_independent_and_span_every_side():
    def tables(seed):
        return sorted((job["params"]["n"], job["params"]["format"])
                      for job in jobs.build_jobs("export", seed, 24) if job["kind"] == "wigner")

    assert tables(1) == tables(2) == sorted(jobs.wigner_tables())
    assert {41, 81, 161, 401} <= {side for side, _ in tables(1)}
    ladder = jobs.wigner_tables()[:jobs.LADDER_TABLES]
    assert [side for side, _ in ladder] == sorted(side for side, _ in ladder)
    assert ladder[jobs.LADDER_TABLES // 2][0] == 81


def test_known_defects_are_limited_to_measured_bands():
    sweep = {"kind": "sweep", "params": {"alphas": [0.3, 1e-6]}}
    pairing = "exit code 2: error: expected 2 positive-imaginary eigenvalues, found 1"
    assert oracles.known_defect(sweep, pairing)
    assert oracles.known_defect(sweep, "exit code 2: error: unrecognized arguments") is None
    assert oracles.known_defect(sweep, "k=2, alpha=1e-06: residual 1.000e-10")
    assert oracles.known_defect(sweep, "k=2, alpha=0.3: residual 1.000e-10") is None
    assert oracles.known_defect({"kind": "sweep", "params": {"alphas": [0.3, 1e-3]}}, pairing) is None

    def gram(alpha):
        return {"kind": "gram", "params": {"alpha": alpha}}

    assert oracles.known_defect(gram(0.14), "max |G - I| = 2.135e-07")
    assert oracles.known_defect(gram(0.185), "max |G - I| = 2.000e-07") is None

    def hamiltonian(alpha, order):
        return {"kind": "hamiltonian", "params": {"alpha": alpha, "order": order}}

    reason = "ground-state |E - E0| = 1.000e-05"
    assert oracles.known_defect(hamiltonian(0.1, 80), reason)
    assert oracles.known_defect(hamiltonian(0.1, 160), reason)
    assert oracles.known_defect(hamiltonian(0.2, 80), reason) is None
    assert oracles.known_defect(hamiltonian(0.1, 320), reason) is None
    assert oracles.known_defect(hamiltonian(0.1, 80), "Fock path gap 1.000e-03") is None


def test_setup_samples_spread_over_the_run():
    for n_jobs in (1, 5, 26, 41):
        slots = setup_slots(n_jobs)
        assert len(slots) == SETUP_SAMPLES and slots[0] == 0
        assert all(0 <= slot < n_jobs for slot in slots)
    assert setup_slots(41)[-1] > 35


def test_state_moments_match_the_program():
    from cvsqueeze import phase_space

    geom = states.OscillatorGeometry(a=1.2, b=0.8, hbar=0.7)
    labels = states.DisplacementLabels(0.4 - 0.3j, -0.6 + 0.5j)
    for k in (1, 2):
        means, stds = jobs.state_moments(k, 0.3, geom.a, geom.b, geom.hbar, labels.z1, labels.z2)
        shift = states.shift_params(k, 0.3, geom, labels)
        sigma = phase_space.covariance(k, 0.3, geom).sigma
        np.testing.assert_allclose(means, [shift.y1, shift.y2, shift.q1, shift.q2], rtol=1e-13)
        np.testing.assert_allclose(np.square(stds), np.diag(sigma), rtol=1e-13)


def _cli(job, tmp_path):
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        rc = cli.main(job["argv"] + ([f"--out={out}"] if job["kind"] != "verify" else []))
    text = out.read_text() if out.exists() else stdout.getvalue()
    return {"rc": rc, "text": text}


@pytest.mark.parametrize("fmt", jobs.TABLE_FORMATS)
def test_corrupted_wigner_value_fails(tmp_path, fmt):
    job = jobs._wigner_job(random.Random(3), 9, fmt)
    reply = _cli(job, tmp_path)
    assert oracles.check(job, reply) is None
    _, _, rows = oracles.parse_table(reply["text"], fmt)
    values = [float(row[2] if fmt == "json" else row.split(",")[2]) for row in rows]
    peak = int(np.argmax(values))
    value = values[peak]
    corrupted = format(value * (1 + 1e-6), ".17g")
    text = reply["text"]
    if fmt == "json":
        payload = json.loads(text)
        payload["rows"][peak][2] = float(corrupted)
        text = json.dumps(payload)
    else:
        lines = text.splitlines()
        header = sum(line.startswith("#") for line in lines) + 1
        cells = lines[header + peak].split(",")
        lines[header + peak] = ",".join(cells[:2] + [corrupted])
        text = "\n".join(lines)
    assert oracles.check(job, {"rc": 0, "text": text}) is not None


def test_corrupted_sweep_fails(tmp_path):
    job = jobs._sweep_job(random.Random(4), None)
    reply = _cli(job, tmp_path)
    assert oracles.check(job, reply) is None
    bad = reply["text"].replace("ENTANGLED", "SEPARABLE", 1)
    assert oracles.check(job, {"rc": 0, "text": bad}) is not None


def test_failing_verify_line_fails(tmp_path):
    job = {"kind": "verify", "params": {"suite": "phase_space"}, "argv": ["verify", "phase_space"]}
    reply = _cli(job, tmp_path)
    assert oracles.check(job, reply) is None
    bad = reply["text"].replace("[PASS]", "[FAIL]", 1)
    assert oracles.check(job, {"rc": 0, "text": bad}) is not None


def test_corrupted_isb_value_fails():
    job = next(j for j in jobs.build_jobs("quadrature", 5, 1) if j["kind"] == "isb")
    p = job["params"]
    psi_b = states.bargmann_series(p["k"], p["alpha"], states.DisplacementLabels(complex(*p["z1"]), complex(*p["z2"])), p["n_max"])
    geom = states.OscillatorGeometry(p["a"], p["b"], p["hbar"])
    values = states.inverse_segal_bargmann(psi_b, np.array(p["x1"])[:, None], np.array(p["x2"])[None, :], geom, order=p["order"])
    pairs = np.stack([values.real, values.imag], axis=-1)
    assert oracles.check_isb(job, pairs.tolist()) is None
    pairs[1, 2, 0] += 1e-5
    assert oracles.check_isb(job, pairs.tolist()) is not None


def test_corrupted_gram_entry_fails():
    job = {"kind": "gram", "params": {"alpha": 0.5, "max_index": 2, "order": 20}}
    gram = basis.basis_gram(0.5, 2, 20)
    pairs = np.stack([gram.real, gram.imag], axis=-1)
    assert oracles.check_gram(job, pairs.tolist()) is None
    pairs[3, 3, 0] += 1e-6
    assert oracles.check_gram(job, pairs.tolist()) is not None


def test_self_times_on_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    np.testing.assert_allclose(spans.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_tracer_self_time_adds_up_to_root():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = tracer.span("hermite.leaf", leaf)

    def middle():
        traced_leaf()
        traced_leaf()

    tracer.run("job.test", tracer.span("basis.middle", middle))
    arrays = tracer.arrays()
    assert [tracer.names[i] for i in arrays["name_id"]] == ["job.test", "basis.middle", "hermite.leaf", "hermite.leaf"]
    assert list(arrays["parent"]) == [-1, 0, 1, 1]
    root = arrays["end"][0] - arrays["start"][0]
    assert arrays["self_s"].sum() == pytest.approx(root, rel=1e-9)
    summary = tracer.summary()
    assert summary["hermite.calls"] == 2 and summary["basis.calls"] == 1
    assert summary["basis.self_s"] < summary["hermite.self_s"]


def test_tail_has_ten_jobs_beyond():
    value, percentile, beyond = tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


def test_own_import_seconds_subtracts_nested_layers():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       cvsqueeze.states",
        "import time:       300 |        300 |       scipy.ndimage",
        "import time:        50 |        450 |     cvsqueeze.model",
        "import time:        10 |        460 |   cvsqueeze",
        "import time:        20 |        480 | cvsqueeze.cli",
    ])
    assert own_import_seconds(log) == {"states": 100e-6, "model": 350e-6, "cli": 20e-6}
