"""Seeded job lists for the three benchmark workloads.

A job is a plain dict (JSON-serialisable, so it can be sent to the worker):

* ``kind``   one of ``wigner``, ``sweep``, ``verify``, ``hamiltonian`` (CLI
  jobs, run through ``cvsqueeze.cli.main``), ``isb`` or ``gram`` (library
  jobs);
* ``round``  the balanced block the job belongs to;
* ``params`` the drawn inputs, used by the oracles;
* ``argv``   for CLI jobs, the argument list (every flag written as
  ``--flag=value``, because argparse reads ``--z2 -0.2+0.4j`` as an unknown
  option).

A run is a list of rounds. Every round holds the same mix of job kinds and
sizes, so the work of a run does not depend on the seed. The seed draws the
continuous inputs (alpha where it does not decide pass or fail, geometry,
hbar, labels, frequencies, grid axes); the order of the jobs is fixed.
Each builder lists a round's jobs with like jobs next to each other (grouped
by kind, the Wigner ladder in order of side), and ``spread`` deals that list out in golden-ratio order, so that jobs of like
cost, which decide the median and the tail latency, are spaced evenly over
the run instead of bunching where the seed happened to put them. The host's
speed changes over seconds, and bunched jobs would all catch the same phase.

The alphas that decide whether a job hits a known defect are laid on the
midpoints of equal strata of their range, spread over the whole run and
assigned to rounds by the seed. A defect whose failing region covers a tenth
of the range then fails a tenth of those jobs on every seed, so ``fail_frac``
measures the program rather than the draw. These are the tiny alpha appended
to one ``sweep`` in four, the ``gram`` alpha and the ``hamiltonian`` alpha.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("export", "quadrature", "hamiltonian")

# nominal seconds of one round on the reference machine (2-core Xeon); a run
# holds round(seconds / ROUND_SECONDS) rounds, so its work depends only on
# --seconds, never on measured speed
ROUND_SECONDS = {"export": 18.0, "quadrature": 20.0, "hamiltonian": 7.5}
# A quadrature round holds 13 jobs. The tail latency needs ten successful
# jobs beyond it, and only from two rounds on (26 jobs) does it land on a
# basis_gram rather than on a verify suite of a tenth of a second. So a
# quadrature run holds at least two rounds, about 40 s at --seconds 24.
MIN_ROUNDS = {"quadrature": 2}

ALPHA_RANGE = (0.05, 0.95)
# the tiny sweep alphas: below 10**-5.2 every geometry tried raises the
# pairing error, so the defect shows in fail_frac on every seed
TINY_ALPHA_RANGE = (1e-8, 1e-5)
AXES = ("x1", "x2", "p1", "p2")
# Wigner tables per round: LADDER_TABLES sides on a geometric ladder from 50
# to 131 (81 in the middle), csv and json alternating along it, plus one
# csv and one json table at each of the sides 41 and 161, and one csv table
# of side 401. The host's speed flips between a fast and a slow phase (up to
# 1.8 times slower) every few seconds. Tables of a few sides only make tight
# latency clusters that split into a fast and a slow spike, and the median
# then jumps from one spike to the other with the share of jobs that ran in
# a slow phase (spread 0.46 over five seeds). On the ladder the latencies
# around the median and the tail are spread evenly, so either statistic
# moves in proportion to that share; the more tables there are per unit of
# log latency, the less it moves.
LADDER_SIDES = (50, 131)
LADDER_TABLES = 91
EXTRA_TABLES = ((41, "csv"), (41, "json"), (161, "csv"), (161, "json"), (401, "csv"))
TABLE_FORMATS = ("csv", "json")
SWEEP_ALPHAS = 32
# sweeps per round; one in four appends a tiny alpha
SWEEPS_PER_ROUND = 8
TINY_EVERY = 4
SUITES = ("hermite", "basis", "states", "phase_space", "model")
ISB_PER_ROUND = 3
ISB_N_MAX = 20
ISB_ORDER = 24
GRAMS_PER_ROUND = 5
GRAM_MAX_INDEX = 4
GRAM_ORDER = 40
HAMILTONIAN_TRUNCS = (16, 24, 32, 40)
HAMILTONIAN_ORDERS = (80, 160, 320)
# hamiltonian alphas per order and round
HAMILTONIAN_ALPHAS_PER_ROUND = 3
# the ground-state check passes when |E - E0| <= GROUND_RTOL * E0
GROUND_RTOL = 1e-6


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS.get(workload, 1), round(seconds / ROUND_SECONDS[workload]))


def strata_midpoints(lo: float, hi: float, count: int) -> list[float]:
    """Midpoints of ``count`` equal strata of [lo, hi]."""
    return [lo + (hi - lo) * (i + 0.5) / count for i in range(count)]


def fmt_float(value: float) -> str:
    return format(value, ".17g")


def fmt_complex(value: complex) -> str:
    return f"{value.real:.17g}{value.imag:+.17g}j"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _label(rng: random.Random) -> complex:
    # uniform on the unit disk, |z| <= 1
    radius = math.sqrt(rng.random())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def _geometry(rng: random.Random) -> dict:
    return {
        "a": _log_uniform(rng, 0.7, 1.4),
        "b": _log_uniform(rng, 0.7, 1.4),
        "hbar": _log_uniform(rng, 0.5, 2.0),
    }


def state_moments(k: int, alpha: float, a: float, b: float, hbar: float,
                  z1: complex, z2: complex) -> tuple[list[float], list[float]]:
    """Mean and standard deviation of the state along x1, x2, p1, p2.

    The closed forms of ``phase_space.covariance`` (diagonal) and
    ``states.shift_params``, written out here so that the job list does not
    depend on the code under test. They only place the Wigner grid.
    """
    if k == 1:
        variances = [alpha / (2 * a * a), alpha / (2 * b * b), a * a * hbar * hbar / (2 * alpha),
                     b * b * hbar * hbar / (2 * alpha)]
        means = [math.sqrt(2 * alpha) * z1.real / a, math.sqrt(2 * alpha) * z2.real / b,
                 math.sqrt(2 / alpha) * a * hbar * z1.imag, math.sqrt(2 / alpha) * b * hbar * z2.imag]
    else:
        spread = (1 + alpha * alpha) / (4 * alpha)
        variances = [spread / (a * a), spread / (b * b), spread * a * a * hbar * hbar, spread * b * b * hbar * hbar]
        root = math.sqrt(2 * alpha)
        means = [
            ((alpha + 1) * z1.real + (alpha - 1) * z2.real) / (a * root),
            ((alpha - 1) * z1.real + (alpha + 1) * z2.real) / (b * root),
            (a * hbar / root) * ((1 + alpha) * z1.imag + (1 - alpha) * z2.imag),
            (b * hbar / root) * ((1 + alpha) * z2.imag + (1 - alpha) * z1.imag),
        ]
    return means, [math.sqrt(v) for v in variances]


def _wigner_job(rng: random.Random, side: int, fmt: str) -> dict:
    geom = _geometry(rng)
    k, alpha = rng.choice((1, 2)), rng.uniform(*ALPHA_RANGE)
    z1, z2 = _label(rng), _label(rng)
    axis1, axis2 = rng.sample(AXES, 2)
    # the grid spans 2 to 4 standard deviations around the state's mean and
    # the fixed coordinates lie within one, so that every table samples the
    # state's bulk and costs about the same to evaluate and format
    means, stds = state_moments(k, alpha, geom["a"], geom["b"], geom["hbar"], z1, z2)
    ranges = []
    for axis in (axis1, axis2):
        i = AXES.index(axis)
        half = rng.uniform(2.0, 4.0) * stds[i]
        ranges.append([means[i] - half, means[i] + half])
    fixed = {name: means[i] + rng.uniform(-1.0, 1.0) * stds[i]
             for i, name in enumerate(AXES) if name not in (axis1, axis2)}
    params = {
        "k": k,
        "alpha": alpha,
        **geom,
        "z1": _pair(z1),
        "z2": _pair(z2),
        "axes": [axis1, axis2],
        "range1": ranges[0],
        "range2": ranges[1],
        "n": side,
        "format": fmt,
        "fixed": fixed,
    }
    argv = [
        "wigner",
        f"--k={k}",
        f"--alpha={fmt_float(alpha)}",
        f"--a={fmt_float(geom['a'])}",
        f"--b={fmt_float(geom['b'])}",
        f"--hbar={fmt_float(geom['hbar'])}",
        f"--z1={fmt_complex(z1)}",
        f"--z2={fmt_complex(z2)}",
        f"--axes={axis1},{axis2}",
        f"--range1={fmt_float(ranges[0][0])}:{fmt_float(ranges[0][1])}",
        f"--range2={fmt_float(ranges[1][0])}:{fmt_float(ranges[1][1])}",
        f"--n1={side}",
        f"--n2={side}",
        f"--format={fmt}",
    ]
    argv += [f"--fix={name}={fmt_float(value)}" for name, value in fixed.items()]
    return {"kind": "wigner", "params": params, "argv": argv}


def _sweep_job(rng: random.Random, tiny_alpha: float | None) -> dict:
    geom = _geometry(rng)
    alphas = [rng.uniform(*ALPHA_RANGE) for _ in range(SWEEP_ALPHAS)]
    if tiny_alpha is not None:
        alphas.append(tiny_alpha)
    fmt = rng.choice(TABLE_FORMATS)
    params = {**geom, "alphas": alphas, "format": fmt}
    argv = [
        "sweep",
        "--alphas=" + ",".join(fmt_float(a) for a in alphas),
        f"--a={fmt_float(geom['a'])}",
        f"--b={fmt_float(geom['b'])}",
        f"--hbar={fmt_float(geom['hbar'])}",
        f"--format={fmt}",
    ]
    return {"kind": "sweep", "params": params, "argv": argv}


def wigner_tables() -> list[tuple[int, str]]:
    """(grid side, format) of every Wigner table in an export round."""
    lo, hi = LADDER_SIDES
    sides = [round(lo * (hi / lo) ** (i / (LADDER_TABLES - 1))) for i in range(LADDER_TABLES)]
    return [(side, TABLE_FORMATS[i % 2]) for i, side in enumerate(sides)] + list(EXTRA_TABLES)


def _export_jobs(rng: random.Random, rounds: int) -> list[list[dict]]:
    slots = range(0, SWEEPS_PER_ROUND * rounds, TINY_EVERY)
    lo, hi = (math.log10(v) for v in TINY_ALPHA_RANGE)
    tiny = [10.0**x for x in strata_midpoints(lo, hi, len(slots))]
    rng.shuffle(tiny)
    tiny_at = dict(zip(slots, tiny))
    blocks = []
    for r in range(rounds):
        jobs = [_wigner_job(rng, side, fmt) for side, fmt in wigner_tables()]
        jobs += [_sweep_job(rng, tiny_at.get(r * SWEEPS_PER_ROUND + i)) for i in range(SWEEPS_PER_ROUND)]
        blocks.append(jobs)
    return blocks


def _quadrature_jobs(rng: random.Random, rounds: int) -> list[list[dict]]:
    gram_alphas = strata_midpoints(*ALPHA_RANGE, GRAMS_PER_ROUND * rounds)
    rng.shuffle(gram_alphas)
    blocks = []
    for r in range(rounds):
        jobs = [{"kind": "verify", "params": {"suite": s}, "argv": ["verify", s]} for s in SUITES]
        for _ in range(ISB_PER_ROUND):
            params = {
                "k": rng.choice((1, 2)),
                "alpha": rng.uniform(*ALPHA_RANGE),
                **_geometry(rng),
                "z1": _pair(_label(rng)),
                "z2": _pair(_label(rng)),
                "n_max": ISB_N_MAX,
                "order": ISB_ORDER,
            }
            # 3 x 3 points spanning one oscillator length along each axis
            params["x1"] = [t / params["a"] for t in (-1.0, 0.0, 1.0)]
            params["x2"] = [t / params["b"] for t in (-1.0, 0.0, 1.0)]
            jobs.append({"kind": "isb", "params": params})
        for alpha in gram_alphas[r * GRAMS_PER_ROUND:(r + 1) * GRAMS_PER_ROUND]:
            params = {"alpha": alpha, "max_index": GRAM_MAX_INDEX, "order": GRAM_ORDER}
            jobs.append({"kind": "gram", "params": params})
        blocks.append(jobs)
    return blocks


def _hamiltonian_jobs(rng: random.Random, rounds: int) -> list[list[dict]]:
    # per order, the alpha strata j = 0 .. n-1 go to round j mod rounds, and
    # stratum j of order i takes trunc (i n + j) mod 4, so every round holds
    # each order three times and the truncs in equal shares, and which sizes
    # land in the failing strata is fixed rather than drawn
    per_order = HAMILTONIAN_ALPHAS_PER_ROUND * rounds
    alphas = strata_midpoints(*ALPHA_RANGE, per_order)
    blocks: list[list[dict]] = [[] for _ in range(rounds)]
    for i, order in enumerate(HAMILTONIAN_ORDERS):
        for j, alpha in enumerate(alphas):
            trunc = HAMILTONIAN_TRUNCS[(i * per_order + j) % len(HAMILTONIAN_TRUNCS)]
            omega1 = _log_uniform(rng, 0.5, 2.0)
            omega2 = _log_uniform(rng, 0.5, 2.0)
            hbar = _log_uniform(rng, 0.5, 2.0)
            # real labels, |z| <= 1: a complex label adds a momentum kick
            # whose phase the finite-difference check resolves with an error
            # spread over three decades, which would make pass or fail at
            # alpha 0.2 to 0.3 a draw; with real labels it depends on alpha
            # and order only
            z1, z2 = complex(rng.uniform(-1.0, 1.0)), complex(rng.uniform(-1.0, 1.0))
            # relative to the ground energy, so the drawn energy scale does
            # not decide pass or fail
            tol = GROUND_RTOL * 0.5 * hbar * (omega1 + omega2)
            params = {
                "alpha": alpha, "trunc": trunc, "order": order, "omega1": omega1,
                "omega2": omega2, "hbar": hbar, "z1": _pair(z1), "z2": _pair(z2), "tol": tol,
            }
            argv = [
                "hamiltonian",
                f"--alpha={fmt_float(alpha)}",
                f"--omega1={fmt_float(omega1)}",
                f"--omega2={fmt_float(omega2)}",
                f"--hbar={fmt_float(hbar)}",
                f"--z1={fmt_complex(z1)}",
                f"--z2={fmt_complex(z2)}",
                f"--trunc={trunc}",
                f"--order={order}",
                f"--tol={fmt_float(tol)}",
                "--format=json",
            ]
            blocks[j % rounds].append({"kind": "hamiltonian", "params": params, "argv": argv})
    return blocks


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def spread(block: list) -> list:
    """``block`` reordered so that neighbours in it end up far apart: item i
    goes to the rank of frac(i * golden ratio), a low-discrepancy order, so
    any run of neighbours is spaced evenly over the result."""
    return [block[i] for i in sorted(range(len(block)), key=lambda i: (i * GOLDEN) % 1.0)]


_BUILDERS = {"export": _export_jobs, "quadrature": _quadrature_jobs, "hamiltonian": _hamiltonian_jobs}


def build_jobs(workload: str, seed: int, seconds: float) -> list[dict]:
    """The run's job list: rounds in order, each round's jobs ``spread``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for r, block in enumerate(_BUILDERS[workload](rng, rounds_for(workload, seconds))):
        for job in spread(block):
            job["round"] = r
            jobs.append(job)
    return jobs
