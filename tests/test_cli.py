"""Command-line surface: table schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsqueeze import cli, model, phase_space, states
from cvsqueeze.cli import main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_table_values(self, capsys):
        code, out, _ = run(["sweep", "--alphas", "0.25,0.5,0.75"], capsys)
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        assert header[0] == "mode"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        by_key = {(row[0], row[1]): row for row in rows}
        # separately squeezed states stay separable with zero negativity
        for alpha in ("0.25", "0.5", "0.75"):
            row = by_key[("1", alpha)]
            assert row[5] == "SEPARABLE"
            assert abs(float(row[6])) < 1e-12
        # jointly squeezed states: negativity ln 4, ln 2, ln(4/3)
        expected = {"0.25": math.log(4), "0.5": math.log(2), "0.75": math.log(4 / 3)}
        for alpha, value in expected.items():
            row = by_key[("2", alpha)]
            assert row[5] == "ENTANGLED"
            assert float(row[6]) == pytest.approx(value, rel=1e-12)
            assert float(row[8]) < 1e-12  # residual column

    def test_deterministic_output(self, capsys):
        _, first, _ = run(["sweep", "--alphas", "0.3,0.6"], capsys)
        _, second, _ = run(["sweep", "--alphas", "0.3,0.6"], capsys)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(["sweep", "--alphas", "0.5", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "mode"
        assert len(payload["rows"]) == 2

    def test_invalid_alpha_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--alphas", "0.5,1.5"])
        assert excinfo.value.code == 2

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(["sweep", "--alphas", "0.5", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# command = sweep")


class TestWigner:
    def test_centered_peak_at_origin(self, capsys):
        code, out, _ = run(
            ["wigner", "--alpha", "0.5", "--n1", "5", "--n2", "5",
             "--range1=-2:2", "--range2=-2:2"],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        values = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        peak = max(values, key=values.get)
        assert peak == (0.0, 0.0)
        assert values[peak] == pytest.approx(math.pi**-2, rel=1e-12)

    def test_shifted_peak_moves(self, capsys):
        from cvsqueeze import states

        labels = states.DisplacementLabels(0.8 + 0.0j, 0.4 + 0.0j)
        shift = states.shift_params(2, 0.5, states.OscillatorGeometry(1, 1), labels)
        code, out, _ = run(
            ["wigner", "--alpha", "0.5", "--z1", "0.8", "--z2", "0.4",
             "--n1", "81", "--n2", "81", "--range1=-3:3", "--range2=-3:3"],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        values = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        peak = max(values, key=values.get)
        assert peak[0] == pytest.approx(shift.y1, abs=0.08)
        assert peak[1] == pytest.approx(shift.y2, abs=0.08)

    def test_grid_sum_matches_marginal(self, capsys):
        # summing the position slice at p = 0 times the cell area
        # approximates the momentum-space density at the origin
        code, out, _ = run(
            ["wigner", "--alpha", "0.5", "--n1", "161", "--n2", "161",
             "--range1=-8:8", "--range2=-8:8"],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        values = np.array([float(r[2]) for r in rows])
        cell = (16 / 160) ** 2
        total = values.sum() * cell
        # integral of W over x at p = 0 equals (pi hbar^2 det M^(1/2))^-1
        assert total == pytest.approx(1 / math.pi, rel=1e-4)

    def test_momentum_slice(self, capsys):
        code, out, _ = run(
            ["wigner", "--alpha", "0.5", "--axes", "p1,p2", "--n1", "3", "--n2", "3",
             "--range1=-1:1", "--range2=-1:1", "--fix", "x1=0.5"],
            capsys,
        )
        assert code == 0
        assert "# fixed_x1 = 0.5" in out
        assert "# fixed_x2 = 0" in out

    @pytest.mark.parametrize("a, b", [("1", "1"), ("0.8", "1.3")])
    def test_strong_squeezing_exit_0(self, a, b, capsys):
        # at alpha 1e-8 the raw quadratic form failed its positive-definite
        # check on geometry (0.8, 1.3) and lost digits on (1, 1)
        code, out, err = run(
            ["wigner", "--alpha=1e-8", f"--a={a}", f"--b={b}", "--n1=5", "--n2=5",
             "--range1=-2e-4:2e-4", "--range2=-2e-4:2e-4"],
            capsys,
        )
        assert code == 0, err
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        values = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert values[0.0, 0.0] == pytest.approx(math.pi**-2, rel=1e-15)
        assert all(0.0 <= value <= math.pi**-2 for value in values.values())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "flags, zero_rows",
        [
            (["--n1=2", "--n2=2", "--hbar=1e-154", "--axes=p1,p2", "--range1=1e-100:1"], [0, 1, 2, 3]),
            (["--n1=3", "--n2=2", "--range1=-1e200:1e200"], [0, 1, 4, 5]),
            (["--n1=3", "--n2=3", "--hbar=1e-154", "--axes=p1,p2", "--range1=-1e200:1e200",
              "--range2=-1e200:1e200"], [0, 1, 2, 3, 5, 6, 7, 8]),
        ],
        ids=["momentum-over-tiny-hbar", "position-beyond-float-squares", "momentum-quotients-beyond-float"],
    )
    def test_exponent_beyond_float64_is_an_exact_zero(self, flags, zero_rows, capsys):
        # the exponent overflows float64: +inf is its exact limit and the
        # Wigner value is 0, with no overflow warning
        code, out, err = run(["wigner", "--alpha=0.5", *flags], capsys)
        assert code == 0, err
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        values = [float(r[2]) for r in rows]
        assert all(math.isfinite(v) for v in values)
        assert [i for i, v in enumerate(values) if v == 0.0] == zero_rows

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opposite_overflows_are_an_exact_zero(self, capsys):
        # at alpha 1e-8 a principal-axis row of the corners (1e305, -1e305)
        # and (-1e305, 1e305) sums two products that overflow with opposite
        # signs; the exponent is +inf there all the same, not inf - inf = NaN
        code, out, err = run(
            ["wigner", "--alpha=1e-8", "--n1=3", "--n2=3", "--range1=-1e305:1e305", "--range2=-1e305:1e305"], capsys
        )
        assert code == 0, err
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        values = [float(r[2]) for r in rows]
        assert values == [0.0] * 4 + [pytest.approx(math.pi**-2, rel=1e-15)] + [0.0] * 4

    def test_rejects_bad_axes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["wigner", "--alpha", "0.5", "--axes", "x1,q9"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--fix", "x1=0.5"], ["--axes", "x1,x1"], ["--n1", "1"], ["--n1=3", "--range1=-1e308:1e308"]],
        ids=["fix-of-varied-axis", "repeated-axis", "one-point-grid", "range-width-overflows"],
    )
    def test_usage_errors_print_the_wigner_usage(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["wigner", "--alpha", "0.5", *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cvsqueeze wigner")

    def test_peak_overflow_exits_2(self, capsys):
        # (pi hbar)^-2 overflows: a usage-level error naming hbar, no traceback
        code, out, err = run(["wigner", "--alpha=0.5", "--hbar=1e-155"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: hbar = 1e-155")

    @pytest.mark.parametrize(
        "fixes",
        [
            ["--fix", "x1=0.5"],
            ["--fix=x2=0.5"],
            ["--axes=p1,x2", "--fix=p1=1"],
            ["--fix", "p1=1", "--fix", "p1=2"],
            ["--fix=p2=1", "--fix=p1=0", "--fix=p2=1"],
        ],
        ids=["varied-flag", "varied-equals", "varied-axes", "twice-flag", "twice-equals"],
    )
    def test_fix_of_varied_or_repeated_axis_exits_2(self, fixes, capsys):
        # the value would be ignored (a varied axis) or overwritten (a repeat)
        with pytest.raises(SystemExit) as excinfo:
            main(["wigner", "--alpha=0.5", "--n1=2", "--n2=2", *fixes])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--fix" in captured.err


# one small run of each command that writes a document
COMMANDS = [
    ["sweep", "--alphas=0.5"],
    ["wigner", "--alpha=0.5", "--n1=2", "--n2=2"],
    ["hamiltonian", "--alpha=0.5", "--trunc=8"],
]


class TestParserReuse:
    """main builds one parser per process, and only argv sets a flag."""

    def test_environment_is_not_read(self, capsys, monkeypatch):
        # the names of the presets the CLI once read; a value of "x" was a
        # usage error for every one of them
        expected = [run(argv, capsys) for argv in COMMANDS]
        assert all(code == 0 and out for code, out, _ in expected)
        for name in ("HBAR", "FORMAT", "OUT", "MASS", "ORDER", "TRUNC", "TOL"):
            monkeypatch.setenv(f"CVSQUEEZE_{name}", "x")
        for argv, before in zip(COMMANDS, expected):
            assert run(argv, capsys) == before

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for argv in COMMANDS + COMMANDS:
            assert run(argv, capsys)[0] == 0
        assert len(built) == 1
        cli._parser.cache_clear()

    def test_fix_does_not_leak_into_later_calls(self, capsys):
        argv = ["wigner", "--alpha=0.5", "--n1=2", "--n2=2"]
        code, out, _ = run(argv + ["--fix", "p1=0.75", "--fix=p2=-0.5"], capsys)
        assert code == 0 and "# fixed_p1 = 0.75\n" in out and "# fixed_p2 = -0.5\n" in out
        code, out, _ = run(argv, capsys)
        assert code == 0 and "# fixed_p1 = 0\n" in out and "# fixed_p2 = 0\n" in out
        code, out, _ = run(argv + ["--fix=p2=0.25"], capsys)
        assert code == 0 and "# fixed_p1 = 0\n" in out and "# fixed_p2 = 0.25\n" in out


class TestVerifyCommand:
    def test_phase_space_suite_passes(self, capsys):
        code, out, _ = run(["verify", "phase_space"], capsys)
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert "symplectic spectrum" in out

    def test_model_suite_passes(self, capsys):
        code, out, _ = run(["verify", "model"], capsys)
        assert code == 0

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "everything"])
        assert excinfo.value.code == 2

    def test_output_flags_exit_2(self, tmp_path, capsys):
        # verify prints its report to stdout and takes none of the table flags
        target = tmp_path / "report.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "phase_space", "--format=json", f"--out={target}"])
        assert excinfo.value.code == 2
        assert not target.exists()


class TestHamiltonianCommand:
    def test_no_squeezing_zero_coupling(self, capsys):
        code, out, _ = run(
            ["hamiltonian", "--alpha", "0.999999999999", "--omega1", "1", "--omega2", "1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        q = payload["quadratic"]["q"]
        assert abs(q[0][1]) < 1e-11
        assert abs(q[2][3]) < 1e-11

    def test_symmetric_coupling_and_energy(self, capsys, tmp_path):
        target = tmp_path / "ham.json"
        code, _, _ = run(
            ["hamiltonian", "--alpha", "0.5", "--omega1", "1", "--omega2", "1",
             "--out", str(target)],
            capsys,
        )
        assert code == 0
        payload = json.loads(target.read_text())
        q = payload["quadratic"]["q"]
        strength = (1 - 0.25) / 0.5
        assert abs(q[0][1]) == pytest.approx(strength * 0.5, rel=1e-12)
        assert abs(q[2][3]) == pytest.approx(strength * 0.5, rel=1e-12)
        ground = payload["ground_state"]
        assert ground["within_tolerance"]
        assert ground["expected"] == pytest.approx(1.0, rel=1e-15)
        assert abs(ground["energy"] - ground["expected"]) < 1e-6


    def test_json_format_flag(self, capsys):
        code, out, _ = run(["hamiltonian", "--alpha=0.5", "--trunc=8", "--format=json"], capsys)
        assert code == 0
        assert json.loads(out)["params"]["command"] == "hamiltonian"

    @pytest.mark.parametrize("alpha", ["1e-4", "0.05", "0.1", "0.5"])
    def test_complex_labels_unequal_omegas_exit_0(self, alpha, capsys):
        code, out, _ = run(
            ["hamiltonian", f"--alpha={alpha}", "--omega1=0.7", "--omega2=1.9",
             "--z1=0.4+0.3j", "--z2=-0.2+0.5j", "--trunc=12"],
            capsys,
        )
        ground = json.loads(out)["ground_state"]
        assert code == 0
        assert ground["within_tolerance"]
        assert ground["factorization_defect"] <= 1e-6

    def test_lost_digits_exit_1(self, capsys):
        # at alpha 1e-8 the state keeps its digits on the principal axes,
        # but the raw (Q, L, c) loses them, so the energy is off and the
        # check says so
        code, out, _ = run(
            ["hamiltonian", "--alpha=1e-8", "--omega1=0.7", "--omega2=1.9",
             "--z1=0.4+0.3j", "--z2=-0.2+0.5j", "--trunc=12"],
            capsys,
        )
        ground = json.loads(out)["ground_state"]
        assert code == 1
        assert not ground["within_tolerance"]
        assert ground["factorization_defect"] <= 1e-7
        assert abs(ground["energy"] - ground["expected"]) > 1e-6 * ground["expected"]

    def test_factorization_defect_gates_the_exit(self, capsys, monkeypatch):
        # a correct energy does not pass when the state is not a product
        # on the principal axes
        def check(*args, **kwargs):
            return model.GroundStateCheck(
                energy=1.0, expected=1.0, residual=0.0, grid_points=161, factorization_defect=1e-3
            )

        monkeypatch.setattr(model, "ground_state_energy_check", check)
        code, out, _ = run(["hamiltonian", "--alpha=0.5", "--trunc=12"], capsys)
        assert code == 1
        assert not json.loads(out)["ground_state"]["within_tolerance"]

    def test_hermiticity_defect_gates_the_exit(self, capsys, monkeypatch):
        # a Fock operator that is not Hermitian fails the run although the
        # paths agree and the ground state passes: both paths get the same
        # band (2, 0), whose mirror (-2, 0) is absent
        fock = model.hamiltonian_fock

        def skewed(*args, **kwargs):
            op = fock(*args, **kwargs)
            unmirrored = np.full((op.n_trunc - 2, op.n_trunc), 1e-3)
            return model.TruncatedOperator({**op.bands, (2, 0): unmirrored}, op.n_trunc)

        monkeypatch.setattr(model, "hamiltonian_fock", skewed)
        code, out, _ = run(["hamiltonian", "--alpha=0.5", "--trunc=12"], capsys)
        payload = json.loads(out)
        assert code == 1
        assert payload["fock"]["hermiticity_defect"] == 1e-3
        assert payload["fock"]["path_agreement_interior"] <= 1e-12
        assert payload["ground_state"]["within_tolerance"]

    @pytest.mark.parametrize("argv, order", [([], 80), (["--order=120"], 120)], ids=["default", "flag"])
    def test_params_record_order(self, argv, order, capsys):
        # the header holds every parameter of the run, the check's grid order too
        code, out, _ = run(["hamiltonian", "--alpha=0.5", "--trunc=8", *argv], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["params"]["order"] == order
        assert payload["ground_state"]["grid_points"] == 2 * order + 1

    def test_imaginary_label_resolved(self, capsys):
        code, out, _ = run(["hamiltonian", "--alpha=0.5", "--trunc=12", "--z1=4", "--z2=-3j"], capsys)
        ground = json.loads(out)["ground_state"]
        assert code == 0
        # at least max(81, 2 * 80 + 1) points, four times that step for Im(z1 - z2) = 3
        assert ground["grid_points"] == 641
        assert abs(ground["energy"] - 1.0) <= 1e-9

    def test_csv_format_exits_2(self, capsys):
        # the document is json only; csv is refused rather than ignored
        with pytest.raises(SystemExit) as excinfo:
            main(["hamiltonian", "--alpha=0.5", "--trunc=8", "--format=csv"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--format" in captured.err


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["wigner", "--alpha=0.5", "--hbar=inf"],
            ["hamiltonian", "--alpha=0.5", "--mass=inf"],
            ["hamiltonian", "--alpha=0.5", "--tol=inf"],
            ["sweep", "--alphas=0.5", "--a=inf"],
            ["sweep", "--alphas=0.5", "--b=inf"],
            ["hamiltonian", "--alpha=0.5", "--omega1=inf"],
            ["hamiltonian", "--alpha=0.5", "--omega2=inf"],
            ["wigner", "--alpha=0.5", "--fix=p1=nan"],
            ["wigner", "--alpha=0.5", "--fix=x2=-inf"],
        ],
        ids=["hbar", "mass", "tol", "a", "b", "omega1", "omega2", "fix-nan", "fix-inf"],
    )
    def test_non_finite_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["wigner", "hamiltonian"])
    @pytest.mark.parametrize("flag", ["--z1=nan", "--z2=inf+1j", "--z1=1-infj", "--z2=nan+nanj"])
    def test_non_finite_label_exits_2(self, command, flag, capsys):
        # SystemExit comes from the parser, before any model code runs
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--alpha=0.5", flag])
        assert excinfo.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--order=-5", "--order=0", "--trunc=0", "--trunc=2.5"])
    def test_non_positive_int_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["hamiltonian", "--alpha=0.5", flag])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--alphas=0.5", "--order=5"],
            ["sweep", "--alphas=0.5", "--trunc=5"],
            ["sweep", "--alphas=0.5", "--mass=2"],
            ["sweep", "--alphas=0.5", "--tol=1"],
            ["wigner", "--alpha=0.5", "--order=5"],
            ["wigner", "--alpha=0.5", "--trunc=5"],
            ["wigner", "--alpha=0.5", "--mass=2"],
            ["wigner", "--alpha=0.5", "--tol=1"],
        ],
        ids=lambda argv: f"{argv[0]}-{argv[2][2:].split('=')[0]}",
    )
    def test_model_flags_outside_hamiltonian_exit_2(self, argv, capsys):
        # sweep and wigner read none of the model flags, so they take none
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestWriter:
    """One sink for every document: the --out file holds the bytes stdout
    gets, and nothing is written when the command fails before its output."""

    @pytest.mark.parametrize(
        "argv",
        [
            # 300 rows of 64 points: three blocks of whole rows
            ["wigner", "--alpha=0.35", "--n1=300", "--n2=64", "--z1=0.3+0.2j", "--format=csv"],
            ["wigner", "--alpha=0.35", "--n1=300", "--n2=64", "--z1=0.3+0.2j", "--format=json"],
            ["sweep", "--alphas=0.05,0.3,0.6", "--format=csv"],
            ["sweep", "--alphas=0.05,0.3,0.6", "--format=json"],
            ["hamiltonian", "--alpha=0.5", "--trunc=8"],
        ],
        ids=["wigner-csv", "wigner-json", "sweep-csv", "sweep-json", "hamiltonian"],
    )
    def test_file_bytes_equal_stdout(self, argv, tmp_path, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        target = tmp_path / "doc"
        assert run(argv + [f"--out={target}"], capsys) == (0, "", "")
        assert target.read_bytes() == out.encode()

    def test_usage_error_leaves_no_file(self, tmp_path, capsys):
        target = tmp_path / "doc"
        with pytest.raises(SystemExit) as excinfo:
            main(["wigner", "--alpha=0.5", "--fix=x1=0.5", f"--out={target}"])
        assert excinfo.value.code == 2
        assert not target.exists()

    def test_failing_sweep_leaves_no_file(self, tmp_path, capsys):
        # the pairing error of a tiny alpha is raised before the file opens
        target = tmp_path / "doc"
        code, out, err = run(["sweep", "--alphas=0.5,1e-8", f"--out={target}"], capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert not target.exists()

    def test_closed_pipe_ends_quietly(self):
        # a reader that stops early (``| head``) leaves no traceback
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "cvsqueeze.cli", "wigner", "--alpha=0.5", "--n1=401", "--n2=401"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(18) == b"# command = wigner"
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert (code, stderr) == (0, b"")

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "doc"
        code, out, err = run(["wigner", "--alpha=0.5", f"--out={target}"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")


def _python_texts(values, fmt: str) -> list:
    """Each value's text from Python's formatter, one value at a time."""
    write = (lambda v: format(v, ".17g")) if fmt == "csv" else json.dumps
    return [write(v).encode() for v in np.asarray(values, dtype=float).ravel().tolist()]


def _crafted_values() -> np.ndarray:
    """Doubles on and around every decision of the vectorized float-text
    route, with random ones over the whole range."""
    rng = np.random.default_rng(20261019)
    parts = [
        np.array([0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  math.inf, -math.inf, math.nan, 1.7976931348623157e308, 1e-280, 1e280]),
        2.0 ** np.arange(-1074, 1024),
        # powers of ten, correctly rounded, and the switch points of both formats
        np.array([float(f"1e{e}") for e in range(-323, 309)]),
        np.array([1e-4, 1e-5, 1e15, 1e16, 1e17, 1e22, 1e23, 123456.0, 0.1, 0.3]),
        # large integers, about 2**53 and up to 2**63
        2.0**53 + np.arange(-8, 9),
        rng.integers(10**15, 10**17, 300).astype(float),
        rng.integers(0, 2**63, 300, dtype=np.int64).astype(float),
        # the shortest decimals of random 15- and 16-digit strings
        np.array([float(f"{d}e{e}") for d, e in zip(rng.integers(10**14, 10**16, 400), rng.integers(-300, 290, 400))]),
    ]
    # exact ties at 17 digits: v = odd / 2**(17 - k) in [10**k, 10**(k + 1)),
    # so that v 10**(16 - k) = odd 5**(16 - k) / 2; such a double exists for
    # -8 <= k <= 15, and below k = -6 10**(16 - k) is no double
    for k in range(-8, 16):
        lo, hi = math.ceil(10.0**k * 2 ** (16 - k)), min(math.ceil(10.0 ** (k + 1) * 2 ** (16 - k)), 2**52)
        halves = np.unique(rng.integers(lo, hi, 20)) if hi - lo > 20 else np.arange(lo, hi)
        parts.append(np.ldexp(2.0 * halves + 1, k - 17))
    # near-ties: doubles M 2**f with M 5**(16 - k) within 3 of 2**(t - 1)
    # modulo 2**t, t = -(f + 16 - k), so that v 10**(16 - k) lies within
    # 3 2**-t of a tie; as t nears 53 that is within the double-double's error
    near = []
    for k in range(-7, 16):
        for f in range(math.floor(k * math.log2(10)) - 54, math.floor(k * math.log2(10)) - 49):
            t = k - 16 - f
            if 1 < t <= 53:
                inverse = pow(5 ** (16 - k), -1, 2**t)
                for d in range(-3, 4):
                    r = (2 ** (t - 1) + d) * inverse % 2**t
                    first = max(0, -(-(2**52 - r) // 2**t))
                    near += [math.ldexp(r + j * 2**t, f) for j in range(first, first + 4) if r + j * 2**t < 2**53]
    parts.append(np.array(near))
    # 15- and 16-digit integers D 10**j exactly half an ulp from the doubles
    # on both sides of them: the edge of the rounding interval
    edges = []
    for digits, power in zip(rng.integers(10**14, 10**16, 2000), rng.integers(1, 5, 2000)):
        c = int(digits) * 10 ** int(power)
        spacing = 2 ** max(c.bit_length() - 53, 0)
        if spacing > 1 and c % spacing == spacing // 2:
            edges += [float(c - spacing // 2), float(c + spacing // 2)]
    parts.append(np.array(edges))
    values = np.concatenate(parts)
    # each finite value's neighbours, which reach the powers of ten from below
    finite = values[np.abs(values) < np.finfo(float).max]
    values = np.concatenate([
        values, np.nextafter(finite, 0.0), np.nextafter(finite, np.inf),
        # random bit patterns: every exponent, subnormals, inf and nan
        rng.integers(0, 2**64, 5000, dtype=np.uint64, endpoint=False).view(np.float64),
        rng.integers(1, 2**52, 100, dtype=np.int64).view(np.float64),
    ])
    return np.concatenate([values, -values])


class TestFloatTexts:
    """The vectorized float text against Python's formatter."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_crafted_values_match_python(self, fmt):
        values = _crafted_values()
        texts = cli._float_texts(values, fmt)
        assert texts.dtype.kind == "S" and texts.shape == values.shape
        mismatches = [(v, t) for v, t, ref in zip(values.tolist(), texts.tolist(), _python_texts(values, fmt))
                      if t != ref]
        assert mismatches == []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40), st.sampled_from(["csv", "json"]))
    def test_hypothesis_floats_match_python(self, values, fmt):
        # a 2D input keeps its shape
        grid = np.array(values * 2).reshape(2, -1)
        texts = cli._float_texts(grid, fmt)
        assert texts.shape == grid.shape
        assert texts.ravel().tolist() == _python_texts(grid, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_route_decides_ordinary_values(self, fmt, monkeypatch):
        # Python's formatter is the exception, not the rule. Above about
        # 1e8 a double's binary fraction puts v 10**(16 - k) on an exact
        # tie for a share of values that grows to 1/8 near 1e15, so the
        # range stops at 1e6
        calls = []
        monkeypatch.setattr(cli, "_cell", lambda value, fmt: calls.append(value) or "")
        rng = np.random.default_rng(7)
        values = rng.standard_normal(10000) * 10.0 ** rng.uniform(-270, 6, 10000)
        cli._float_texts(values, fmt)
        assert calls == []


def _reference_fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _reference_table(params: dict, columns: list, rows: list, fmt: str) -> str:
    """The table writer as a per-cell loop and an indent-2 json.dumps."""
    if fmt == "csv":
        lines = [f"# {key} = {_reference_fmt(value)}" for key, value in params.items()]
        lines.append(",".join(columns))
        lines.extend(",".join(_reference_fmt(cell) for cell in row) for row in rows)
        return "\n".join(lines) + "\n"
    return json.dumps({"params": params, "columns": columns, "rows": rows}, indent=2) + "\n"


def _emitted(params: dict, names: list, columns: list, fmt: str) -> str:
    """The text of the blocks the table writer yields."""
    return b"".join(cli._emit_table(params, names, columns, fmt)).decode()


def _direct_table(params: dict, columns: list, rows: list, fmt: str) -> str:
    """The table writer fed directly, one column per table column."""
    return _emitted(params, columns, [list(column) for column in zip(*rows)], fmt)


def _reference_wigner_rows(params: dict) -> list:
    """The table a header describes, one scalar evaluator call per point."""
    hbar = params["hbar"]
    geom = states.OscillatorGeometry(a=params["a"], b=params["b"], hbar=hbar)
    labels = states.DisplacementLabels(z1=complex(params["z1"]), z2=complex(params["z2"]))
    k, alpha = params["mode"], params["alpha"]
    _, evaluator = phase_space.wigner_gaussian(states.unshifted_gaussian(k, alpha, geom), hbar)
    shift = states.shift_params(k, alpha, geom, labels)
    offsets = {"x1": shift.y1, "x2": shift.y2, "p1": shift.q1, "p2": shift.q2}
    axis1, axis2 = params["axis1"], params["axis2"]
    grid1 = np.linspace(*map(float, params["range1"].split(":")), params["n1"])
    grid2 = np.linspace(*map(float, params["range2"].split(":")), params["n2"])
    point = {name: params.get(f"fixed_{name}", 0.0) for name in ("x1", "x2", "p1", "p2")}
    rows = []
    for v1 in grid1:
        point[axis1] = float(v1)
        for v2 in grid2:
            point[axis2] = float(v2)
            value = evaluator(*(point[name] - offsets[name] for name in ("x1", "x2", "p1", "p2")))
            rows.append([float(v1), float(v2), float(value)])
    return rows


class TestByteIdentity:
    """The table writer gives the bytes of the per-cell reference writer."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k=1", "--n1=7", "--n2=4", "--z1=0.3+0.2j", "--hbar=1.3", "--a=0.8", "--b=1.7",
             "--fix=p1=0.25", "--fix=p2=-0.4"],
            ["--k=2", "--axes=p1,p2", "--n1=5", "--n2=6", "--range1=-2:2", "--range2=-1:3",
             "--fix=x1=0.5", "--fix=x2=-0.3", "--z2=-0.2+0.4j", "--hbar=0.7"],
            ["--k=2", "--axes=x2,p1", "--n1=9", "--n2=3", "--alpha=0.1", "--fix=p2=1e-3"],
            ["--k=1", "--axes=p2,x1", "--n1=4", "--n2=7", "--alpha=0.9", "--z1=-0.5j"],
            ["--k=2", "--n1=2", "--n2=257", "--range2=-4:4.5", "--fix=p1=0.3"],
            ["--k=1", "--axes=x1,p2", "--n1=257", "--n2=2", "--range1=-5:5", "--z2=0.1-0.2j"],
        ],
        ids=["k1-positions", "k2-momenta", "k2-mixed", "k1-mixed-reversed", "long-rows", "tall"],
    )
    def test_wigner_matches_reference(self, argv, capsys):
        self._check_wigner(["wigner", "--alpha=0.35"] + argv, capsys)

    def test_underflowed_values_match_reference(self, capsys):
        rows = self._check_wigner(
            ["wigner", "--alpha=0.5", "--n1=4", "--n2=3", "--range1=40:60", "--range2=-60:-40"], capsys
        )
        assert all(row[2] == 0.0 for row in rows)

    @pytest.mark.parametrize(
        "argv",
        [
            # x1 = -2 is a power of two and 1e23 the double below 10**23,
            # where log10 gives 23; along x2 = 0 (a zero) to 40 the values
            # fall through normal values below the 1e-280 window, subnormal
            # values and zero
            ["--n1=2", "--range1=-2:1e23", "--n2=1001", "--range2=0:40"],
            # an exact 17-digit tie (..56.75) and a double half an ulp from
            # 18014398509481990, the edge of its rounding interval; 1e-300
            # lies below the window
            ["--n1=2", "--range1=1234567890123456.75:18014398509481988", "--n2=2", "--range2=1e-300:1"],
        ],
        ids=["tails", "ties"],
    )
    def test_wigner_fallback_values_match_reference(self, argv, capsys):
        # every kind of value Python formats instead of the vectorized route,
        # as cmd_wigner meets it; no non-finite value comes out of cmd_wigner
        # (test_non_finite_and_numpy_cells has those)
        rows = self._check_wigner(["wigner", "--alpha=0.35"] + argv, capsys)
        cells = np.abs(np.array(rows))
        tiny = np.finfo(float).tiny
        assert (cells == 0.0).any()
        assert ((cells > 0.0) & (cells < 1e-280)).any()
        if "--range2=0:40" in argv:
            assert ((cells > 0.0) & (cells < tiny)).any() and ((cells >= tiny) & (cells < 1e-280)).any()

    @staticmethod
    def _traced_peak(argv) -> int:
        # the second run, so that the first one's caches are not counted
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt, bound_mib", [("csv", 8), ("json", 10)])
    def test_peak_memory_of_a_401_grid(self, fmt, bound_mib, tmp_path, capsys):
        # a table is evaluated, formatted and written a block of 8192 rows
        # at a time, and no copy of the whole text is held: the values,
        # float texts and byte matrix of one block. Measured 4.3 and
        # 5.3 MiB; the whole-document writer took 19.1 and 27.0 MiB, the
        # per-row templates 39.1 and 40.7 MiB
        argv = ["wigner", "--alpha=0.35", "--n1=401", "--n2=401", f"--format={fmt}", f"--out={tmp_path / 'w'}"]
        assert self._traced_peak(argv) <= bound_mib * 2**20

    def test_peak_memory_does_not_grow_with_the_rows(self, tmp_path, capsys):
        # 1001 rows against 401 of the same length: the same blocks, more
        # of them (measured 4.31 against 4.30 MiB; the whole-document
        # writer took 49.5 against 19.1 MiB)
        argv = ["wigner", "--alpha=0.35", "--n2=401", f"--out={tmp_path / 'w'}"]
        square = self._traced_peak(argv + ["--n1=401"])
        tall = self._traced_peak(argv + ["--n1=1001"])
        assert tall <= square + 2**20

    def test_sweep_matches_reference(self, capsys):
        argv = ["sweep", "--alphas=0.05,0.3,0.6,0.97", "--a=0.7", "--b=1.9", "--hbar=1.1"]
        code, out, _ = run(argv + ["--format=json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert {type(cell) for cell in payload["rows"][0]} == {int, float, str}
        for fmt in ("csv", "json"):
            code, out, _ = run(argv + [f"--format={fmt}"], capsys)
            assert code == 0
            assert out == _reference_table(payload["params"], payload["columns"], payload["rows"], fmt)

    def test_non_finite_and_numpy_cells(self):
        params = {"command": "test"}
        column = [float("nan"), float("inf"), -float("inf"), np.float64(0.1), -0.0, 1e-300]
        columns = [list(range(len(column))), column, ["a", "b\"", "c", "d", "e", "f"]]
        rows = [list(row) for row in zip(*columns)]
        for fmt in ("csv", "json"):
            text = _direct_table(params, ["i", "v", "s"], rows, fmt)
            assert text == _reference_table(params, ["i", "v", "s"], rows, fmt)

    @pytest.mark.parametrize("finite", [True, False])
    def test_grid_templates_with_extreme_values(self, finite):
        # values the evaluator never yields; np.float64 cells among Python
        # floats, as coordinate and as value
        cells = [[-0.0, 1e-300, 5e-324], [np.float64(0.1), -2.5e300, 1.0]]
        if not finite:
            cells = [[-0.0, float("nan"), 5e-324], [np.float64(0.1), float("inf"), -float("inf")]]
        grid1, grid2 = [np.float64(0.1), -0.0], [1e-300, 5e-324, -7.25]
        rows = [[v1, v2, cells[i][j]] for i, v1 in enumerate(grid1) for j, v2 in enumerate(grid2)]
        params = {"command": "test", "n": 2}
        # the columns cmd_wigner passes: each grid along its own axis
        columns = [np.array(grid1)[:, None], np.array(grid2)[None, :], cells]
        for fmt in ("csv", "json"):
            text = _emitted(params, ["x1", "x2", "wigner"], columns, fmt)
            assert text == _reference_table(params, ["x1", "x2", "wigner"], rows, fmt)

    def test_one_spectrum_per_sweep_row(self, capsys, monkeypatch):
        calls = []
        symplectic_spectrum = phase_space.symplectic_spectrum

        def counting(cov):
            calls.append(cov)
            return symplectic_spectrum(cov)

        monkeypatch.setattr(phase_space, "symplectic_spectrum", counting)
        alphas = [0.05, 0.3, 0.6, 0.97, 0.999]
        code, _, _ = run(["sweep", "--alphas=" + ",".join(map(str, alphas))], capsys)
        assert code == 0
        assert len(calls) == 2 * len(alphas)

    @pytest.mark.parametrize("n1, n2", [(7, 4), (300, 64), (3, 9000)])
    def test_one_evaluator_call_per_block(self, n1, n2, capsys, monkeypatch):
        # per block of whole rows, never per point: with axes p2, x1 the
        # p2 coordinates of the calls, in order, are the grid's rows once
        calls = []
        wigner_gaussian = phase_space.wigner_gaussian

        def counting(*args, **kwargs):
            cov, evaluator = wigner_gaussian(*args, **kwargs)

            def counted(*coords):
                calls.append((np.broadcast(*coords).shape, coords[3]))
                return evaluator(*coords)

            return cov, counted

        monkeypatch.setattr(phase_space, "wigner_gaussian", counting)
        argv = ["wigner", "--alpha=0.5", f"--n1={n1}", f"--n2={n2}", "--axes=p2,x1", "--range1=-2:2"]
        code, _, _ = run(argv, capsys)
        assert code == 0
        step = max(1, cli._BLOCK_ROWS // n2)
        assert [shape for shape, _ in calls] == [(min(step, n1 - start), n2) for start in range(0, n1, step)]
        rows = np.concatenate([p2.ravel() for _, p2 in calls])
        np.testing.assert_array_equal(rows, np.linspace(-2, 2, n1))

    @staticmethod
    def _check_wigner(argv, capsys) -> list:
        code, out, _ = run(argv + ["--format=json"], capsys)
        assert code == 0
        params = json.loads(out)["params"]
        rows = _reference_wigner_rows(params)
        assert len(rows) == params["n1"] * params["n2"]
        for fmt in ("csv", "json"):
            code, out, _ = run(argv + [f"--format={fmt}"], capsys)
            assert code == 0
            assert out == _reference_table(params, [params["axis1"], params["axis2"], "wigner"], rows, fmt)
        return rows
