"""Command-line surface: table schemas, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

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

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CVSQUEEZE_HBAR", "2.0")
        code, out, _ = run(["sweep", "--alphas", "0.5"], capsys)
        assert code == 0
        assert "# hbar = 2" in out
        # lambda entries scale with hbar
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        mode2 = [r for r in rows if r[0] == "2"][0]
        assert float(mode2[3]) == pytest.approx(2.0 * 0.5 / 2, rel=1e-12)


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

    def test_rejects_bad_axes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["wigner", "--alpha", "0.5", "--axes", "x1,q9"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--fix", "x1=0.5"], ["--axes", "x1,x1"], ["--n1", "1"]],
        ids=["fix-of-varied-axis", "repeated-axis", "one-point-grid"],
    )
    def test_usage_errors_print_the_wigner_usage(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["wigner", "--alpha", "0.5", *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cvsqueeze wigner")

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


class TestParserReuse:
    """main keeps one parser per set of CVSQUEEZE_* values."""

    def test_environment_read_per_call(self, capsys, monkeypatch):
        monkeypatch.setenv("CVSQUEEZE_HBAR", "2")
        code, out, _ = run(["sweep", "--alphas=0.5"], capsys)
        assert code == 0 and "# hbar = 2\n" in out
        monkeypatch.delenv("CVSQUEEZE_HBAR")
        code, out, _ = run(["sweep", "--alphas=0.5"], capsys)
        assert code == 0 and "# hbar = 1\n" in out
        monkeypatch.setenv("CVSQUEEZE_HBAR", "-1")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--alphas=0.5"])
        assert excinfo.value.code == 2
        assert "--hbar" in capsys.readouterr().err

    def test_one_parser_per_environment(self, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        monkeypatch.delenv("CVSQUEEZE_FORMAT", raising=False)
        cli._parser.cache_clear()
        for argv in (["sweep", "--alphas=0.5"], ["wigner", "--alpha=0.5", "--n1=2", "--n2=2"]):
            assert run(argv, capsys)[0] == 0
        assert len(built) == 1
        monkeypatch.setenv("CVSQUEEZE_FORMAT", "json")
        code, out, _ = run(["sweep", "--alphas=0.5"], capsys)
        assert code == 0 and json.loads(out)["params"]["command"] == "sweep"
        assert len(built) == 2
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

    def test_csv_format_from_environment_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CVSQUEEZE_FORMAT", "csv")
        with pytest.raises(SystemExit) as excinfo:
            main(["hamiltonian", "--alpha=0.5", "--trunc=8"])
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
        "name, value",
        [("ORDER", "abc"), ("ORDER", "-5"), ("TRUNC", "0"), ("TOL", "-1"), ("HBAR", "inf"), ("MASS", "x")],
    )
    def test_bad_environment_default_exits_2(self, name, value, capsys, monkeypatch):
        monkeypatch.setenv(f"CVSQUEEZE_{name}", value)
        # each environment value is read by the command that takes its flag
        argv = ["sweep", "--alphas=0.5"] if name == "HBAR" else ["hamiltonian", "--alpha=0.5"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"--{name.lower()}" in capsys.readouterr().err

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


def _direct_table(params: dict, columns: list, rows: list, fmt: str) -> str:
    """The table writer fed directly: one template per row, each float cell
    a value slot."""
    opening, sep, closing, _, slot = cli._LAYOUT[fmt]
    templates = [
        opening + sep.join(slot if isinstance(cell, float) else cli._cell(cell, fmt) for cell in row) + closing
        for row in rows
    ]
    values = [[cell for cell in row if isinstance(cell, float)] for row in rows]
    return cli._emit_table(params, columns, templates, values, fmt)


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
        # the templates cmd_wigner builds, several table rows each, filled
        # with values the evaluator never yields; np.float64 cells among
        # Python floats, as coordinate and as value
        cells = [[-0.0, 1e-300, 5e-324], [np.float64(0.1), -2.5e300, 1.0]]
        if not finite:
            cells = [[-0.0, float("nan"), 5e-324], [np.float64(0.1), float("inf"), -float("inf")]]
        grid1, grid2 = [np.float64(0.1), -0.0], [1e-300, 5e-324, -7.25]
        rows = [[v1, v2, cells[i][j]] for i, v1 in enumerate(grid1) for j, v2 in enumerate(grid2)]
        params = {"command": "test", "n": 2}
        for fmt in ("csv", "json"):
            opening, sep, closing, newline, slot = cli._LAYOUT[fmt]
            tails = [sep + cli._cell(v, fmt) + sep + slot + closing for v in grid2]
            heads = [opening + cli._cell(v, fmt) for v in grid1]
            templates = [head + (newline + head).join(tails) for head in heads]
            text = cli._emit_table(params, ["x1", "x2", "wigner"], templates, cells, fmt)
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

    def test_one_evaluator_call_per_table(self, capsys, monkeypatch):
        shapes = []
        wigner_gaussian = phase_space.wigner_gaussian

        def counting(*args, **kwargs):
            cov, evaluator = wigner_gaussian(*args, **kwargs)

            def counted(*coords):
                shapes.append(np.broadcast(*coords).shape)
                return evaluator(*coords)

            return cov, counted

        monkeypatch.setattr(phase_space, "wigner_gaussian", counting)
        code, _, _ = run(["wigner", "--alpha=0.5", "--n1=7", "--n2=4", "--axes=p2,x1"], capsys)
        assert code == 0
        assert shapes == [(7, 4)]

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
