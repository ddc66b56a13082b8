import csv
import dataclasses
import json

import numpy as np
import pytest

from floqlab import lattice, quench, topology
from floqlab.cli import main, parse_angle
from floqlab.model import Frame


def run(args, tmp_path, extra=()):
    return main([*args, "-o", str(tmp_path), *extra])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        comment = fh.readline()
        assert comment.startswith("# format=1 config_hash=")
        return list(csv.DictReader(fh))


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.5pi", 0.5 * np.pi),
            ("pi", np.pi),
            ("-0.5pi", -0.5 * np.pi),
            ("2.5PI", 2.5 * np.pi),
            ("1.5", 1.5),
            ("0", 0.0),
        ],
    )
    def test_values(self, text, value):
        assert parse_angle(text) == pytest.approx(value)


class TestQuenchCommand:
    def test_case1_report(self, tmp_path):
        rc = run(["quench", "--tx", "0.5pi", "--ty", "0.5pi", "--steps", "60"],
                 tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "bis_report.json").read_text())
        assert report["nu0"] == 1 and report["nu_pi"] == 0
        assert report["frames"]["sym1"]["nu"] == 1
        assert report["frames"]["sym2"]["nu"] == 1
        assert report["meta"]["format"] == 1
        rows = read_csv(tmp_path / "quench_sym1.csv")
        assert len(rows) == 512
        assert set(rows[0]) == {"k", "sigma_x_avg", "sigma_y_avg", "stderr_x", "stderr_y"}

    def test_case2_report(self, tmp_path):
        rc = run(["quench", "--tx", "2.5pi", "--ty", "0.5pi"], tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "bis_report.json").read_text())
        assert (report["nu0"], report["nu_pi"]) == (3, -2)
        assert len(report["frames"]["sym2"]["bis"]) == 10

    def test_shots_stderr_column(self, tmp_path):
        rc = run(["quench", "--tx", "0.5pi", "--ty", "0.5pi", "--steps", "10",
                  "--shots", "1000000", "--seed", "1"], tmp_path)
        assert rc == 0
        rows = read_csv(tmp_path / "quench_sym2.csv")
        errs = [float(r["stderr_x"]) for r in rows]
        assert max(errs) <= 0.002
        assert max(errs) > 0.0

    def test_no_bis_exit_code(self, tmp_path, capsys, monkeypatch):
        # every gapped drive here has inversions at 0 and pi, so detection
        # failure is forced to exercise the diagnostic path
        import floqlab.cli as cli_mod
        from floqlab.errors import NoBisError

        def boom(trace, floor_tol=None):
            raise NoBisError("no BIS found: forced for the diagnostic test")

        monkeypatch.setattr(cli_mod, "bis_report", boom)
        rc = run(["quench", "--tx", "0.5pi", "--ty", "0.5pi"], tmp_path)
        assert rc == 2
        diag = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert diag["error"] == "no BIS found"
        assert diag["frame"] == "sym1"

    def test_single_frame(self, tmp_path):
        rc = run(["quench", "--tx", "0.5pi", "--ty", "0.5pi", "--frame", "sym2"],
                 tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "bis_report.json").read_text())
        assert "nu0" not in report
        assert report["frames"]["sym2"]["nu"] == 1
        assert not (tmp_path / "quench_sym1.csv").exists()

    def test_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = run(["quench", "--tx", "2.5pi", "--ty", "0.5pi", "--steps", "10",
                      "--shots", "20000", "--seed", "7"], out)
            assert rc == 0
        assert (a / "quench_sym1.csv").read_bytes() == (b / "quench_sym1.csv").read_bytes()
        ja = json.loads((a / "bis_report.json").read_text())
        jb = json.loads((b / "bis_report.json").read_text())
        ja["meta"].pop("created"), jb["meta"].pop("created")
        assert ja == jb


class TestPhaseDiagramCommand:
    def test_single_cell_case2(self, tmp_path):
        rc = run(["phase-diagram", "--tx-min", "2.5pi", "--tx-max", "2.5pi",
                  "--ty-min", "0.5pi", "--ty-max", "0.5pi", "--cells", "1",
                  "--resolution", "512"], tmp_path)
        assert rc == 0
        rows = read_csv(tmp_path / "phase_diagram.csv")
        assert len(rows) == 1
        assert (int(rows[0]["nu0"]), int(rows[0]["nu_pi"])) == (3, -2)
        assert rows[0]["boundary_flag"] == "0"
        summary = json.loads((tmp_path / "phase_diagram.json").read_text())
        assert summary["phase_counts"] == {"(3,-2)": 1}

    def test_boundary_cell_blank_invariants(self, tmp_path):
        rc = run(["phase-diagram", "--tx-min", "pi", "--tx-max", "pi",
                  "--ty-min", "0.3", "--ty-max", "0.3", "--cells", "1",
                  "--resolution", "512"], tmp_path)
        assert rc == 0
        rows = read_csv(tmp_path / "phase_diagram.csv")
        assert rows[0]["boundary_flag"] == "1"
        assert rows[0]["nu0"] == ""

    def test_small_grid_contains_case1(self, tmp_path):
        rc = run(["phase-diagram", "--tx-min", "0.4pi", "--tx-max", "0.6pi",
                  "--ty-min", "0.4pi", "--ty-max", "0.6pi", "--cells", "2",
                  "--resolution", "512"], tmp_path)
        assert rc == 0
        rows = read_csv(tmp_path / "phase_diagram.csv")
        assert len(rows) == 4
        assert all((int(r["nu0"]), int(r["nu_pi"])) == (1, 0) for r in rows)

    def test_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(["phase-diagram", "--cells", "3", "--resolution", "512"], out) == 0
        assert (a / "phase_diagram.csv").read_bytes() == (b / "phase_diagram.csv").read_bytes()


class TestEdgesAndSpectrumCommands:
    def test_edges_case1(self, tmp_path):
        rc = run(["edges", "--tx", "0.5pi", "--ty", "0.5pi", "--length", "40"],
                 tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "edges.json").read_text())
        assert (report["n_zero"], report["n_pi"]) == (2, 0)
        rows = read_csv(tmp_path / "spectrum_sym1.csv")
        assert len(rows) == 80

    def test_edges_case2(self, tmp_path):
        rc = run(["edges", "--tx", "2.5pi", "--ty", "0.5pi", "--length", "60"],
                 tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "edges.json").read_text())
        assert (report["n_zero"], report["n_pi"]) == (6, 4)

    def test_edges_builds_one_operator(self, tmp_path, monkeypatch):
        built = []
        build = lattice.real_space_floquet

        def counting_build(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(lattice, "real_space_floquet", counting_build)
        rc = run(["edges", "--tx", "2.5pi", "--ty", "0.5pi", "--length", "40"],
                 tmp_path)
        assert rc == 0
        assert len(built) == 1
        assert json.loads((tmp_path / "edges.json").read_text())["edge_cells"] == 4

    @pytest.mark.parametrize("frame", ["sym1", "sym2"])
    def test_edges_writes_the_open_spectrum(self, tmp_path, frame):
        point = ["--tx", "2.5pi", "--ty", "0.5pi", "--frame", frame, "--length", "40",
                 "--edge-cells", "3"]
        assert run(["edges", *point], tmp_path / "edges") == 0
        assert run(["spectrum", *point, "--boundary", "open"], tmp_path / "spectrum") == 0
        # the hash lines differ with the command; every row after them must not
        edges_rows, spectrum_rows = (
            (tmp_path / out / f"spectrum_{frame}.csv").read_bytes().split(b"\n", 1)[1]
            for out in ("edges", "spectrum")
        )
        assert edges_rows == spectrum_rows
        assert json.loads((tmp_path / "edges" / "edges.json").read_text())["edge_cells"] == 3

    def test_edges_small_gap_errors(self, tmp_path, capsys):
        rc = run(["edges", "--tx", "pi", "--ty", "0.5pi", "--length", "20"],
                 tmp_path)
        assert rc == 1
        assert "bulk gap too small" in capsys.readouterr().err

    def test_spectrum_periodic(self, tmp_path):
        rc = run(["spectrum", "--tx", "0.5pi", "--ty", "0.5pi", "--length", "16",
                  "--boundary", "periodic"], tmp_path)
        assert rc == 0
        rows = read_csv(tmp_path / "spectrum_sym1.csv")
        assert len(rows) == 32
        phases = np.array([float(r["phase"]) for r in rows])
        assert np.all(np.abs(phases) <= np.pi + 1e-12)


class TestPulsesCommand:
    def test_thirty_pulses(self, tmp_path):
        rc = run(["pulses", "--tx", "0.5pi", "--ty", "0.5pi", "--k", "0.25pi",
                  "--frame", "sym1", "--periods", "10", "--omega-ref", "1e6"],
                 tmp_path)
        assert rc == 0
        sched = json.loads((tmp_path / "schedule.json").read_text())
        assert len(sched["pulses"]) == 30
        assert sched["omega_ref_hz"] == 1e6

    def test_verify_flag(self, tmp_path, capsys):
        rc = run(["pulses", "--tx", "0.5pi", "--ty", "0.5pi", "--k", "0.25pi",
                  "--periods", "5", "--omega-ref", "1e6", "--verify"], tmp_path)
        assert rc == 0
        sched = json.loads((tmp_path / "schedule.json").read_text())
        assert sched["verify_distance"] < 1e-10

    def test_x_pulses_elided_where_theta_x_vanishes(self, tmp_path):
        rc = run(["pulses", "--tx", "0.5pi", "--ty", "0.5pi", "--k", "0.5pi",
                  "--frame", "sym2", "--periods", "2", "--omega-ref", "1e6"],
                 tmp_path)
        assert rc == 0
        sched = json.loads((tmp_path / "schedule.json").read_text())
        phases = {p["phase_deg"] for p in sched["pulses"]}
        assert phases <= {90, 270}  # only y-axis pulses remain


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quench": {"steps": 10, "grid": 256}}))
        out = tmp_path / "o"
        rc = main(["quench", "--tx", "0.5pi", "--ty", "0.5pi", "--grid", "128",
                   "--config", str(cfg), "-o", str(out)])
        assert rc == 0
        report = json.loads((out / "bis_report.json").read_text())
        assert report["config"]["steps"] == 10      # from the config file
        assert report["config"]["grid"] == 128      # explicit flag wins

    def test_config_string_value_gets_the_flag_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pulses": {"periods": "3"}}))
        rc = main(["pulses", "--tx", "0.5pi", "--ty", "0.5pi", "--k", "0.25pi",
                   "--omega-ref", "1e6", "--config", str(cfg), "-o", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "schedule.json").read_text())["config"]["periods"] == 3

    def test_explicit_output_dir_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pulses": {"output_dir": str(tmp_path / "cfg_out")}}))
        out = tmp_path / "o"
        rc = main(["pulses", "--tx", "0.5pi", "--ty", "0.5pi", "--k", "0.25pi",
                   "--omega-ref", "1e6", "--config", str(cfg), "-o", str(out)])
        assert rc == 0
        assert (out / "schedule.json").exists()
        assert not (tmp_path / "cfg_out").exists()

    @pytest.mark.parametrize(
        "block",
        [{"steps": "many"}, {"steps": 2.5}, {"frame": "sym3"}, {"shots": [1]}],
    )
    def test_rejected_config_value_prints_usage(self, tmp_path, capsys, block):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quench": block}))
        with pytest.raises(SystemExit) as exc:
            main(["quench", "--tx", "0.5pi", "--ty", "0.5pi",
                  "--config", str(cfg), "-o", str(tmp_path)])
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err


class TestParityChecks:
    # a correct drive cannot fail these checks, so each failure is forced
    def assert_one_error_line(self, rc, capsys, text):
        assert rc == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and text in errors[0]

    def test_frame_windings_of_unequal_parity(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(topology, "winding_number",
                            lambda params, frame: 1 if frame is Frame.SYM1 else 0)
        rc = run(["phase-diagram", "--tx-min", "0.5pi", "--tx-max", "0.5pi",
                  "--ty-min", "0.5pi", "--ty-max", "0.5pi", "--cells", "1"], tmp_path)
        self.assert_one_error_line(rc, capsys, "parity violation")

    def test_unpaired_inversion_point(self, tmp_path, capsys, monkeypatch):
        real, calls = quench.slope_at_bis, []

        def first_slope_flat(trace, k_bis):
            calls.append(k_bis)
            slope = real(trace, k_bis)
            return dataclasses.replace(slope, g=0) if len(calls) == 1 else slope

        monkeypatch.setattr(quench, "slope_at_bis", first_slope_flat)
        rc = run(["quench", "--tx", "0.5pi", "--ty", "0.5pi"], tmp_path)
        self.assert_one_error_line(rc, capsys, "unpaired inversion points")


class TestConfigHash:
    # taken with every other flag at its default; a moved default or a
    # dropped config key changes the hash (sha256 of canonical JSON)
    @pytest.mark.parametrize(
        "args,expected",
        [
            (["phase-diagram", "--cells", "2"], "9b71ab72a7b16744"),
            (["quench", "--tx", "0.5pi", "--ty", "0.5pi"], "ebedc58476487060"),
            (["spectrum", "--tx", "0.5pi", "--ty", "0.5pi"], "b787c9345495f581"),
            (["edges", "--tx", "0.5pi", "--ty", "0.5pi"], "48f00952a1d43189"),
            (["pulses", "--tx", "0.5pi", "--ty", "0.5pi", "--k", "0.25pi",
              "--omega-ref", "1e6", "--verify"], "192f086a284e5c85"),
        ],
        ids=["phase-diagram", "quench", "spectrum", "edges", "pulses"],
    )
    def test_defaults_keep_their_hash(self, tmp_path, args, expected):
        assert run(args, tmp_path) == 0
        hashes = set()
        for path in tmp_path.iterdir():
            if path.suffix == ".json":
                hashes.add(json.loads(path.read_text())["meta"]["config_hash"])
            else:
                hashes.add(path.read_text().splitlines()[0].split("config_hash=")[1])
        assert hashes == {expected}


class TestBadInput:
    # `flag` is the option the parser names; None where the command itself
    # rejects the value
    @pytest.mark.parametrize(
        "args,flag",
        [
            (["phase-diagram", "--cells", "0"], "--cells"),
            (["quench", "--tx", "0.5pi", "--ty", "0.5pi", "--steps", "0"], "--steps"),
            (["edges", "--tx", "0.5pi", "--ty", "0.5pi", "--length", "3"], "--length"),
            (["spectrum", "--tx", "0.5pi", "--ty", "0.5pi", "--length", "2"], "--length"),
            (["pulses", "--tx", "0.5pi", "--ty", "0.5pi", "--k", "0.25pi",
              "--omega-ref", "0"], "--omega-ref"),
            (["quench", "--tx", "nan", "--ty", "0.5pi"], "--tx"),
            (["quench", "--tx", "0.5pi", "--ty", "-infpi"], "--ty"),
            (["quench", "--tx", "0.5pi", "--ty", "0.5pi", "--grid", "0"], "--grid"),
            (["quench", "--tx", "0.5pi", "--ty", "0.5pi", "--grid", "-4"], "--grid"),
            (["quench", "--tx", "0.5pi", "--ty", "0.5pi", "--floor-tol", "nan"],
             "--floor-tol"),
            (["phase-diagram", "--resolution", "0"], "--resolution"),
            (["phase-diagram", "--boundary-tol", "nan"], "--boundary-tol"),
            (["edges", "--tx", "0.5pi", "--ty", "0.5pi", "--e-tol", "-1"], "--e-tol"),
            (["edges", "--tx", "0.5pi", "--ty", "0.5pi", "--weight-tol", "inf"],
             "--weight-tol"),
            (["pulses", "--tx", "0.5pi", "--ty", "0.5pi", "--k", "0.25pi",
              "--omega-ref", "nan"], "--omega-ref"),
            (["spectrum", "--tx", "0.5pi", "--ty", "0.5pi", "--edge-cells", "0"],
             "--edge-cells"),
            (["spectrum", "--tx", "0.5pi", "--ty", "0.5pi", "--edge-cells", "-1"],
             "--edge-cells"),
            (["spectrum", "--tx", "0.5pi", "--ty", "0.5pi", "--length", "40",
              "--edge-cells", "21"], None),
            (["quench", "--tx", "0.5pi", "--ty", "0.5pi", "--shots", "10",
              "--seed", "-1"], "--seed"),
            (["quench", "--tx", "0.5pi", "--ty", "0.5pi", "--shots", "0"], "--shots"),
            (["pulses", "--tx", "0.5pi", "--ty", "0.5pi", "--k", "0.25pi",
              "--omega-ref", "1e6", "--periods", "0"], "--periods"),
            (["edges", "--tx", "2.5pi", "--ty", "0.5pi", "--weight-tol", "1"],
             "--weight-tol"),
            (["edges", "--tx", "2.5pi", "--ty", "0.5pi", "--weight-tol", "2"],
             "--weight-tol"),
        ],
        ids=["cells", "steps", "edges-length", "spectrum-length", "omega-ref",
             "nan-angle", "inf-angle", "grid-zero", "grid-negative", "floor-tol-nan",
             "resolution-zero", "boundary-tol-nan", "e-tol-negative", "weight-tol-inf",
             "omega-ref-nan", "edge-cells-zero", "edge-cells-negative",
             "edge-cells-beyond-half-chain", "seed-negative", "shots-zero",
             "periods-zero", "weight-tol-one", "weight-tol-two"],
    )
    def test_exits_1_with_message(self, tmp_path, capsys, args, flag):
        try:
            rc = run(args, tmp_path)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 1
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        if flag is not None:
            assert f"argument {flag}:" in err

    def test_missing_required_flag_exits_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["quench", "--tx", "0.5pi"], tmp_path)
        assert exc.value.code == 1
        assert "--ty" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
