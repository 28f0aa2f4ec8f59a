import json

import numpy as np
import pytest

from screenwave.cli import (EXIT_CHECK_FAIL, EXIT_CONFIG, EXIT_PASS, Emitter,
                            run)


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


SOLVE_CFG = {
    "command": "solve",
    "screen": {"n": 2, "boxes": [[0, 1]]},
    "k": 5.0,
    "h": 1.0 / 32.0,
    "incident": {"kind": "plane_wave", "directions": [[0.0, -1.0]]},
    "problem": "S",
    "tol": 1e-9,
    "seed": 0,
}


class TestRun:
    def test_solve_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, "solve.json", SOLVE_CFG)
        out = tmp_path / "out"
        assert run(cfg, out_dir=str(out)) == EXIT_PASS
        for name in ("density.csv", "field.csv", "farfield.csv"):
            assert (out / name).exists()
            meta = json.loads((out / (name + ".meta.json")).read_text())
            assert meta["version"]
            assert len(meta["config_sha256"]) == 64
        rows = (out / "density.csv").read_text().strip().split("\n")
        assert rows[0] == "dof,x,c_re,c_im"
        assert len(rows) == 33

    def test_overlap_names_make_screen(self, tmp_path, capsys):
        cfg = dict(SOLVE_CFG)
        cfg["screen"] = {"n": 2, "boxes": [[0, 1], [0.5, 2]]}
        path = write_config(tmp_path, "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path / "o")) == EXIT_CONFIG
        assert "make_screen" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(SOLVE_CFG)
        cfg["mystery_knob"] = 7
        path = write_config(tmp_path, "bad2.json", cfg)
        assert run(path, out_dir=str(tmp_path / "o")) == EXIT_CONFIG

    def test_command_mismatch(self, tmp_path):
        path = write_config(tmp_path, "solve.json", SOLVE_CFG)
        assert run(path, out_dir=str(tmp_path / "o"),
                   command="aperture") == EXIT_CONFIG

    def test_coercivity_threshold_failure_exits_2(self, tmp_path):
        cfg = {
            "command": "coercivity",
            "screen": {"n": 2, "boxes": [[0, 1]]},
            "k": 5.0,
            "h": 1.0 / 8.0,
            "operator": "S",
            "samples": 64,
            "seed": 0,
            "threshold": 0.9,     # unattainable: quotients sit near 1/(2 sqrt 2)
        }
        path = write_config(tmp_path, "co.json", cfg)
        assert run(path, out_dir=str(tmp_path / "o")) == EXIT_CHECK_FAIL

    def test_coercivity_default_threshold_passes(self, tmp_path):
        cfg = {
            "command": "coercivity",
            "screen": {"n": 2, "boxes": [[0, 1]]},
            "k": 5.0,
            "h": 1.0 / 8.0,
            "operator": "S",
            "samples": 64,
            "seed": 0,
        }
        path = write_config(tmp_path, "co.json", cfg)
        assert run(path, out_dir=str(tmp_path / "o")) == EXIT_PASS

    def test_nullity_command(self, tmp_path):
        cfg = {
            "command": "nullity",
            "set": {"kind": "cantor_limit_set", "n": 2, "ratio": 1.0 / 3.0},
            "s_grid": [-1.0, -0.1, 0.5],
        }
        path = write_config(tmp_path, "nul.json", cfg)
        out = tmp_path / "o"
        assert run(path, out_dir=str(out)) == EXIT_PASS
        rows = (out / "verdicts.csv").read_text().strip().split("\n")
        assert rows[1].split(",")[1] == "not-null"
        assert rows[2].split(",")[1] == "null"

    @pytest.mark.parametrize("command, problem", [
        ("solve", "S"), ("solve", "T"), ("aperture", "H"), ("aperture", "I")])
    def test_field_commands_end_to_end(self, tmp_path, command, problem):
        path = write_config(tmp_path, "run.json",
                            dict(SOLVE_CFG, command=command, problem=problem))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(path, out_dir=str(out1)) == EXIT_PASS
        assert run(path, out_dir=str(out2)) == EXIT_PASS
        headers = {"density.csv": "dof,x,c_re,c_im"}
        if command == "solve":
            headers["field.csv"] = "x0,x1,u_re,u_im"
            headers["farfield.csv"] = "d0,d1,uinf_re,uinf_im"
        else:
            headers["field.csv"] = "x0,x1,u_re,u_im,u_mirror_re,u_mirror_im"
        written = sorted(p.name for p in out1.iterdir())
        assert written == sorted([*headers, *(n + ".meta.json" for n in headers)])
        for name, header in headers.items():
            assert (out1 / name).read_text().split("\n")[0] == header
        for name in written:   # seeded runs are byte-identical
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("command, problem", [
        ("solve", "H"), ("solve", "I"), ("aperture", "S"), ("aperture", "T")])
    def test_problem_outside_command_rejected(self, tmp_path, capsys, command,
                                              problem):
        path = write_config(tmp_path, "bad.json",
                            dict(SOLVE_CFG, command=command, problem=problem))
        out = tmp_path / "o"
        assert run(path, out_dir=str(out)) == EXIT_CONFIG
        solved = "S or T" if command == "solve" else "H or I"
        assert f"{command} solves problem {solved}" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_aperture_superposes_every_plane_wave(self, tmp_path):
        def density(name, incident):
            cfg = dict(SOLVE_CFG, command="aperture", problem="H",
                       incident=dict(kind="plane_wave", **incident))
            out = tmp_path / name
            assert run(write_config(tmp_path, name + ".json", cfg),
                       out_dir=str(out)) == EXIT_PASS
            cols = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
            return cols[:, 2] + 1j * cols[:, 3]

        d1, d2 = [0.6, -0.8], [0.0, -1.0]
        both = density("both", {"directions": [d1, d2], "amplitudes": [3, 1]})
        expected = 3 * density("one", {"directions": [d1]}) \
            + density("two", {"directions": [d2]})
        assert np.abs(both - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("incident", [
        {"directions": [[0.6, -0.8], [0.0, -1.0]]},
        {"directions": [[0.0, -1.0]], "amplitudes": [2.0]}])
    def test_prefractal_refuses_superpositions(self, tmp_path, capsys, incident):
        cfg = {"command": "prefractal", "screen": {"n": 2}, "k": 4.0,
               "levels": [0, 1], "incident": incident}
        out = tmp_path / "o"
        assert run(write_config(tmp_path, "pf.json", cfg),
                   out_dir=str(out)) == EXIT_CONFIG
        assert "prefractal takes one incident plane wave" \
            in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


class TestEmitter:
    def test_header_only_for_empty_sweep(self, tmp_path):
        em = Emitter(tmp_path, "deadbeef")
        p = em.emit("empty.csv", ["a", "b"], [])
        assert p.read_text() == "a,b\n"

    def test_float_round_trip(self, tmp_path):
        em = Emitter(tmp_path, "deadbeef")
        vals = [np.pi, 1.0 / 3.0, 6.02214076e23]
        p = em.emit("vals.csv", ["x"], [(v,) for v in vals])
        back = [float(line) for line in p.read_text().strip().split("\n")[1:]]
        assert back == vals

    def test_density_row_count(self, tmp_path):
        cfg = write_config(tmp_path, "solve.json", SOLVE_CFG)
        out = tmp_path / "rows"
        run(cfg, out_dir=str(out))
        rows = (out / "density.csv").read_text().strip().split("\n")
        assert len(rows) - 1 == 32


class TestMain:
    def test_console_entry(self, tmp_path, capsys):
        from screenwave.cli import main

        path = write_config(tmp_path, "solve.json", SOLVE_CFG)
        code = main(["solve", "--config", path, "--out", str(tmp_path / "m")])
        assert code == EXIT_PASS
        assert "solve[S]" in capsys.readouterr().out
