import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plapstab import cli, cpcore, verify
from plapstab.cli import _report_text, build_parser, load_config, main, parse_domain_flag

from oracles import report_text_dumps

PI2 = math.pi**2


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_domain_flag_interval(self):
        assert parse_domain_flag("interval:0,1") == {"interval": [0.0, 1.0]}

    def test_domain_flag_polygon(self):
        spec = parse_domain_flag("polygon:0,0;1,0;1,1;0,1")
        assert spec == {"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]]}

    def test_domain_flag_garbage(self):
        with pytest.raises(ValueError):
            parse_domain_flag("disk:1")
        with pytest.raises(ValueError):
            parse_domain_flag("interval:0")

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": [2.0], "level": 3, "seed": 9}))
        parser = build_parser()
        args = parser.parse_args(["constants", "--config", str(cfg), "--p", "3"])
        config = load_config(args)
        assert config["p"] == [3.0]  # flag wins
        assert config["level"] == 3 and config["seed"] == 9  # file survives

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mystery": 1}))
        parser = build_parser()
        args = parser.parse_args(["constants", "--config", str(cfg)])
        with pytest.raises(ValueError):
            load_config(args)

    def test_level_range_enforced(self):
        parser = build_parser()
        args = parser.parse_args(["eigen", "--level", "9"])
        with pytest.raises(ValueError):
            load_config(args)


class TestExponentRule:
    """A flag, a config file and a library call reject the same p with the
    same message, that of cpcore._check_p."""

    @pytest.mark.parametrize("flag, value", [("1", 1), ("0.5", 0.5), ("-3", -3), ("nan", math.nan), ("inf", math.inf)])
    def test_flag_and_config_file_match_library(self, flag, value, tmp_path, capsys):
        with pytest.raises(ValueError) as lib:
            cpcore.pi_p(value)
        code, out, err = run_cli(["constants", "--p", f"2,{flag}", "--no-timestamp"], capsys)
        assert code == 1 and not out
        assert err == f"config error: {lib.value}\n"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": [2, value]}))
        code, out, err = run_cli(["constants", "--config", str(cfg), "--no-timestamp"], capsys)
        assert code == 1 and not out
        assert err == f"config error: {lib.value}\n"

    @pytest.mark.parametrize("p", ["2", True, None, ["2"], [True], [None], [[2]]])
    def test_config_file_exponent_must_be_a_number(self, p, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": p}))
        code, out, err = run_cli(["constants", "--config", str(cfg), "--no-timestamp"], capsys)
        assert code == 1 and not out
        bad = p[0] if isinstance(p, list) else p
        assert err == f"config error: every exponent must be a number, got {bad!r}\n"

    def test_config_file_scalar_exponent(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": 3}))
        code, out, _ = run_cli(["constants", "--config", str(cfg), "--no-timestamp"], capsys)
        assert code == 0 and [r["p"] for r in json.loads(out)["results"]] == [3]

    def test_config_file_huge_integer_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"p": [1' + "0" * 400 + "]}")
        code, out, err = run_cli(["constants", "--config", str(cfg), "--no-timestamp"], capsys)
        assert code == 1 and not out
        assert err.startswith("config error:") and "Traceback" not in err


class TestParserReuse:
    """main() builds its parser once per process; later calls must behave
    exactly as calls on a fresh parser."""

    SEQUENCE = [
        ["eigen", "--second", "--p", "2", "--level", "2", "--no-timestamp"],
        ["eigen", "--p", "2", "--level", "2", "--no-timestamp"],
        ["eigen", "--bogus"],
        ["-h"],
        ["gap", "--p", "2", "--level", "2", "--no-timestamp"],
    ]

    def test_reused_parser_matches_fresh_calls(self, capsys):
        reused = [run_cli(argv, capsys) for argv in self.SEQUENCE]
        fresh = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(run_cli(argv, capsys))
        assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0]
        assert reused == fresh
        assert "second" in json.loads(reused[0][1])["results"][0]
        assert "second" not in json.loads(reused[1][1])["results"][0]

    @pytest.mark.parametrize("command", ["constants", "eigen", "stability", "gap", "picone"])
    def test_subcommand_help(self, command, capsys):
        code, out, _ = run_cli([command, "-h"], capsys)
        assert code == 0
        assert out.startswith(f"usage: plapstab {command} [-h]")
        shown = [line.split()[0].rstrip(",") for line in out.splitlines()
                 if line.startswith("  -")]
        assert shown == ["-h", "--config", "--p", "--domain", "--measure", "--level", "--seed",
                         "--out", "--csv", "--no-timestamp", "--fields", "--samples", "--second",
                         "--mesh-out"]
        assert "inject" not in out


class TestCommands:
    def test_constants_p3_golden(self, capsys):
        code, out, _ = run_cli(["constants", "--p", "3", "--no-timestamp"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        entry = report["results"][0]
        assert abs(entry["c1"] - 0.5857864376269049) <= 1e-10
        assert abs(entry["pi_p"] - 3.0469919990461723) <= 1e-10
        assert entry["passed"]

    def test_constants_p1030(self, capsys):
        assert main(["constants", "--p", "1030", "--no-timestamp"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["results"]
        assert entry["passed"] and entry["r0"] > 1.0

    def test_constants_subnormal_c1(self, capsys):
        # c1 is subnormal from p = 1029 on and reads 0 from p = 1082 on
        ps = ",".join(str(p) for p in range(1026, 1111))
        assert main(["constants", "--p", ps, "--no-timestamp"]) == 0
        entries = json.loads(capsys.readouterr().out)["results"]
        assert len(entries) == 85 and all(e["passed"] for e in entries)

    def test_constants_moved_c1_fails(self, monkeypatch, capsys):
        # the k0-form check on logs still catches a c1 off by 1e-10 relative
        sharp = cli.cpcore.c1_sharp
        monkeypatch.setattr(cli.cpcore, "c1_sharp",
                            lambda p: dataclasses.replace(sharp(p), c1=sharp(p).c1 * (1.0 + 1e-10)))
        assert main(["constants", "--p", "500", "--no-timestamp"]) == 2
        (entry,) = json.loads(capsys.readouterr().out)["results"]
        assert not entry["passed"]

    def test_constants_huge_p(self, capsys):
        # the logs of c1 are about -0.69 p, and the two forms differ by their
        # rounding, 3e-11 at p = 2e5 and 1.2e-10 at p = 1e6
        assert main(["constants", "--p", "200000,1000000", "--no-timestamp"]) == 0
        entries = json.loads(capsys.readouterr().out)["results"]
        assert len(entries) == 2 and all(e["passed"] for e in entries)

    @pytest.mark.parametrize("p", ["200000", "1000000"])
    def test_constants_moved_k0_fails_at_huge_p(self, monkeypatch, p, capsys):
        # the k0 form moves by 2e-8 and 5e-7 where k0 moves by 1e-9 relative
        sharp = cli.cpcore.c1_sharp
        monkeypatch.setattr(cli.cpcore, "c1_sharp",
                            lambda p: dataclasses.replace(sharp(p), k0=sharp(p).k0 * (1.0 + 1e-9)))
        assert main(["constants", "--p", p, "--no-timestamp"]) == 2
        (entry,) = json.loads(capsys.readouterr().out)["results"]
        assert not entry["passed"]

    @pytest.mark.parametrize("shift", [1e-9, -1e-9])
    @pytest.mark.parametrize("p", ["2.5", "3", "10", "50", "500", "1030", "200000", "1000000"])
    def test_constants_moved_k0_fails(self, monkeypatch, p, shift, capsys):
        # the root equation's residual at k0 is first order in its error:
        # 4e-9 p and more for a 1e-9 relative move, against a tolerance of
        # 1e-13 p, where the k0 form of log c1 moves by the square of it
        sharp = cli.cpcore.c1_sharp
        monkeypatch.setattr(cli.cpcore, "c1_sharp",
                            lambda p: dataclasses.replace(sharp(p), k0=sharp(p).k0 * (1.0 + shift)))
        assert main(["constants", "--p", p, "--no-timestamp"]) == 2
        (entry,) = json.loads(capsys.readouterr().out)["results"]
        assert not entry["passed"]

    @pytest.mark.parametrize("ps", ["2,3", "1.0000001,200,1030", "1030,1050,1076,1080", "200000,1000000", "1.5,2,3,10"])
    def test_constants_true_k0_passes(self, ps, capsys):
        # the p of the console-script steps and of the benchmark's constants
        assert main(["constants", "--p", ps, "--no-timestamp"]) == 0
        entries = json.loads(capsys.readouterr().out)["results"]
        assert all(e["passed"] for e in entries)
        for e in entries:
            if e["p"] > 2.0:
                assert abs(cli.cpcore.c1_sharp(e["p"]).k0_residual()) <= 1e-13 * e["p"]

    @pytest.mark.parametrize("p", [247.0, 300.0])
    def test_constants_large_p_variational_above_c1(self, p, capsys):
        assert main(["constants", "--p", str(p), "--no-timestamp"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["results"]
        assert entry["passed"] and entry["c1_variational"] >= entry["c1"] * (1.0 - 1e-12)

    def test_variational_below_c1_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.cpcore, "c1_variational", lambda p: 0.0)
        assert main(["constants", "--p", "3", "--no-timestamp"]) == 2
        (entry,) = json.loads(capsys.readouterr().out)["results"]
        assert not entry["passed"]

    def test_picone_verdict_from_result(self, monkeypatch, capsys):
        real = verify.picone_check
        monkeypatch.setattr(verify, "picone_check",
                            lambda *a, **k: dataclasses.replace(real(*a, **k), passed=False))
        code, out, _ = run_cli(["picone", "--p", "2", "--level", "2", "--no-timestamp"], capsys)
        assert code == 2
        assert [r["passed"] for r in json.loads(out)["results"]] == [False]

    @pytest.mark.parametrize("argv", [
        ["stability", "--p", "2", "--level", "1", "--fields", "2", "--csv", "{missing}/x.csv"],
        ["constants", "--p", "2", "--out", "{missing}/r.json"],
        ["eigen", "--p", "2", "--level", "1", "--mesh-out", "{missing}/m.mesh"],
    ])
    def test_write_error_exits_1(self, argv, tmp_path, capsys):
        missing = tmp_path / "missing"
        code, out, err = run_cli([a.format(missing=missing) for a in argv] + ["--no-timestamp"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("run error: ") and err.count("\n") == 1
        assert not missing.exists()

    def test_failed_report_write_leaves_no_temp_file(self, tmp_path, capsys):
        # the report's path is a directory: the rename fails
        out_dir = tmp_path / "outdir"
        out_dir.mkdir()
        code, out, err = run_cli(["constants", "--p", "2", "--no-timestamp", "--out", str(out_dir)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("run error: ") and err.count("\n") == 1
        assert [f.name for f in tmp_path.iterdir()] == ["outdir"]
        assert not any(out_dir.iterdir())

    def test_write_error_no_traceback(self, tmp_path):
        argv = ["stability", "--p", "2", "--level", "1", "--fields", "2", "--csv", str(tmp_path / "missing" / "x.csv")]
        proc = subprocess.run([sys.executable, "-m", "plapstab.cli", *argv], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("run error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_arithmetic_error_exits_1(self, monkeypatch, capsys):
        def overflow(config):
            raise OverflowError("math range error")

        monkeypatch.setitem(cli._RUNNERS, "constants", overflow)
        assert main(["constants", "--p", "3"]) == 1
        assert capsys.readouterr().err == "run error: math range error\n"

    def test_constants_p_below_two_uses_c2c3(self, capsys):
        code, out, _ = run_cli(["constants", "--p", "1.5", "--no-timestamp"], capsys)
        assert code == 0
        entry = json.loads(out)["results"][0]
        assert "c2_upper_estimate" in entry and "c3_lower_estimate" in entry
        assert "one_sided" in entry

    def test_gap_interval(self, capsys):
        code, out, _ = run_cli(
            ["gap", "--p", "2", "--domain", "interval:0,1", "--level", "4", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)["results"][0]
        assert abs(rep["gap"] - 3.0 * PI2) <= 0.01 * 3.0 * PI2
        assert abs(rep["bound"] - PI2) <= 0.01 * PI2
        assert rep["passed"] and rep["verdict"] == "certified"

    @pytest.mark.parametrize("command", [["gap"], ["eigen", "--second"]])
    def test_p3_square_cut_sweep(self, command, capsys):
        code, out, _ = run_cli(
            command + ["--p", "3", "--domain", "polygon:0,0;1,0;1,1;0,1",
                       "--level", "1", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)["results"][0]
        assert (rep if command == ["gap"] else rep["second"])["lambda2_is_upper_bound"]
        if command != ["gap"]:
            # the cut sweep computes no residual
            assert rep["second"]["residual"] is None and rep["second"]["residual_floor"] is None

    def test_triangle_cut_sweep(self, capsys):
        # the p = 3 sweep meets an Omega+ with an isolated interior node,
        # where the bordered Newton matrix of the whole side is singular; the
        # p = 6 value is the least over every partition of every direction
        # (exhaustive scan, 6 s)
        code, out, _ = run_cli(
            ["gap", "--p", "3,6", "--domain", "polygon:0,0;1,0;0.2,0.9",
             "--level", "2", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)["results"][1]
        assert rep["lambda2"] == pytest.approx(2797052.839189, rel=1e-9)

    def test_no_admissible_cut_exits_1(self, capsys):
        # every hyperplane cut of this L1 mesh leaves its 4 interior nodes on
        # one side; at p = 2 deflation needs no cut
        args = ["gap", "--domain", "polygon:0,0;1,0;0.2,0.9", "--level", "1", "--no-timestamp"]
        code, _, err = run_cli(args + ["--p", "3"], capsys)
        assert code == 1
        assert "no hyperplane cut leaves interior nodes on both sides" in err
        assert "--level" in err
        assert run_cli(args + ["--p", "2"], capsys)[0] == 0

    def test_malformed_domain_exits_1(self, capsys):
        code, _, err = run_cli(["gap", "--domain", "interval:0,oops"], capsys)
        assert code == 1
        assert "config error" in err

    def test_nonconvex_polygon_exits_1(self, capsys):
        code, _, err = run_cli(
            ["eigen", "--domain", "polygon:0,0;2,0;0.5,0.5;0,2"], capsys
        )
        assert code == 1
        assert "convex" in err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("argv", [["eigen", "--measure", "foo"], ["eigen", "--level", "x"], ["battery"]])
    def test_usage_error_exits_1(self, argv, capsys):
        # argparse's own exit status, 2, is the code of a failed inequality
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "usage:" in err

    @pytest.mark.parametrize("argv", [["-h"], ["eigen", "-h"]])
    def test_help_exits_0(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "usage:" in out

    @pytest.mark.parametrize("argv, file_cfg", [
        (["eigen"], {"measure": "lebsgue"}),
        (["constants"], {"p": ["2"]}),
        (["stability"], {"fields": "many"}),
        (["picone", "--samples", "0"], None),
        (["stability", "--fields", "0"], None),
    ])
    def test_bad_config_value_exits_1(self, argv, file_cfg, tmp_path, capsys):
        if file_cfg is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(file_cfg))
            argv = argv + ["--config", str(cfg)]
        code, out, err = run_cli(argv + ["--level", "1", "--no-timestamp"], capsys)
        assert code == 1
        assert err.startswith("config error:") and not out

    @pytest.mark.parametrize("source", ["flag", "config file"])
    @pytest.mark.parametrize("command", ["constants", "eigen", "stability", "gap", "picone"])
    def test_negative_seed_exits_1_before_any_solve(self, command, source, monkeypatch, tmp_path, capsys):
        # every command rejects it as a config error, before it builds a
        # mesh or solves anything
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a run started"))
        argv = [command, "--level", "1", "--no-timestamp"]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and not out
        assert err == "config error: seed must lie in [0, inf], got -1\n"

    def test_stability_small(self, capsys):
        code, out, _ = run_cli(
            ["stability", "--p", "2", "--level", "3", "--fields", "5", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        cell = json.loads(out)["results"][0]
        assert cell["fields"] == 5 and cell["passed"]
        assert cell["min_margin"] > 0.0

    def test_stability_triangle_p3(self, capsys):
        # the ground state on this triangle used to stop unconverged at p = 3
        code, out, _ = run_cli(
            ["stability", "--p", "3", "--domain", "polygon:0,0;1,0;0.3,0.9",
             "--level", "3", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"][0]["passed"]

    @pytest.mark.parametrize("command, p", [("eigen", "1.5,6,10,20"), ("stability", "6")])
    def test_finest_interval_converges(self, command, p, capsys):
        # at level 7 the ground-state residual cannot reach 1e-10: rounding
        # the nodal values alone moves it by more, and the solve stops there
        code, out, _ = run_cli(
            [command, "--p", p, "--domain", "interval:0,1", "--level", "7",
             "--fields", "4", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["passed"]

    @pytest.mark.parametrize("command", ["stability", "gap"])
    def test_p_below_two_exits_1(self, command, capsys):
        code, _, err = run_cli([command, "--p", "1.5", "--level", "2"], capsys)
        assert code == 1
        assert "p >= 2" in err

    def test_forced_failure_exits_2(self, capsys):
        code, out, _ = run_cli(
            [
                "stability", "--p", "2", "--level", "3", "--fields", "2",
                "--inject-bad-constant", "--no-timestamp",
            ],
            capsys,
        )
        assert code == 2
        assert not json.loads(out)["passed"]

    def test_picone_command(self, capsys):
        code, out, _ = run_cli(
            ["picone", "--p", "2,3", "--level", "3", "--samples", "200", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results) == 2
        assert all(r["passed"] for r in results)

    def test_eigen_writes_mesh_and_pair(self, tmp_path, capsys):
        out_path = tmp_path / "eig.json"
        code, _, _ = run_cli(
            [
                "eigen", "--p", "2", "--level", "2", "--second",
                "--out", str(out_path), "--no-timestamp",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        entry = report["results"][0]
        assert abs(entry["first"]["lambda"] - PI2) <= 0.01 * PI2
        assert abs(entry["second"]["lambda"] - 4.0 * PI2) <= 0.01 * 4.0 * PI2
        # how far each pair converged; deflation has no rounding floor
        assert 0.0 < entry["first"]["residual_floor"] and entry["first"]["residual"] <= 1e-10
        assert entry["second"]["residual"] <= 1e-10 and entry["second"]["residual_floor"] is None
        mesh_file = entry["first"]["nodal_values"]["mesh_file"]
        assert mesh_file == str(out_path) + ".mesh"
        header = open(mesh_file).readline().split()
        assert header[:2] == ["DIM", "1"]

    def test_failed_eigen_run_leaves_no_file(self, tmp_path, capsys):
        # p = 1.1 does not converge at level 3: exit 1, and neither the
        # report nor its mesh file is written
        out_path = tmp_path / "r.json"
        code, out, err = run_cli(["eigen", "--p", "1.1", "--level", "3", "--no-timestamp", "--out", str(out_path)],
                                 capsys)
        assert code == 1 and out == ""
        assert err.startswith("run error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["eigen", "--p", "40,100,200", "--level", "5"],
        ["eigen", "--p", "40,100,200", "--domain", "polygon:0,0;1,0;1,1;0,1", "--level", "3"],
        ["stability", "--p", "40", "--level", "3", "--fields", "20"],
        ["stability", "--p", "40", "--domain", "polygon:0,0;1,0;1,1;0,1", "--level", "3", "--fields", "20"],
        ["stability", "--p", "100", "--level", "3", "--fields", "20"],
        ["gap", "--p", "40,100", "--level", "3"],
    ], ids=["eigen-interval", "eigen-square", "stability-interval-40", "stability-square-40",
            "stability-interval-100", "gap-interval"])
    def test_large_p_commands(self, argv, capsys):
        # int |u|^p of the solver's directions leaves float range at these p;
        # the reports are strict JSON, so a null would be a non-finite number
        code, out, _ = run_cli([*argv, "--no-timestamp"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and "null" not in out.replace('"mesh_file": null', "")

    def test_stability_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            [
                "stability", "--p", "2,3", "--level", "3", "--fields", "3",
                "--csv", str(csv_path), "--no-timestamp",
            ],
            capsys,
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 6  # header + 2 cells x 3 fields
        assert json.loads(out)["passed"]


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        args = ["stability", "--p", "2", "--level", "3", "--fields", "4",
                "--seed", "11", "--no-timestamp"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_timestamp_present_by_default(self, capsys):
        _, out, _ = run_cli(["constants", "--p", "2"], capsys)
        assert "timestamp" in json.loads(out)

    def test_timestamp_absent_when_suppressed(self, capsys):
        _, out, _ = run_cli(["constants", "--p", "2", "--no-timestamp"], capsys)
        assert "timestamp" not in json.loads(out)

    def test_infinite_margin_is_strict_json(self):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        text = _report_text({"margin": float("inf"), "bound": -math.inf, "gap": 1.5})
        report = json.loads(text, parse_constant=reject)
        assert report == {"margin": None, "bound": None, "gap": 1.5}

    def test_nan_serialized_as_null(self, capsys):
        # p = 2 leaves the polynomial root unused; JSON must stay standard
        _, out, _ = run_cli(["constants", "--p", "2", "--no-timestamp"], capsys)
        entry = json.loads(out)["results"][0]
        assert entry["r0"] is None and entry["k0"] is None


_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324])
_KEYS = st.text() | st.sampled_from(['"\\/\b\f\n\r\t\x00\x1f\x7f', "é λ ∞ \u2028", "\U0001d4c1"])
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_),
    st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    _FLOATS, _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    _KEYS,
    st.lists(_FLOATS),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4), elements=_FLOATS),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
    st.builds(verify.StabilityReport, note=_KEYS), st.builds(verify.GapReport),
    st.builds(verify.WeightedPoincareReport), st.builds(verify.PiconeResult),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=20,
)


class TestReportText:
    """`_report_text` writes the bytes of the stdlib encoder, indented by two
    and sorted, on the plain values of tests/oracles.py's `jsonable`."""

    @settings(max_examples=200, deadline=None)
    @given(_VALUES)
    def test_matches_stdlib_encoder(self, value):
        assert _report_text(value) == report_text_dumps(value)

    @pytest.mark.parametrize("value", [
        {1.5}, {"a": [frozenset()]}, object(), {1: 2.0}, {None: "x"}, {"a": {(1, 2): 0.5}},
    ])
    def test_unserialisable_value_or_key_raises_type_error(self, value):
        with pytest.raises(TypeError):
            _report_text(value)

    @pytest.mark.parametrize("argv, check", [
        # p = 2 leaves r0 and k0 NaN
        (["constants", "--p", "2"], lambda r: r["results"][0]["r0"] is None),
        (["eigen", "--p", "2", "--level", "2", "--second"], lambda r: r["results"][0]["second"]),
        # the cut sweep
        (["eigen", "--p", "3", "--level", "1", "--second"],
         lambda r: r["results"][0]["second"]["estimator"] == "nodal-cut"),
        # a Lebesgue polygon's reports carry the note
        (["stability", "--p", "2", "--domain", "polygon:0,0;1,0;0.2,0.9", "--level", "1",
          "--fields", "3", "--csv", "{dir}/rows.csv"],
         lambda r: r["results"][0]["reports"][0]["note"]),
        (["gap", "--p", "2", "--level", "2"], lambda r: r["results"][0]["verdict"] == "certified"),
        (["picone", "--p", "2,3", "--level", "2", "--samples", "50"], lambda r: len(r["results"]) == 2),
    ], ids=["constants", "eigen-p2", "eigen-p3-cut", "stability-polygon", "gap", "picone"])
    def test_command_report_matches_stdlib_encoder(self, argv, check, tmp_path):
        args = build_parser().parse_args([a.format(dir=tmp_path) for a in argv] + ["--no-timestamp"])
        code, report = cli.run(load_config(args))
        assert code == 0
        text = _report_text(report)
        assert text == report_text_dumps(report)
        assert check(json.loads(text))
