import dataclasses
import json
import math
import subprocess
import sys

import pytest

from plapstab import cli, verify
from plapstab.cli import _report_text, build_parser, load_config, main, parse_domain_flag

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
        mesh_file = entry["first"]["nodal_values"]["mesh_file"]
        assert mesh_file == str(out_path) + ".mesh"
        header = open(mesh_file).readline().split()
        assert header[:2] == ["DIM", "1"]

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
