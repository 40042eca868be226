"""Command-line behavior: CSV schema, determinism, exit codes, round trip."""

import hashlib
import json

import pytest

from hazardsignal import parse_scenario
from hazardsignal.cli import DESIGN_HEADER, ORACLE_HEADER, SOLVE_HEADER, main

from conftest import REPO_ROOT, SCENARIO_DIR

BACKFIRE = SCENARIO_DIR / "partial_adoption_backfire.scn"
ZERO_OPT = SCENARIO_DIR / "zero_signal_optimum.scn"
REVERSAL = SCENARIO_DIR / "social_cost_reversal.scn"


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestSolve:
    def test_row_and_schema(self, tmp_path):
        out = tmp_path / "solve.csv"
        assert main(["solve", str(ZERO_OPT), "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert header == SOLVE_HEADER == "beta,region,P,S,x_n,x_vu,Q,posterior"
        assert len(rows) == 1
        beta, region, P = rows[0][0], rows[0][1], float(rows[0][2])
        assert beta == "1" and region == "NCVI"
        assert P == pytest.approx(1.0 / 8.4, abs=1e-9)

    def test_metadata_round_trip(self, tmp_path):
        out = tmp_path / "solve.csv"
        main(["solve", str(REVERSAL), "--out", str(out)])
        comments, _, _ = read_csv(out)
        echoed = "\n".join(c[2:] for c in comments) + "\n"
        sc = parse_scenario(echoed)
        original = parse_scenario(REVERSAL.read_text(encoding="utf-8"))
        assert sc == original
        assert sc.game_at(sc.beta) == original.game_at(original.beta)

    def test_rejects_sweep_scenario(self, tmp_path, capsys):
        assert main(["solve", str(BACKFIRE)]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_stdout_output(self, capsys):
        assert main(["solve", str(ZERO_OPT)]) == 0
        out = capsys.readouterr().out
        assert SOLVE_HEADER in out

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["solve", str(REVERSAL), "--out", str(a)])
        main(["solve", str(REVERSAL), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_scenario_sweep_spec(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(BACKFIRE), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == SOLVE_HEADER
        assert len(rows) == 101
        betas = [float(r[0]) for r in rows]
        assert betas == sorted(betas)
        ps = [float(r[2]) for r in rows]
        assert ps[0] == pytest.approx(0.25, abs=1e-9)
        assert ps[-1] == pytest.approx(0.37 / 1.2187, abs=1e-9)

    def test_grid_override(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(BACKFIRE), "--grid", "11", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 11

    def test_single_beta_scenario_sweeps_unit_interval(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(ZERO_OPT), "--grid", "5", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", str(BACKFIRE), "--grid", "21", "--out", str(a)])
        main(["sweep", str(BACKFIRE), "--grid", "21", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestOptimize:
    def test_optimize_p(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["optimize-p", str(ZERO_OPT), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == DESIGN_HEADER
        objective, beta_star, value, v0, v1 = rows[0]
        assert objective == "accident_probability"
        assert float(beta_star) == 0.0
        assert float(v0) == pytest.approx(0.1, abs=1e-12)
        assert float(v1) == pytest.approx(1.0 / 8.4, abs=1e-9)

    def test_optimize_s(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["optimize-s", str(REVERSAL), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == DESIGN_HEADER
        objective, beta_star, value, v0, v1 = rows[0]
        assert objective == "social_cost"
        assert float(beta_star) != 1.0
        assert float(value) <= float(v1)


class TestOracleCheck:
    def test_agreement_on_reversal_scenario(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main(["oracle-check", str(REVERSAL), "--out", str(out)])
        _, header, rows = read_csv(out)
        assert header == ORACLE_HEADER
        assert code == 0
        assert rows[0][-1] == "agree"
        assert int(rows[0][1]) >= 1

    def test_coarse_grid_flags(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main(
            ["oracle-check", str(ZERO_OPT), "--grid-step", "0.05", "--eps", "1e-3",
             "--out", str(out)]
        )
        # verdict computed against tolerances scaled to the coarser grid
        _, _, rows = read_csv(out)
        assert rows[0][-1] in {"agree", "disagree", "empty"}
        assert code in {0, 4}

    def test_no_member_exits_4(self, tmp_path):
        # an eps no lattice point can meet leaves no member: the verdict is empty
        out = tmp_path / "oracle.csv"
        code = main(
            ["oracle-check", str(ZERO_OPT), "--grid-step", "0.05", "--eps", "1e-300",
             "--out", str(out)]
        )
        _, _, rows = read_csv(out)
        assert rows == [["1", "0", "0", "0.02574002574", "0.119047619048", "nan", "nan", "empty"]]
        assert code == 4

    def test_sweep_scenario_yields_one_row_per_beta(self, tmp_path):
        scn = tmp_path / "small_sweep.scn"
        scn.write_text(
            "hazard = affine(0.3, 0.1)\nsignal_reach = linear(0.9)\n"
            "y = 0.9\nr = 3\nbeta = sweep(0, 1, 5)\n"
        )
        out = tmp_path / "oracle.csv"
        code = main(["oracle-check", str(scn), "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 5
        assert all(row[-1] == "agree" for row in rows)


class TestErrorPaths:
    def test_malformed_scenario_names_invariant(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            "hazard = affine(0.3, 0.1)\nsignal_reach = linear(0.9)\ny = 0.5\nr = 0.5\nbeta = 0.5\n"
        )
        assert main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "r must exceed 1" in err

    def test_non_finite_sweep_count(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            "hazard = affine(0.3, 0.1)\nsignal_reach = linear(0.9)\ny = 0.5\nr = 2\n"
            "beta = sweep(0, 1, inf)\n"
        )
        assert main(["sweep", str(bad)]) == 2
        assert "beta sweep count must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "{huge_sweep}"],
            ["sweep", str(BACKFIRE), "--grid", "1000000000000"],
            ["optimize-s", str(ZERO_OPT), "--grid", "1000000000000"],
            ["oracle-check", str(BACKFIRE), "--grid-step", "1e-6"],
            # bound/step overflows to inf, which the lattice size must not pass to int()
            ["oracle-check", str(BACKFIRE), "--grid-step", "1e-320"],
        ],
        ids=[
            "scenario-sweep", "sweep-grid", "optimize-s-grid", "oracle-grid-step",
            "oracle-grid-step-inf",
        ],
    )
    def test_grid_over_the_limit(self, argv, tmp_path, capsys):
        huge = tmp_path / "huge.scn"
        huge.write_text(
            "hazard = affine(0.3, 0.1)\nsignal_reach = linear(0.9)\ny = 0.5\nr = 2\n"
            "beta = sweep(0, 1, 1e12)\n"
        )
        assert main([a.format(huge_sweep=huge) for a in argv]) == 2
        assert "over the limit of 1000000 grid points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, message",
        [
            ("--grid-step", "grid_step must be finite and positive, got inf"),
            ("--eps", "eps must be finite and positive, got inf"),
        ],
        ids=["grid-step", "eps"],
    )
    def test_infinite_oracle_parameter(self, option, message, tmp_path, capsys):
        # y = 0 admits any finite step, so only finiteness rejects an infinite one
        scn = tmp_path / "y0.scn"
        scn.write_text(
            "hazard = affine(0.5, 0.4)\nsignal_reach = linear(1)\ny = 0\nr = 3\nbeta = 0.5\n"
        )
        assert main(["oracle-check", str(scn), option, "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/path.scn"]) == 2

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.scn"
        bad.write_bytes(b"beta = 1 # caf\xe9\n")
        assert main(["solve", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: not UTF-8: byte 0xe9 at offset 14\n")

    def test_file_that_is_not_utf8_after_a_byte_order_mark(self, tmp_path, capsys):
        # the offset counts from the start of the file, the mark's 3 bytes included
        bad = tmp_path / "bom-latin1.scn"
        bad.write_bytes(b"\xef\xbb\xbfbeta = 1 # caf\xe9\n")
        assert main(["solve", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: not UTF-8: byte 0xe9 at offset 17\n")

    def test_curve_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            "hazard = affine(-0.3, 0.5)\nsignal_reach = linear(0.9)\ny = 0.5\nr = 2\nbeta = 0.5\n"
        )
        assert main(["solve", str(bad)]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep", "optimize-p", "optimize-s", "oracle-check"])
    def test_certain_signal_of_a_flat_certain_accident(self, command, tmp_path, capsys):
        # p(d) rounds to 1 for every d, so beta*q(y) * P reaches 1 at beta = 1:
        # an invalid game, not a solver inconsistency
        scn = tmp_path / "flat.scn"
        scn.write_text(
            "hazard = affine(1e-17, 1)\nsignal_reach = constant(1)\ny = 0.5\nr = 3\nbeta = 1\n"
        )
        assert main([command, str(scn)]) == 2
        assert capsys.readouterr().err == (
            "error: beta*q(y) * P reaches 1 in region NCVI: the no-signal posterior is undefined\n"
        )

    def test_internal_inconsistency_exits_3(self, monkeypatch, capsys):
        from hazardsignal import LogicError
        import hazardsignal.cli as cli

        def boom(game):
            raise LogicError("synthetic closed-form escape")

        monkeypatch.setattr(cli, "solve_equilibrium", boom)
        assert main(["solve", str(ZERO_OPT)]) == 3
        assert "internal inconsistency" in capsys.readouterr().err


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    """A shipped scenario saved with a UTF-8 byte-order mark prints what it
    prints without one."""
    scn = SCENARIO_DIR / "social_cost_reversal.scn"
    marked = tmp_path / "bom.scn"
    marked.write_bytes(b"\xef\xbb\xbf" + scn.read_bytes())
    assert main(["solve", str(scn)]) == 0
    plain = capsys.readouterr()
    assert main(["solve", str(marked)]) == 0
    assert capsys.readouterr() == plain


def test_recorded_outputs_unchanged(capsys):
    """Every invocation pinned in hsbench/cli_expected.json keeps its exit
    code and the sha256 of its stdout."""
    expected = json.loads((REPO_ROOT / "hsbench" / "cli_expected.json").read_text())
    assert len(expected) == 20
    for key, want in expected.items():
        command, scenario = key.split(" ")
        code = main([command, str(REPO_ROOT / scenario)])
        stdout = capsys.readouterr().out.encode("utf-8")
        assert code == want["exit"], key
        assert hashlib.sha256(stdout).hexdigest() == want["sha256"], key
