"""Command-line front end: exit codes, schema-stable JSON, golden files."""

import json
from pathlib import Path

import pytest

import spinsym.checks as checks
from spinsym import cli
from spinsym.errors import TermBudgetError
from spinsym.exact import RationalFunction
from spinsym.operators import (DEFAULT_TERM_CEILING, Operator, OpSpace,
                               operator_sum, term_ceiling)

GOLDEN = Path(__file__).parent / "golden"


def parse(argv):
    return cli.build_parser().parse_args(argv)


def over_three_terms():
    """The product of test_operators' ceiling test: past a ceiling of 3."""
    sp = OpSpace(spin_dim=2, sites=2)
    op = operator_sum(sp, [Operator.position_op(sp, 1, p)
                           * Operator.derivative_op(sp, 1)
                           for p in range(1, 4)])
    return op * (op + Operator.spin_unit(sp, 1, 1, 2)
                 + Operator.spin_unit(sp, 2, 1, 2))


# failing runs whose witnesses are pinned byte for byte
REFUTATIONS = {
    "sutherland_sp4_L2_lam1":
        ["--model", "sutherland", "--N", "4", "--theta0", "-1", "--L", "2",
         "--lambda", "1"],
    "calogero_so3_L3_lamm1":
        ["--model", "calogero", "--N", "3", "--theta0", "+1", "--L", "3",
         "--lambda", "-1"],
    "confined_sp2_L3_symbolic":
        ["--model", "confined", "--N", "2", "--theta0", "-1", "--L", "3",
         "--lambda", "symbolic", "--checks",
         "conservation,level-relations,serre,solve-lambda"],
}


class TestGoldenInvocations:
    def test_calogero_so3_star_passes(self, capsys):
        code = cli.run(["model", "--model", "calogero", "--N", "3",
                        "--theta0", "+1", "--L", "3", "--lambda", "star"])
        out = capsys.readouterr().out
        assert code == 0
        assert "summary:" in out and "0 fail" in out

    def test_so4_star_rejected(self, capsys):
        code = cli.run(["model", "--model", "calogero", "--N", "4",
                        "--theta0", "+1", "--L", "3", "--lambda", "star"])
        err = capsys.readouterr().err
        assert code == 2
        assert "non-simple" in err
        assert "so(4)" in err

    def test_solve_lambda_sp2_json(self, capsys):
        code = cli.run(["solve-lambda", "--model", "sutherland", "--N", "2",
                        "--theta0", "-1", "--L", "3", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda_roots"] == ["1/3"]
        for check in payload["checks"]:
            check["millis"] = 0
        expected = (GOLDEN / "solve_lambda_sp2.json").read_text()
        assert json.dumps(payload, indent=2) + "\n" == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_confined_sp2_suite_json(self, capsys, seed):
        # the default suite, oracle included, at each seed of the
        # benchmark's oracle panel
        code = cli.run(["model", "--model", "confined", "--N", "2",
                        "--theta0", "-1", "--L", "2", "--seed", str(seed),
                        "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        for check in payload["checks"]:
            check["millis"] = 0
        expected = (GOLDEN / f"confined_sp2_L2_seed{seed}.json").read_text()
        assert json.dumps(payload, indent=2) + "\n" == expected

    @pytest.mark.parametrize("name", REFUTATIONS)
    def test_refutation_witnesses_json(self, capsys, name):
        # failing runs: each refutation's witness is an operator render,
        # so a changed term in any model builder moves these bytes
        code = cli.run(["model", *REFUTATIONS[name], "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        for check in payload["checks"]:
            check["millis"] = 0
        expected = (GOLDEN / f"refute_{name}.json").read_text()
        assert json.dumps(payload, indent=2) + "\n" == expected

    @pytest.mark.parametrize("n,theta0", checks.LIE_SUITE_SPECS,
                             ids=lambda v: str(v))
    def test_dump_tables_json(self, capsys, n, theta0):
        # every structure constant, metric entry and inverse-metric entry
        # of each lie-suite algebra, byte for byte
        code = cli.run(["dump-tables", "--N", str(n), "--theta0",
                        f"{theta0:+d}", "--format", "json"])
        assert code == 0
        family = "so" if theta0 == 1 else "sp"
        expected = (GOLDEN / f"dump_tables_{family}{n}.json").read_text()
        assert capsys.readouterr().out == expected

    def test_oracle_disagreement_witness(self, capsys, monkeypatch):
        # a false "conserved" flag at coupling 1, where [H, J1] is not zero:
        # the first replay of a falsely flagged target raises the alarm
        monkeypatch.setattr(checks, "_conserved", lambda ctx, level, ab: True)
        code = cli.run(["model", "--model", "sutherland", "--N", "4",
                        "--theta0", "-1", "--L", "2", "--lambda", "1",
                        "--checks", "oracle", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        (check,) = payload["checks"]
        assert check["status"] == "fail"
        assert check["witness"] == [
            "trial 0 on 'conservation level 1 generator (2, 2)': residue "
            "5487237/332750 on ket (1, 4) at point "
            "['9/2', '-14/3', '1', '2']"]
        assert check["notes"][0].startswith("ORACLE DISAGREEMENT")

    def test_schema_key_order(self, capsys):
        cli.run(["solve-lambda", "--model", "sutherland", "--N", "2",
                 "--theta0", "-1", "--L", "3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["spec", "checks", "summary", "lambda_roots",
                                 "engine_version"]
        assert list(payload["checks"][0]) == ["name", "params", "status",
                                              "millis", "witness", "notes"]
        model_keys = ["subcommand", "algebra", "N", "theta0", "L", "model",
                      "lambda", "omega"]
        assert list(payload["spec"]) == model_keys
        cli.run(["model", "--model", "calogero", "--N", "2", "--theta0",
                 "-1", "--L", "2", "--checks", "conservation", "--format",
                 "json"])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["spec"]) == model_keys + ["seed"]
        cli.run(["lie", "--N", "3", "--theta0", "+1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["spec"]) == ["subcommand", "algebra", "N",
                                         "theta0"]
        cli.run(["dump-tables", "--N", "3", "--theta0", "+1", "--format",
                 "json"])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["spec"]) == ["subcommand", "algebra", "N",
                                         "theta0"]
        assert payload["spec"]["subcommand"] == "dump-tables"


class TestConfigRejections:
    def test_odd_symplectic(self, capsys):
        code = cli.run(["model", "--model", "calogero", "--N", "3",
                        "--theta0", "-1", "--L", "3"])
        assert code == 2
        assert "even N" in capsys.readouterr().err

    def test_bad_theta0_literal(self, capsys):
        assert cli.run(["lie", "--N", "3", "--theta0", "2"]) == 2

    def test_bad_rational_literal(self, capsys):
        assert cli.run(["model", "--model", "calogero", "--N", "3",
                        "--theta0", "+1", "--L", "3",
                        "--lambda", "0.5"]) == 2

    def test_unknown_check_name(self, capsys):
        code = cli.run(["model", "--model", "calogero", "--N", "3",
                        "--theta0", "+1", "--L", "3",
                        "--checks", "conservation,spectrum"])
        assert code == 2
        assert "unknown checks" in capsys.readouterr().err

    def test_nonpositive_sites(self, capsys):
        assert cli.run(["model", "--model", "calogero", "--N", "3",
                        "--theta0", "+1", "--L", "0"]) == 2

    def test_single_site_is_config_error(self, capsys):
        code = cli.run(["model", "--model", "calogero", "--N", "2",
                        "--theta0", "-1", "--L", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error: at least two sites" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-5", "lots"])
    def test_bad_term_ceiling(self, capsys, value):
        assert cli.run(["lie", "--N", "3", "--theta0", "+1",
                        "--term-ceiling", value]) == 2
        assert "--term-ceiling" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert cli.run([]) == 2

    @pytest.mark.parametrize("subcommand,model", [
        ("model", "sutherland"), ("solve-lambda", "calogero")])
    def test_trap_only_for_the_confined_model(self, capsys, subcommand,
                                              model):
        code = cli.run([subcommand, "--model", model, "--N", "2",
                        "--theta0", "-1", "--L", "2", "--omega", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert (f"configuration error: --omega sets the trap of the confined "
                f"model; the {model} model has no trap") in captured.err


class TestConfigResolution:
    def test_negative_coupling_literals(self):
        from fractions import Fraction
        config = parse(["model", "--model", "calogero", "--N", "3",
                        "--theta0", "+1", "--L", "3", "--lambda", "-2"])
        assert config.lam == Fraction(-2)
        config = parse(["model", "--model", "calogero", "--N", "3",
                        "--theta0", "+1", "--L", "3", "--lambda=-1/3"])
        assert config.lam == Fraction(-1, 3)

    def test_solver_forces_symbolic(self):
        config = parse(["solve-lambda", "--model", "calogero", "--N", "3",
                        "--theta0", "+1", "--L", "3"])
        assert config.lam == "symbolic"

    def test_ceiling_default(self):
        config = parse(["lie", "--N", "3", "--theta0", "+1"])
        assert config.term_ceiling == DEFAULT_TERM_CEILING


class TestExecution:
    def test_lie_suite(self, capsys):
        assert cli.run(["lie", "--N", "2", "--theta0", "-1"]) == 0
        out = capsys.readouterr().out
        assert "coupling-weight-unity" in out

    @pytest.mark.parametrize("subcommand", ["lie", "dump-tables"])
    def test_so4_needs_no_coupling(self, capsys, subcommand):
        # so(4) has no critical coupling, but these subcommands use none
        assert cli.run([subcommand, "--N", "4", "--theta0", "+1"]) == 0
        assert "so(4)" in capsys.readouterr().out

    def test_failing_run_exits_one(self, capsys):
        code = cli.run(["model", "--model", "calogero", "--N", "2",
                        "--theta0", "-1", "--L", "2", "--lambda", "1",
                        "--checks", "conservation"])
        assert code == 1
        assert "NOT ok" in capsys.readouterr().out

    def test_checks_filter(self, capsys):
        code = cli.run(["model", "--model", "calogero", "--N", "2",
                        "--theta0", "-1", "--L", "2", "--checks",
                        "conservation", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in payload["checks"]}
        assert names == {"conservation-level0", "conservation-level1"}

    def test_text_and_json_verdicts_agree(self, capsys):
        argv = ["model", "--model", "sutherland", "--N", "2", "--theta0",
                "-1", "--L", "2", "--checks", "conservation,serre"]
        assert cli.run(argv + ["--format", "json"]) == 0
        json_out = capsys.readouterr().out
        assert cli.run(argv) == 0
        text_out = capsys.readouterr().out
        from_json = {(c["name"], c["status"])
                     for c in json.loads(json_out)["checks"]}
        from_text = set()
        for line in text_out.splitlines():
            if line.startswith("[") and "] " in line:
                status = line[1:8].strip().lower()
                name = line.split("] ", 1)[1].split(" (", 1)[0]
                from_text.add((name, status))
        assert from_json == from_text

    def test_tiny_term_ceiling_aborts_cleanly(self, capsys):
        code = cli.run(["model", "--model", "calogero", "--N", "3",
                        "--theta0", "+1", "--L", "3", "--checks",
                        "conservation", "--term-ceiling", "10"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ERROR" in out

    def test_run_restores_term_ceiling(self, capsys):
        with term_ceiling(3):
            assert cli.run(["model", "--model", "calogero", "--N", "2",
                            "--theta0", "-1", "--L", "2", "--checks",
                            "conservation", "--term-ceiling", "1000"]) == 0
            with pytest.raises(TermBudgetError):
                over_three_terms()

    def test_solver_over_ceiling_reports_without_roots(self, capsys):
        code = cli.run(["solve-lambda", "--model", "sutherland", "--N", "2",
                        "--theta0", "-1", "--L", "3", "--format", "json",
                        "--term-ceiling", "10"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [c["status"] for c in payload["checks"]] == ["error"]
        assert "lambda_roots" not in payload

    def test_oracle_over_ceiling_reports_error(self, capsys):
        code = cli.run(["model", "--model", "calogero", "--N", "2",
                        "--theta0", "-1", "--L", "2", "--checks", "oracle",
                        "--format", "json", "--term-ceiling", "9"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        (check,) = payload["checks"]
        assert check["name"] == "oracle-crosscheck"
        assert check["status"] == "error"
        assert check["notes"] == [
            "operator exceeded the term ceiling (10 > 9); raise it via "
            "term_ceiling or the --term-ceiling flag"]

    def test_oracle_banner(self, capsys, monkeypatch):
        one = RationalFunction.const(2, 1)

        def lying_targets(spec):
            def defect(vec):
                return {(1, 1): one}
            return [checks._OracleTarget("planted", defect, True)]

        monkeypatch.setattr(checks, "_spin_targets", lying_targets)
        code = cli.run(["model", "--model", "calogero", "--N", "2",
                        "--theta0", "-1", "--L", "2", "--checks", "oracle"])
        captured = capsys.readouterr()
        assert code == 1
        assert "ORACLE DISAGREEMENT" in captured.err


class TestDumpTables:
    def test_deterministic(self, capsys):
        argv = ["dump-tables", "--N", "4", "--theta0", "-1",
                "--format", "json"]
        assert cli.run(argv) == 0
        first = capsys.readouterr().out
        assert cli.run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_sp2_frozen_entries(self, capsys):
        assert cli.run(["dump-tables", "--N", "2", "--theta0", "-1",
                        "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["basis"] == ["1,1", "1,2", "2,1"]
        assert payload["structure_constants"]["1,2|2,1"] == {"1,1": "4"}
        assert payload["metric"]["1,1|1,1"] == "1"
        assert payload["metric"]["1,2|2,1"] == "2"
        assert payload["metric_inverse"]["1,2|2,1"] == "1/2"

    def test_text_format(self, capsys):
        assert cli.run(["dump-tables", "--N", "2", "--theta0", "-1"]) == 0
        out = capsys.readouterr().out
        assert "f[1,2|2,1] = (4)*(1,1)" in out
        assert "g[1,1|1,1] = 1" in out
