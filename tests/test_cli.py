"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, load_circuit, main
from repro.circuits.registry import c17
from repro.netlist.bench import write_bench
from repro.netlist.verilog import write_verilog


class TestLoadCircuit:
    def test_registry_name(self):
        assert load_circuit("c17").num_gates() == 6

    def test_bench_file(self, tmp_path):
        path = tmp_path / "mini.bench"
        path.write_text(write_bench(c17()))
        circuit = load_circuit(str(path))
        assert circuit.num_gates() == 6
        assert circuit.name == "mini"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_circuit("not_a_circuit")

    def test_verilog_file(self, tmp_path):
        path = tmp_path / "mini.v"
        path.write_text(write_verilog(c17()))
        circuit = load_circuit(str(path))
        assert circuit.num_gates() == 6

    def test_verilog_file_with_top(self, tmp_path):
        path = tmp_path / "pair.v"
        path.write_text(
            "module one (input a, output y);\n"
            "  BUF u (.Y(y), .A(a));\n"
            "endmodule\n"
            "module two (input a, output y);\n"
            "  INV u0 (.Y(w), .A(a));\n"
            "  INV u1 (.Y(y), .A(w));\n"
            "endmodule\n"
        )
        assert load_circuit(str(path), top="one").num_gates() == 1
        assert load_circuit(str(path), top="two").num_gates() == 2

    def test_generated_spec(self):
        assert load_circuit("gen:3,10").num_gates() == 30

    def test_named_scale_point(self):
        assert load_circuit("gen1k").num_gates() == 1000


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_size_defaults(self):
        args = build_parser().parse_args(["size", "c17"])
        assert args.lam == 3.0
        assert args.circuit == "c17"

    def test_table1_lambda_list(self):
        args = build_parser().parse_args(["table1", "c17", "--lam", "3", "6", "9"])
        assert args.lam == [3.0, 6.0, 9.0]

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.out == "sweep-results"
        assert args.resume is False
        assert args.quick is False
        assert args.kind == "table1"
        assert args.lam == [3.0, 9.0]
        assert args.target_yield == [0.99]

    def test_size_yield_flags(self):
        args = build_parser().parse_args(
            ["size", "c17", "--objective", "yield", "--target-yield", "0.95",
             "--max-area-ratio", "1.2", "--pdf-samples", "21"]
        )
        assert args.objective == "yield"
        assert args.target_yield == 0.95
        assert args.max_area_ratio == 1.2
        assert args.pdf_samples == 21

    def test_size_defaults_to_cost_objective(self):
        args = build_parser().parse_args(["size", "c17"])
        assert args.objective == "cost"
        assert args.max_area_ratio is None

    def test_sweep_yield_kind(self):
        args = build_parser().parse_args(
            ["sweep", "c17", "--kind", "yield", "--target-yield", "0.9", "0.99"]
        )
        assert args.kind == "yield"
        assert args.target_yield == [0.9, 0.99]

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "c17", "alu1", "--jobs", "4", "--out", "/tmp/x",
             "--resume", "--quick", "--kind", "fig4", "--lam", "0", "3"]
        )
        assert args.circuits == ["c17", "alu1"]
        assert args.jobs == 4
        assert args.resume and args.quick
        assert args.kind == "fig4"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "c17"]) == 0
        out = capsys.readouterr().out
        assert "gates          : 6" in out
        assert "validation     : ok" in out

    def test_sta(self, capsys):
        assert main(["sta", "c17"]) == 0
        out = capsys.readouterr().out
        assert "worst arrival" in out
        assert "critical path" in out

    def test_ssta_with_mc_and_yield(self, capsys):
        assert main(["ssta", "c17", "--monte-carlo", "200", "--period", "200"]) == 0
        out = capsys.readouterr().out
        assert "FASSTA" in out and "FULLSSTA" in out
        assert "MonteCarlo(200)" in out
        assert "timing yield" in out

    def test_size(self, capsys):
        assert main(["size", "c17", "--lam", "3", "--max-iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "sigma" in out
        assert "area" in out

    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "c6288" in out
        assert "2980" in out  # the paper's gate count column

    def test_info_on_bench_file(self, tmp_path, capsys):
        path = tmp_path / "c17.bench"
        path.write_text(write_bench(c17()))
        assert main(["info", str(path)]) == 0
        assert "gates          : 6" in capsys.readouterr().out

    def test_info_on_verilog_file_with_frontend_report(self, tmp_path, capsys):
        path = tmp_path / "hier.v"
        path.write_text(
            "module leaf (input a, input b, output y);\n"
            "  AND2 u (.Y(y), .A(a), .B(b));\n"
            "endmodule\n"
            "module top (input p, input q, output o, output o2);\n"
            "  wire w;\n"
            "  leaf u0 (.a(p), .b(q), .y(w));\n"
            "  assign o = w;\n"
            "  assign o2 = o;\n"
            "endmodule\n"
        )
        assert main(["info", str(path), "--top", "top", "--frontend"]) == 0
        out = capsys.readouterr().out
        assert "front end:" in out
        assert "merged nets" in out
        assert "repair buffers: 1" in out

    def test_sta_on_generated_circuit(self, capsys):
        assert main(["sta", "gen:3,10"]) == 0
        assert "worst arrival" in capsys.readouterr().out

    def test_lint_on_verilog_file(self, tmp_path, capsys):
        path = tmp_path / "mini.v"
        path.write_text(write_verilog(c17()))
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_size_explain_path(self, capsys):
        assert main(["size", "c17", "--max-iterations", "2",
                     "--explain-path"]) == 0
        out = capsys.readouterr().out
        assert "WNSS path of the final design" in out
        # Every decision line names its method and the chosen net.
        decision_lines = [
            line for line in out.splitlines()
            if "->" in line and ("dominance" in line or "sensitivity" in line
                                 or "single" in line)
        ]
        assert decision_lines
        assert all("[" in line and "]" in line for line in decision_lines)

    def test_report_text(self, capsys):
        assert main(["report", "c17", "--top-k", "3",
                     "--monte-carlo", "500"]) == 0
        out = capsys.readouterr().out
        assert "Statistical criticality report: c17" in out
        assert "Gate criticality" in out
        assert "Top statistical paths" in out
        assert "Monte-Carlo cross-check" in out
        assert "slack pdf of" in out

    def test_report_json(self, capsys):
        import json

        assert main(["report", "c17", "--format", "json", "--top-k", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["circuit"] == "c17"
        assert len(data["top_paths"]) == 2
        assert data["source_mass"] == pytest.approx(1.0, abs=1e-9)
        assert "monte_carlo" not in data

    def test_report_markdown_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "crit.md"
        assert main(["report", "c17", "--format", "markdown",
                     "--baseline", "--out", str(out_file)]) == 0
        assert f"report written to {out_file}" in capsys.readouterr().out
        text = out_file.read_text()
        assert text.startswith("# Statistical criticality report")
        assert "| gate | cell | size | criticality |" in text

    def test_report_rejects_bad_top_k(self, capsys):
        assert main(["report", "c17", "--top-k", "0"]) == 2
        assert "--top-k" in capsys.readouterr().err

    def test_table1_substrate_flags_take_effect(self, capsys):
        # Regression: --alpha/--random-sigma/--sizes-per-cell were parsed but
        # never reached the runs.  With variation zeroed out the original
        # sigma/mu column must read exactly 0.000.
        assert main(["table1", "c17", "--lam", "3", "--max-iterations", "2",
                     "--alpha", "0", "--random-sigma", "0"]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("c17"))
        assert row.split()[3] == "0.000"


class TestSweepCommand:
    def test_quick_sweep_then_resume(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        argv = ["sweep", "c17", "--quick", "--lam", "3", "9",
                "--jobs", "2", "--out", str(out_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 computed, 0 reused" in first
        artifacts = [p for p in out_dir.glob("table1__c17__lam*.json")
                     if not p.name.endswith(".trace.json")]
        assert len(artifacts) == 2
        # Every computed cell gets a span trace written beside its artifact.
        assert all(p.with_suffix(".trace.json").is_file() for p in artifacts)

        assert main([*argv, "--resume"]) == 0
        captured = capsys.readouterr()
        second = captured.out
        assert "0 computed, 2 reused" in second
        assert "cached" in captured.err  # progress lines go to stderr
        # The resumed table is identical to the computed one.
        table = lambda text: [l for l in text.splitlines() if l.startswith("c17")]
        assert table(first) == table(second)

    def test_failed_cell_prints_an_error_line_not_a_traceback(self, tmp_path,
                                                              capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["sweep", "c17", "no_such_circuit", "--quick", "--lam", "3",
                     "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert "error: 1 of 2 sweep cell(s) failed" in err
        assert "no_such_circuit" in err
        assert "Traceback" not in err
        assert "--resume" in err
        # The healthy sibling ran and persisted its artifact.
        assert [p.name for p in out_dir.glob("table1__c17__lam3.0__*.json")
                if not p.name.endswith(".trace.json")]

    def test_interrupt_exits_130_with_the_resume_hint(self, tmp_path, capsys,
                                                      monkeypatch):
        import repro.cli as cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_cells", interrupted)
        assert main(["sweep", "c17", "--quick", "--out", str(tmp_path)]) == 130
        err = capsys.readouterr().err
        assert err.startswith("interrupted:") and "--resume" in err

    def test_fig4_rejects_monte_carlo(self, tmp_path, capsys):
        # fig4 cells have no MC validation path; silently dropping the flag
        # would let the user believe the points were validated.
        assert main(["sweep", "c17", "--kind", "fig4", "--monte-carlo", "100",
                     "--out", str(tmp_path)]) == 2
        assert "--monte-carlo" in capsys.readouterr().err

    def test_yield_rejects_monte_carlo(self, tmp_path, capsys):
        assert main(["sweep", "c17", "--kind", "yield", "--monte-carlo", "100",
                     "--out", str(tmp_path)]) == 2
        assert "--monte-carlo" in capsys.readouterr().err

    def test_yield_rejects_out_of_range_target(self, tmp_path, capsys):
        # Bad inputs get a clean CLI error, not a ValueError traceback.
        assert main(["sweep", "c17", "--kind", "yield", "--target-yield", "1.5",
                     "--out", str(tmp_path)]) == 2
        assert "--target-yield" in capsys.readouterr().err

    def test_criticality_sweep_then_resume(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        argv = ["sweep", "c17", "alu1", "--kind", "criticality",
                "--top-k", "3", "--monte-carlo", "400", "--out", str(out_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 computed, 0 reused" in first
        assert "source_mass" in first
        assert "mc_max_err" in first
        assert len([p for p in out_dir.glob("criticality__*__lam0.0__*.json")
                    if not p.name.endswith(".trace.json")]) == 2
        assert main([*argv, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 computed, 2 reused" in second
        table = lambda text: [l for l in text.splitlines()
                              if l.startswith(("c17", "alu1"))]
        assert table(first) == table(second)

    def test_criticality_sweep_accepts_monte_carlo(self, tmp_path, capsys):
        assert main(["sweep", "c17", "--kind", "criticality",
                     "--monte-carlo", "200", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mc_max_err" in out

    def test_criticality_sweep_rejects_bad_top_k(self, tmp_path, capsys):
        # Clean CLI error, not a CellSpec ValueError traceback.
        assert main(["sweep", "c17", "--kind", "criticality", "--top-k", "0",
                     "--out", str(tmp_path)]) == 2
        assert "--top-k" in capsys.readouterr().err

    def test_yield_sweep_then_resume(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        argv = ["sweep", "c17", "--quick", "--kind", "yield",
                "--target-yield", "0.9", "0.99", "--out", str(out_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 computed, 0 reused" in first
        assert "orig_period" in first
        assert len([p for p in out_dir.glob("yield__c17__lam0.0__y*.json")
                    if not p.name.endswith(".trace.json")]) == 2
        assert main([*argv, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 computed, 2 reused" in second
        table = lambda text: [l for l in text.splitlines() if l.startswith("c17")]
        assert table(first) == table(second)


class TestSizeYieldCommand:
    def test_size_with_yield_objective(self, capsys):
        assert main(["size", "c17", "--objective", "yield",
                     "--target-yield", "0.99", "--max-iterations", "4"]) == 0
        out = capsys.readouterr().out
        assert "objective=yield" in out
        assert "period@99%" in out
        assert "yield at" in out

    def test_size_with_area_constrained_yield(self, capsys):
        assert main(["size", "c17", "--objective", "yield",
                     "--target-yield", "0.9", "--max-area-ratio", "1.1",
                     "--max-iterations", "3"]) == 0
        assert "period@90%" in capsys.readouterr().out

    def test_size_rejects_bad_yield_options(self, capsys):
        assert main(["size", "c17", "--objective", "yield",
                     "--target-yield", "0.3"]) == 2
        assert "--target-yield" in capsys.readouterr().err
        assert main(["size", "c17", "--max-area-ratio", "0.5"]) == 2
        assert "--max-area-ratio" in capsys.readouterr().err
        assert main(["size", "c17", "--pdf-samples", "2"]) == 2
        assert "--pdf-samples" in capsys.readouterr().err

    def test_fig4_sweep(self, tmp_path, capsys):
        assert main(["sweep", "c17", "--quick", "--kind", "fig4",
                     "--lam", "0", "9", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "norm_mean" in out
        rows = [l for l in out.splitlines() if l.startswith("c17")]
        assert len(rows) == 2
        # The lambda = 0 point is the normalization anchor.
        assert rows[0].split()[4] == "1.000"


class TestLintCommand:
    def test_clean_registry_circuit_exits_zero(self, capsys):
        assert main(["lint", "c17"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_defective_bench_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.bench"
        path.write_text(
            "INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n"
        )
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "DRC004" in out

    def test_json_format(self, tmp_path, capsys):
        import json as json_mod

        path = tmp_path / "bad.bench"
        path.write_text("INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n")
        assert main(["lint", str(path), "--format", "json"]) == 1
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["circuit"] == "bad"
        assert any(d["rule_id"] == "DRC004" for d in payload["diagnostics"])

    def test_fail_on_warning_promotes_warnings(self, capsys):
        # c432 carries a known dangling-gate warning (DRC006): exit 0 by
        # default, exit 1 under --fail-on warning.
        assert main(["lint", "c432"]) == 0
        capsys.readouterr()
        assert main(["lint", "c432", "--fail-on", "warning"]) == 1
        assert "DRC006" in capsys.readouterr().out

    def test_no_library_skips_library_rules(self, capsys):
        assert main(["lint", "c17", "--no-library"]) == 0
        out = capsys.readouterr().out
        assert "DRC007" not in out

    def test_list_rules_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DRC001", "DRC010"):
            assert rule_id in out

    def test_circuit_required_without_list_rules(self, capsys):
        assert main(["lint"]) == 2
        assert "required" in capsys.readouterr().err

    def test_size_preflight_rejects_defective_netlist(self, tmp_path, capsys):
        path = tmp_path / "bad.bench"
        path.write_text("INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n")
        assert main(["size", str(path), "--max-iterations", "1"]) == 1
        err = capsys.readouterr().err
        assert "pre-flight" in err
        assert "--no-preflight" in err
