"""Tests for the repo-invariant AST linter (tools/repro_lint.py).

The tool is not a package; load it by path.  Seeded-defect snippets are
written into tmp directories shaped like the real tree (the RL001/RL003/
RL004 rules key off path components like ``repro/core`` or ``tests``).
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "repro_lint.py"

spec = importlib.util.spec_from_file_location("repro_lint", TOOL)
repro_lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(repro_lint)


def _write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _rules(findings):
    return [f.rule for f in findings]


class TestRL001:
    def test_topological_order_in_hot_path_flagged(self, tmp_path):
        path = _write(tmp_path, "src/repro/core/engine.py",
                      "def f(c):\n    return c.topological_order()\n")
        assert _rules(repro_lint.lint_file(path)) == ["RL001"]

    def test_reverse_topological_order_flagged(self, tmp_path):
        path = _write(tmp_path, "src/repro/sta/x.py",
                      "def f(c):\n    return c.reverse_topological_order()\n")
        assert _rules(repro_lint.lint_file(path)) == ["RL001"]

    def test_outside_hot_paths_allowed(self, tmp_path):
        path = _write(tmp_path, "src/repro/netlist/x.py",
                      "def f(c):\n    return c.topological_order()\n")
        assert repro_lint.lint_file(path) == []

    def test_pragma_on_line_suppresses(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/engine.py",
            "def f(c):\n"
            "    return c.topological_order()  # repro-lint: allow=RL001\n",
        )
        assert repro_lint.lint_file(path) == []

    def test_pragma_in_comment_block_above_suppresses(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/core/engine.py",
            "def f(c):\n"
            "    # This pass is an optimizer, not an engine loop.\n"
            "    # repro-lint: allow=RL001\n"
            "    return c.topological_order()\n",
        )
        assert repro_lint.lint_file(path) == []


class TestRL002:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        path = _write(tmp_path, "src/repro/analysis/x.py",
                      "import numpy as np\nrng = np.random.default_rng()\n")
        assert _rules(repro_lint.lint_file(path)) == ["RL002"]

    def test_seeded_default_rng_allowed(self, tmp_path):
        path = _write(tmp_path, "src/repro/analysis/x.py",
                      "import numpy as np\nrng = np.random.default_rng(42)\n")
        assert repro_lint.lint_file(path) == []

    def test_legacy_global_state_flagged(self, tmp_path):
        path = _write(tmp_path, "src/repro/analysis/x.py",
                      "import numpy as np\nx = np.random.normal(0, 1)\n")
        assert _rules(repro_lint.lint_file(path)) == ["RL002"]

    def test_stdlib_random_call_flagged(self, tmp_path):
        path = _write(tmp_path, "src/repro/analysis/x.py",
                      "import random\nx = random.random()\n")
        assert _rules(repro_lint.lint_file(path)) == ["RL002"]

    def test_seeded_random_instance_allowed(self, tmp_path):
        path = _write(tmp_path, "src/repro/analysis/x.py",
                      "import random\nrng = random.Random(7)\n")
        assert repro_lint.lint_file(path) == []


class TestRL003:
    def test_bare_except_in_runner_flagged(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/runner/x.py",
            "try:\n    pass\nexcept:\n    pass\n",
        )
        assert _rules(repro_lint.lint_file(path)) == ["RL003"]

    def test_typed_except_allowed(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/runner/x.py",
            "try:\n    pass\nexcept ValueError:\n    pass\n",
        )
        assert repro_lint.lint_file(path) == []

    def test_bare_except_outside_runner_not_rl003(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/analysis/x.py",
            "try:\n    pass\nexcept:\n    pass\n",
        )
        assert "RL003" not in _rules(repro_lint.lint_file(path))


class TestRL004:
    def test_float_equality_on_moment_flagged(self, tmp_path):
        path = _write(tmp_path, "tests/test_x.py",
                      "def test_m(rv):\n    assert rv.mean == 103.7\n")
        assert _rules(repro_lint.lint_file(path)) == ["RL004"]

    def test_reversed_operands_flagged(self, tmp_path):
        path = _write(tmp_path, "tests/test_x.py",
                      "def test_m(rv):\n    assert -1.5 != rv.sigma\n")
        assert _rules(repro_lint.lint_file(path)) == ["RL004"]

    def test_approx_comparison_allowed(self, tmp_path):
        path = _write(
            tmp_path, "tests/test_x.py",
            "import pytest\n"
            "def test_m(rv):\n"
            "    assert rv.mean == pytest.approx(103.7)\n",
        )
        assert repro_lint.lint_file(path) == []

    def test_integer_equality_allowed(self, tmp_path):
        # Integer-valued moments (e.g. exact zero checks) are not flagged.
        path = _write(tmp_path, "tests/test_x.py",
                      "def test_m(rv):\n    assert rv.mean == 0\n")
        assert repro_lint.lint_file(path) == []

    def test_outside_tests_not_flagged(self, tmp_path):
        path = _write(tmp_path, "src/repro/analysis/x.py",
                      "def f(rv):\n    return rv.mean == 103.7\n")
        assert "RL004" not in _rules(repro_lint.lint_file(path))


class TestRL005:
    def test_perf_counter_in_src_flagged(self, tmp_path):
        path = _write(tmp_path, "src/repro/flow.py",
                      "import time\ndef f():\n    return time.perf_counter()\n")
        assert _rules(repro_lint.lint_file(path)) == ["RL005"]

    def test_reference_without_call_flagged(self, tmp_path):
        # `clock = time.perf_counter` aliases outside obs/ dodge the one
        # timing source just as effectively as direct calls.
        path = _write(tmp_path, "src/repro/core/x.py",
                      "import time\nclock = time.perf_counter\n")
        assert _rules(repro_lint.lint_file(path)) == ["RL005"]

    def test_inside_obs_allowed(self, tmp_path):
        path = _write(tmp_path, "src/repro/obs/trace.py",
                      "import time\nclock = time.perf_counter\n")
        assert repro_lint.lint_file(path) == []

    def test_outside_src_allowed(self, tmp_path):
        path = _write(tmp_path, "benchmarks/bench_x.py",
                      "import time\nt = time.perf_counter()\n")
        assert "RL005" not in _rules(repro_lint.lint_file(path))

    def test_pragma_suppresses(self, tmp_path):
        path = _write(
            tmp_path, "src/repro/flow.py",
            "import time\n"
            "t = time.perf_counter()  # repro-lint: allow=RL005\n",
        )
        assert repro_lint.lint_file(path) == []


class TestDriver:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        path = _write(tmp_path, "src/repro/core/x.py", "def broken(:\n")
        assert _rules(repro_lint.lint_file(path)) == ["RL000"]

    def test_main_over_seeded_tree_exits_one(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/core/engine.py",
               "def f(c):\n    return c.topological_order()\n")
        assert repro_lint.main([str(tmp_path)]) == 1
        out = capsys.readouterr()
        assert "RL001" in out.out
        assert "1 finding(s)" in out.err

    def test_repository_is_clean(self):
        """The invariant the CI job enforces: zero findings over src+tests."""
        assert repro_lint.main([str(REPO_ROOT / "src"),
                                str(REPO_ROOT / "tests")]) == 0
