#!/usr/bin/env python3
"""Repo-invariant AST lints (run in CI alongside ruff/mypy).

Generic linters cannot see this repository's engine contracts; these checks
can, because they encode them directly:

RL001  engine hot paths must consume the compiled IR, not re-walk the
       netlist: no ``topological_order()`` / ``reverse_topological_order()``
       calls inside ``src/repro/{core,sta,montecarlo,criticality,ir}/``.
RL002  no unseeded randomness in ``src/``: ``np.random.default_rng()``
       without a seed argument, any legacy ``np.random.<fn>()`` global-state
       call, and any stdlib ``random.<fn>()`` call are all flagged —
       reproducibility is a stated invariant of every engine.
RL003  no bare ``except:`` in ``src/repro/runner/``: the sweep runner
       must never be able to swallow ``KeyboardInterrupt`` (Ctrl-C must
       propagate so the cells not yet started are cancelled).
RL004  no float-literal equality on statistical moments in ``tests/``:
       ``assert rv.mean == 103.7`` style comparisons (attributes ``mean`` /
       ``sigma`` / ``variance`` / ``cv`` against a float literal) are
       brittle; use ``pytest.approx``.  Exact-by-construction comparisons
       carry an explicit pragma instead.
RL005  one timing source: no raw ``time.perf_counter`` in ``src/`` outside
       ``repro/obs/`` — use ``repro.obs.clock`` / ``stopwatch`` / spans so
       every duration flows through the instrumentation layer.

Suppression: append ``# repro-lint: allow=RL00x`` (comma-separate several
ids) to the offending line, or put the comment alone on the line directly
above.  Every pragma is an auditable, deliberate exception.

Usage: ``python tools/repro_lint.py [paths...]`` (default: ``src tests``
relative to the repository root).  Exits 1 if any finding is reported.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Sequence, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

_PRAGMA_RE = re.compile(r"#.*?repro-lint:\s*allow=([A-Z0-9, ]+)")

#: Hot-path packages whose code must consume the compiled IR (RL001).
HOT_PATH_PARTS = ("core", "sta", "montecarlo", "criticality", "ir")

#: Moment attributes whose float-literal equality is brittle (RL004).
MOMENT_ATTRS = frozenset({"mean", "sigma", "variance", "cv"})


class Finding(NamedTuple):
    path: Path
    line: int
    rule: str
    message: str

    def format(self) -> str:
        rel = self.path
        try:
            rel = self.path.relative_to(REPO_ROOT)
        except ValueError:
            pass
        return f"{rel}:{self.line}: {self.rule} {self.message}"


def _pragma_allows(source_lines: Sequence[str], lineno: int) -> Set[str]:
    """Rule ids allowed at ``lineno``.

    A pragma counts when it sits on the offending line itself or anywhere in
    the block of pure-comment lines directly above it.
    """
    allowed: Set[str] = set()

    def _collect(line: str) -> None:
        match = _PRAGMA_RE.search(line)
        if match:
            allowed.update(part.strip() for part in match.group(1).split(","))

    if 0 <= lineno - 1 < len(source_lines):
        _collect(source_lines[lineno - 1])
    idx = lineno - 2
    while 0 <= idx < len(source_lines) and source_lines[idx].strip().startswith("#"):
        _collect(source_lines[idx])
        idx -= 1
    return allowed


def _is_np_random(node: ast.expr) -> bool:
    """True for the expression ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------
def check_rl001(tree: ast.AST, path: Path) -> Iterator[Finding]:
    """Hot-path code must not re-walk the netlist per analysis."""
    rel_parts = path.parts
    if "repro" not in rel_parts:
        return
    pkg = rel_parts[rel_parts.index("repro"):]
    if len(pkg) < 2 or pkg[1] not in HOT_PATH_PARTS:
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("topological_order", "reverse_topological_order")
        ):
            yield Finding(
                path, node.lineno, "RL001",
                f"{node.func.attr}() in an engine hot path -- use the "
                f"compiled IR (Circuit.compiled()) instead of re-walking "
                f"the netlist",
            )


def check_rl002(tree: ast.AST, path: Path) -> Iterator[Finding]:
    """No unseeded randomness in library code."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if _is_np_random(func.value):
            if func.attr == "default_rng":
                if not node.args and not node.keywords:
                    yield Finding(
                        path, node.lineno, "RL002",
                        "np.random.default_rng() without a seed -- "
                        "deterministic engines must thread an explicit seed",
                    )
            else:
                yield Finding(
                    path, node.lineno, "RL002",
                    f"np.random.{func.attr}() uses the legacy global RNG "
                    f"state -- use np.random.default_rng(seed)",
                )
        elif isinstance(func.value, ast.Name) and func.value.id == "random":
            if func.attr == "Random" and (node.args or node.keywords):
                continue  # random.Random(seed) is explicitly seeded
            yield Finding(
                path, node.lineno, "RL002",
                f"stdlib random.{func.attr}() call -- use a seeded "
                f"np.random.default_rng / random.Random instance",
            )


def check_rl003(tree: ast.AST, path: Path) -> Iterator[Finding]:
    """No bare ``except:`` in the sweep runner."""
    parts = path.parts
    if "repro" not in parts:
        return
    pkg = parts[parts.index("repro"):]
    if len(pkg) < 2 or pkg[1] != "runner":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Finding(
                path, node.lineno, "RL003",
                "bare 'except:' in runner/ can swallow KeyboardInterrupt "
                "and keep Ctrl-C from cancelling the sweep -- name the "
                "exception types",
            )


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # -3.5 parses as UnaryOp(USub, Constant(3.5))
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, float)
    )


def _is_moment_attr(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in MOMENT_ATTRS


def check_rl004(tree: ast.AST, path: Path) -> Iterator[Finding]:
    """No float-literal equality on statistical moments in tests."""
    if "tests" not in path.parts:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        # Chained comparisons: ops is one shorter than operands by design.
        for op, lhs, rhs in zip(node.ops, operands, operands[1:], strict=False):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (lhs, rhs)
            if any(_is_moment_attr(a) and _is_float_literal(b)
                   for a, b in (pair, pair[::-1])):
                yield Finding(
                    path, node.lineno, "RL004",
                    "float-literal equality on a statistical moment -- use "
                    "pytest.approx (or pragma exact-by-construction cases)",
                )
                break


def check_rl005(tree: ast.AST, path: Path) -> Iterator[Finding]:
    """One timing source: raw ``time.perf_counter`` only inside repro/obs/."""
    parts = path.parts
    if "repro" not in parts:
        return  # src/-only rule; benchmarks and tools time themselves freely
    pkg = parts[parts.index("repro"):]
    if len(pkg) >= 2 and pkg[1] == "obs":
        return  # the blessed home of the clock
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "perf_counter"
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ):
            yield Finding(
                path, node.lineno, "RL005",
                "raw time.perf_counter outside repro/obs/ -- use "
                "repro.obs.clock / stopwatch / spans so timing stays unified",
            )


ALL_CHECKS = (check_rl001, check_rl002, check_rl003, check_rl004, check_rl005)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def lint_file(path: Path) -> List[Finding]:
    """All non-suppressed findings for one Python file."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "RL000",
                        f"file does not parse: {exc.msg}")]
    lines = source.splitlines()
    findings: List[Finding] = []
    for check in ALL_CHECKS:
        for finding in check(tree, path):
            if finding.rule in _pragma_allows(lines, finding.line):
                continue
            findings.append(finding)
    return findings


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repo-invariant AST lints (RL001-RL005)."
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: src tests)",
    )
    args = parser.parse_args(argv)
    paths = args.paths or [REPO_ROOT / "src", REPO_ROOT / "tests"]

    findings: List[Finding] = []
    checked = 0
    for path in iter_python_files(paths):
        checked += 1
        findings.extend(lint_file(path))

    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    for finding in findings:
        print(finding.format())
    print(
        f"repro-lint: {checked} file(s) checked, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
