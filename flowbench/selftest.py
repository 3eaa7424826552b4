"""Self-test of ``run.py --diff``: a deliberately slowed layer must rank first.

Run from the repository root (about a minute)::

    python3 flowbench/selftest.py

It makes two traced runs of ``c7552_cost`` in this process, the second with
``WNSSTracer.trace`` sleeping 30 ms per call inside its layer wrapper, then
runs ``run.py --diff`` on the two outputs and checks that ``core.wnss.trace``
heads the ranking.  Exits 0 on success, 1 on failure.
"""

from __future__ import annotations

import contextlib
import io
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

SLOWED_LAYER = "core.wnss.trace"
DELAY_S = 0.03


def traced_output(seed: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", "c7552_cost", "--seed", str(seed), "--trace", "1"])
    if status != 0:
        raise SystemExit(f"traced run failed with status {status}")
    return out.getvalue()


def main() -> int:
    before = traced_output(seed=1)

    from repro.core.wnss import WNSSTracer

    original = WNSSTracer.__dict__["trace"]

    def slow_trace(*args, **kwargs):
        time.sleep(DELAY_S)
        return original(*args, **kwargs)

    WNSSTracer.trace = slow_trace
    try:
        after = traced_output(seed=1)
    finally:
        WNSSTracer.trace = original

    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a.txt"), Path(tmp, "b.txt")
        a.write_text(before)
        b.write_text(after)
        report = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--diff", str(a), str(b)],
            capture_output=True, text=True, check=False,
        ).stdout
    print(report)
    first = re.search(r"^\s*1\.\s+(\S+)", report, re.MULTILINE)
    if first is None or first.group(1) != SLOWED_LAYER:
        print(f"FAIL: expected {SLOWED_LAYER} first, got "
              f"{first.group(1) if first else 'no ranking'}")
        return 1
    print(f"ok: --diff ranks the slowed layer {SLOWED_LAYER} first")
    return 0


if __name__ == "__main__":
    sys.exit(main())
