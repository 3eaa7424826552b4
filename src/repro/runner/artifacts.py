"""Persistent JSON artifacts for completed sweep cells.

One artifact per cell, named
``<kind>__<circuit>__lam<lambda>[__y<target>]__<digest>.json`` (e.g.
``table1__c432__lam3.0__1a2b3c4d.json``) inside the sweep's results
directory::

    {
      "schema": 2,
      "key": "<sha256 over the canonical cell spec>",
      "spec": { ... },              # every input that shaped the result
      "result": { ... },            # Table1Row fields / Fig-4 moments
      "runtime_seconds": 12.3       # wall-clock of the producing worker
    }

``<digest>`` is a short prefix of the spec key, so every input that shapes
the result — including ``monte_carlo_samples``, ``seed``, substrates and
the full sizer config — participates in the *filename*, not just the
stored key.  Without it, two table1 cells for the same circuit and lambda
that differ only in their Monte-Carlo sample count or seed would overwrite
one file and defeat resume forever.  A consequence: artifacts of
superseded configurations are left behind under their old digests rather
than overwritten; they are inert (resume only consults the current cell's
path).

Resume semantics: a cell is skipped if and only if its artifact exists,
parses, carries the current schema number and its ``key`` equals the hash
of the *current* spec.  Any other artifact — truncated JSON, a wrong
schema, a stale key — is recomputed and overwritten.  Artifacts are
written atomically (temp file + ``os.replace``) so a killed sweep never
leaves a half-written cell behind.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

#: Bump when the artifact layout or the result payloads change shape;
#: older artifacts are then recomputed instead of trusted.
#: 2: filenames carry a spec-key digest (Monte-Carlo samples / seed
#: collision fix).
ARTIFACT_SCHEMA = 2

#: Length of the spec-key digest embedded in artifact filenames.  8 hex
#: chars = 32 bits; collisions would additionally need every explicit
#: filename field to match, and are caught by the stored full key anyway.
DIGEST_LEN = 8


def spec_key(payload: Mapping[str, Any]) -> str:
    """Deterministic sha256 over a JSON-able spec payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def artifact_path(
    out_dir: Union[str, Path],
    kind: str,
    circuit: str,
    lam: float,
    target_yield: Optional[float] = None,
    digest: Optional[str] = None,
) -> Path:
    """Canonical artifact file for one sweep cell.

    The lambda (and, for yield cells, the target yield) is rendered with
    ``repr`` (shortest round-trip form), not ``%g`` — two values that differ
    only past the sixth significant digit must not collide on one file, or
    resume would recompute them forever.  ``digest`` (a spec-key prefix,
    see :meth:`repro.runner.sweep.CellSpec.artifact_path`) folds every
    remaining spec field into the name.
    """
    stem = f"{kind}__{circuit}__lam{lam!r}"
    if target_yield is not None:
        stem += f"__y{target_yield!r}"
    if digest:
        stem += f"__{digest}"
    return Path(out_dir) / f"{stem}.json"


def write_artifact(
    path: Union[str, Path],
    key: str,
    spec: Mapping[str, Any],
    result: Mapping[str, Any],
    runtime_seconds: float,
) -> None:
    """Atomically persist one completed cell."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "key": key,
        "spec": dict(spec),
        "result": dict(result),
        "runtime_seconds": float(runtime_seconds),
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def load_artifact(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Load an artifact; ``None`` unless it is current and well formed.

    Current and well formed means: the file exists and parses as a JSON
    object carrying the current schema number, a string ``key`` and a
    ``result`` object.  The caller still owns the key check.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):  # missing, unreadable, not UTF-8 or not JSON
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != ARTIFACT_SCHEMA
        or not isinstance(payload.get("key"), str)
        or not isinstance(payload.get("result"), dict)
    ):
        return None
    return payload
