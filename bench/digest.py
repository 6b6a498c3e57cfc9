"""Correctness pins: a sha256 digest per simulated cell.

A digest covers every field of a ``SimulationResult`` or
``MultiCoreResult`` except ``manifest`` (wall time, timestamps, host),
as canonical JSON: keys sorted, floats in ``repr`` form, no whitespace.
``expected.json`` maps cell identities to the digests this benchmark
produced when they were pinned; a cell whose identity is not pinned is
checked only for determinism across the repeats of one run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict

EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Result fields left out of the digest: provenance, not simulated output.
EXCLUDED_FIELDS = frozenset({"manifest"})


def canonical(value):
    """``value`` as plain JSON types, dataclasses as field dicts."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in EXCLUDED_FIELDS
        }
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def digest(result) -> str:
    text = json.dumps(canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(path: Path = EXPECTED) -> Dict[str, str]:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["digests"]


def pin(digests: Dict[str, str], path: Path = EXPECTED) -> None:
    """Add (or overwrite) ``digests`` in the pinned set."""
    merged = {**load_expected(path), **digests}
    path.write_text(
        json.dumps({"digests": dict(sorted(merged.items()))}, indent=1) + "\n"
    )
