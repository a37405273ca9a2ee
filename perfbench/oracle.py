"""Recomputation oracle: a maintained root view against a fresh engine.

COUNT payloads are integers and must match exactly. Float and relational
payloads (COVAR, MI) are flattened to ``{path: float}`` and compared
within :data:`REL_TOL` of the payload's largest magnitude; an entry below
that threshold counts as absent. Maintenance keeps residues such as
``-3.6e-15`` where inserts and deletes cancel, and a recomputation that
never saw the cancelled rows drops them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.rings.cofactor import GeneralCofactor
from repro.rings.relational import RelationValue

__all__ = ["REL_TOL", "compare_views", "flatten"]

#: Relative tolerance for float payloads, as a share of the payload's
#: largest absolute entry.
REL_TOL = 1e-9


def flatten(payload: Any, prefix: Tuple = ()) -> Dict[Tuple, float]:
    """Every scalar inside a ring payload, keyed by its position."""
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return {prefix: float(payload)}
    if isinstance(payload, RelationValue):
        return {prefix + (key,): float(value) for key, value in payload.data.items()}
    if isinstance(payload, GeneralCofactor):
        out = flatten(payload.c, prefix + ("c",))
        for slot, value in payload.s.items():
            out.update(flatten(value, prefix + ("s", slot)))
        for pair, value in payload.q.items():
            out.update(flatten(value, prefix + ("q",) + tuple(pair)))
        return out
    raise TypeError(f"no oracle comparison for payload type {type(payload).__name__}")


def compare_views(maintained, recomputed) -> List[str]:
    """Differences between two root views (empty list = they agree)."""
    problems: List[str] = []
    if set(maintained.data) != set(recomputed.data):
        problems.append(
            f"root keys differ: {len(maintained.data)} maintained vs "
            f"{len(recomputed.data)} recomputed"
        )
        return problems
    for key, expected in recomputed.data.items():
        got = maintained.data[key]
        if isinstance(expected, (int, np.integer)) and isinstance(got, (int, np.integer)):
            if int(got) != int(expected):
                problems.append(f"key {key!r}: count {got} != {expected}")
            continue
        left, right = flatten(got), flatten(expected)
        scale = max([abs(v) for v in left.values()] + [abs(v) for v in right.values()] + [0.0])
        floor = REL_TOL * scale
        for path in set(left) | set(right):
            a, b = left.get(path, 0.0), right.get(path, 0.0)
            if abs(a - b) > floor:
                problems.append(f"key {key!r} entry {path!r}: {a!r} != {b!r}")
                if len(problems) >= 5:
                    return problems
    return problems
