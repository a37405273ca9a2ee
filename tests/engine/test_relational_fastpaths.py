"""The relational ring's fast paths change no bit of any maintained view.

Two F-IVM engines maintain the same query over the same update stream: one
on the normal payload plan, one whose relational scalar ring is forced onto
the generic join for every product. Their root views must be identical,
and a snapshot published mid-stream must keep its payloads while the live
view moves on (products accumulate in place only into entries they own).
"""

import pytest

from repro.engine import FIVMEngine
from repro.rings import RelationRing
from repro.rings.base import Ring
from repro.serving import build_serving_scenario


class GenericJoinRing(RelationRing):
    """Relational scalar ring whose every product takes the generic join."""

    def mul(self, a, b):
        return self._join(a, b)

    mul_entries = Ring.mul_entries


def rel_bits(value):
    return value.schema, [
        (key, type(ann).__name__, ann.hex() if isinstance(ann, float) else ann)
        for key, ann in value.data.items()
    ]


def view_bits(relation):
    """Every payload of a view, floats by their exact bits."""
    return {
        key: (
            rel_bits(payload.c),
            [(slot, rel_bits(value)) for slot, value in payload.s.items()],
            [(slot, rel_bits(value)) for slot, value in payload.q.items()],
        )
        for key, payload in relation.data.items()
    }


@pytest.mark.parametrize(
    "dataset, payload, batch_size, batches",
    [("retailer", "covar", 200, 6), ("favorita", "mi", 500, 4)],
)
def test_fast_paths_match_generic_join_and_keep_snapshots(
    dataset, payload, batch_size, batches
):
    scenario = build_serving_scenario(dataset, payload)
    fast = FIVMEngine(scenario.query, order=scenario.order)
    generic = FIVMEngine(scenario.query, order=scenario.order)
    generic.plan.ring.scalar = GenericJoinRing()
    for engine in (fast, generic):
        engine.initialize(scenario.database)
    events = list(scenario.stream(batch_size=batch_size).tuples(batch_size * batches))
    assert any(multiplicity < 0 for _name, _row, multiplicity in events)
    half = batch_size * (batches // 2)

    for engine in (fast, generic):
        engine.apply_stream(iter(events[:half]), batch_size=batch_size)
    assert view_bits(fast.result()) == view_bits(generic.result())
    snapshot = fast.publish(event_offset=half)
    published = view_bits(snapshot.result)

    for engine in (fast, generic):
        engine.apply_stream(iter(events[half:]), batch_size=batch_size)
    assert view_bits(fast.result()) == view_bits(generic.result())
    for key, payload in fast.result().data.items():
        other = generic.result().data[key]
        assert payload.c == other.c
        assert payload.s == other.s
        assert payload.q == other.q
    assert view_bits(fast.result()) != published
    assert view_bits(snapshot.result) == published
