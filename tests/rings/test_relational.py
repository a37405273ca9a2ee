"""The relational ring: union as +, natural join as *."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import RingError
from repro.rings import RelationRing, RelationValue
from repro.rings.base import check_ring_axioms
from repro.rings.relational import _ONE, _ZERO


@pytest.fixture
def ring():
    return RelationRing()


class TestRelationValue:
    def test_scalar_constructor(self):
        value = RelationValue.scalar(3)
        assert value.schema == ()
        assert value.annotation(()) == 3

    def test_indicator_constructor(self):
        value = RelationValue.indicator("X", "x1")
        assert value.schema == ("X",)
        assert value.annotation(("x1",)) == 1

    def test_zero_annotations_dropped(self):
        value = RelationValue(("X",), {("a",): 0, ("b",): 2})
        assert len(value) == 1
        assert value.annotation(("b",)) == 2

    def test_empty_is_schemaless(self):
        value = RelationValue(("X",), {("a",): 0})
        assert value.schema is None
        assert value.is_empty

    def test_schema_canonicalized_to_sorted_order(self):
        value = RelationValue(("C", "B"), {("c1", "b1"): 2})
        assert value.schema == ("B", "C")
        assert value.annotation(("b1", "c1")) == 2

    def test_arity_mismatch_rejected(self):
        with pytest.raises(RingError):
            RelationValue(("X",), {("a", "b"): 1})

    def test_duplicate_schema_attr_rejected(self):
        with pytest.raises(RingError):
            RelationValue(("X", "X"), {("a", "a"): 1})

    def test_missing_schema_rejected(self):
        with pytest.raises(RingError):
            RelationValue(None, {("a",): 1})

    def test_total(self):
        value = RelationValue(("X",), {("a",): 2, ("b",): 5})
        assert value.total() == 7

    def test_equality_of_empties(self):
        assert RelationValue() == RelationValue(("X",), {("a",): 0})


class TestRelationRingOps:
    def test_add_unions_and_sums(self, ring):
        a = RelationValue(("X",), {("a",): 1, ("b",): 2})
        b = RelationValue(("X",), {("b",): 3, ("c",): 1})
        total = ring.add(a, b)
        assert total.as_dict() == {("a",): 1, ("b",): 5, ("c",): 1}

    def test_add_cancellation_removes_keys(self, ring):
        a = RelationValue(("X",), {("a",): 1})
        b = RelationValue(("X",), {("a",): -1})
        assert ring.is_zero(ring.add(a, b))

    def test_add_schema_mismatch(self, ring):
        a = RelationValue(("X",), {("a",): 1})
        b = RelationValue(("Y",), {("a",): 1})
        with pytest.raises(RingError):
            ring.add(a, b)

    def test_add_with_zero(self, ring):
        a = RelationValue(("X",), {("a",): 1})
        assert ring.add(a, ring.zero()) == a
        assert ring.add(ring.zero(), a) == a

    def test_mul_scalar_weighting(self, ring):
        a = RelationValue.scalar(3)
        b = RelationValue(("X",), {("x",): 2})
        assert ring.mul(a, b).as_dict() == {("x",): 6}

    def test_mul_disjoint_schemas_is_product(self, ring):
        a = RelationValue.indicator("X", 1)
        b = RelationValue.indicator("Y", 2)
        product = ring.mul(a, b)
        assert product.schema == ("X", "Y")
        assert product.as_dict() == {(1, 2): 1}

    def test_mul_shared_schema_joins(self, ring):
        a = RelationValue(("A", "B"), {(1, 2): 1, (1, 3): 2})
        b = RelationValue(("B", "C"), {(2, 9): 5, (4, 9): 7})
        product = ring.mul(a, b)
        assert product.schema == ("A", "B", "C")
        assert product.as_dict() == {(1, 2, 9): 5}

    def test_mul_commutative_including_schemas(self, ring):
        a = RelationValue(("A", "B"), {(1, 2): 3})
        b = RelationValue(("B", "C"), {(2, 5): 2})
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))

    def test_mul_by_zero(self, ring):
        a = RelationValue.indicator("X", 1)
        assert ring.is_zero(ring.mul(a, ring.zero()))

    def test_one_is_scalar_unit(self, ring):
        a = RelationValue(("X",), {("x",): 4})
        assert ring.eq(ring.mul(a, ring.one()), a)

    def test_neg(self, ring):
        a = RelationValue(("X",), {("x",): 4})
        assert ring.neg(a).as_dict() == {("x",): -4}
        assert ring.is_zero(ring.neg(ring.zero()))

    def test_scale(self, ring):
        a = RelationValue(("X",), {("x",): 4})
        assert ring.scale(a, 3).as_dict() == {("x",): 12}
        assert ring.is_zero(ring.scale(a, 0))

    def test_from_int(self, ring):
        assert ring.from_int(5).annotation(()) == 5
        assert ring.is_zero(ring.from_int(0))

    def test_add_inplace_never_mutates_singletons(self, ring):
        zero = ring.zero()
        a = RelationValue(("X",), {("x",): 1})
        result = ring.add_inplace(zero, a)
        assert result.as_dict() == {("x",): 1}
        assert ring.zero().is_empty

    def test_add_inplace_accumulates(self, ring):
        acc = ring.copy(RelationValue(("X",), {("x",): 1}))
        ring.add_inplace(acc, RelationValue(("X",), {("x",): 2}))
        assert acc.as_dict() == {("x",): 3}

    def test_copy_isolates(self, ring):
        a = RelationValue(("X",), {("x",): 1})
        b = ring.copy(a)
        ring.add_inplace(b, RelationValue(("X",), {("x",): 5}))
        assert a.as_dict() == {("x",): 1}

    def test_close(self, ring):
        a = RelationValue(("X",), {("x",): 1.0})
        b = RelationValue(("X",), {("x",): 1.0 + 1e-12})
        assert ring.close(a, b)
        assert not ring.close(a, RelationValue(("X",), {("x",): 2.0}))

    def test_join_plan_cached(self, ring):
        a = RelationValue(("A",), {(1,): 1})
        b = RelationValue(("B",), {(2,): 1})
        ring.mul(a, b)
        assert (("A",), ("B",)) in ring._join_plans
        ring.mul(a, b)
        assert len(ring._join_plans) == 1


# ----------------------------------------------------------------------
# Property tests: ring axioms over random single-attribute relations
# ----------------------------------------------------------------------

def relation_values(schema_pool=(("X",), ("Y",), ())):
    """Random relation values over a sampled schema.

    Values over one fixed schema keep + defined; 0-ary schemas produce
    scalars.
    """

    def build(item):
        schema, entries = item
        if not schema:
            return (
                RelationValue((), {(): entries[0][1]})
                if entries
                else RelationValue()
            )
        return RelationValue(schema, {(key,): value for key, value in entries})

    entry = st.tuples(st.integers(0, 3), st.integers(-3, 3))
    return st.tuples(
        st.sampled_from(schema_pool), st.lists(entry, max_size=4, unique_by=lambda e: e[0])
    ).map(build)


@given(relation_values((("X",),)), relation_values((("X",),)), relation_values((("X",),)))
def test_ring_axioms_same_schema(a, b, c):
    check_ring_axioms(RelationRing(), a, b, c)


@given(relation_values(((),)), relation_values((("X",),)), relation_values((("Y",),)))
def test_mixed_schema_mul_axioms(a, b, c):
    """Multiplication across schemas: associativity and commutativity."""
    ring = RelationRing()
    assert ring.eq(ring.mul(a, ring.mul(b, c)), ring.mul(ring.mul(a, b), c))
    assert ring.eq(ring.mul(b, c), ring.mul(c, b))
    assert ring.eq(ring.mul(a, b), ring.mul(b, a))


# ----------------------------------------------------------------------
# Fast paths: bit for bit the generic join, operands left untouched
# ----------------------------------------------------------------------

#: Small ints cancel exactly; 0.1-style floats have no exact binary form;
#: the tiny ones make products underflow to 0.
ANNOTATIONS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from([0.1, -0.1, 0.3, 2.5, -1e-200, 1e-170, 3e-160]),
    st.floats(-1e6, 1e6, allow_nan=False).filter(bool),
)
#: 0-ary, disjoint and shared schemas.
SCHEMAS = ((), ("X",), ("Y",), ("X", "Y"), ("Y", "Z"))


def annotated(schema):
    """Relation values over ``schema``, possibly empty."""
    keys = st.tuples(*(st.integers(0, 2) for _ in schema))
    return st.dictionaries(keys, ANNOTATIONS, max_size=4).map(
        lambda data: RelationValue(schema, data)
    )


OPERANDS = st.one_of(
    st.sampled_from(SCHEMAS).flatmap(annotated), st.just(_ZERO), st.just(_ONE)
)


def bits(value):
    """Schema and annotations in key order, floats by their exact bits."""
    return value.schema, [
        (key, type(ann).__name__, ann.hex() if isinstance(ann, float) else ann)
        for key, ann in value.data.items()
    ]


def singletons_intact():
    return bits(_ZERO) == (None, []) and bits(_ONE) == ((), [((), "int", 1)])


def wrap(schema, data):
    value = RelationValue.__new__(RelationValue)
    value.data = data
    value.schema = schema if data else None
    return value


def reference_mul(a, b):
    """The natural join as a nested loop over plain dicts."""
    if not a.data or not b.data:
        return RelationValue()
    schema = tuple(sorted(set(a.schema) | set(b.schema)))
    shared = [attr for attr in b.schema if attr in a.schema]
    data = {}
    for key_a, ann_a in a.data.items():
        row_a = dict(zip(a.schema, key_a))
        for key_b, ann_b in b.data.items():
            row_b = dict(zip(b.schema, key_b))
            if any(row_a[attr] != row_b[attr] for attr in shared):
                continue
            row = {**row_b, **row_a}
            key = tuple(row[attr] for attr in schema)
            total = data.get(key, 0) + ann_a * ann_b
            if total == 0:
                data.pop(key, None)
            else:
                data[key] = total
    return wrap(schema, data)


def reference_add(a, b):
    """Union with summed annotations, cancelled keys dropped."""
    data = dict(a.data)
    for key, ann in b.data.items():
        total = data.get(key, 0) + ann
        if total == 0:
            data.pop(key, None)
        else:
            data[key] = total
    return wrap(a.schema if a.data else b.schema, data)


TINY = RelationValue.scalar(1e-200)
TINY_X = RelationValue(("X",), {(0,): 1e-170, (1,): 0.5})


@given(OPERANDS, OPERANDS)
@example(TINY, TINY_X)  # (0,) underflows to 0 and is dropped
@example(TINY_X, TINY)
@example(TINY, TINY)  # the whole product underflows
def test_mul_is_the_reference_join_bit_for_bit(a, b):
    ring = RelationRing()
    before = bits(a), bits(b)
    product = ring.mul(a, b)
    assert bits(product) == bits(reference_mul(a, b))
    assert (bits(a), bits(b)) == before
    assert singletons_intact()
    if product is not _ZERO:
        assert product.data is not a.data and product.data is not b.data


@given(
    st.sampled_from(SCHEMAS).flatmap(
        lambda schema: st.tuples(annotated(schema), annotated(schema))
    )
)
@example((TINY_X, RelationValue(("X",), {(0,): -1e-170, (1,): 0.1})))
def test_add_and_add_inplace_are_the_reference_union(pair):
    a, b = pair
    ring = RelationRing()
    before = bits(a), bits(b)
    expected = bits(reference_add(a, b))
    assert bits(ring.add(a, b)) == expected
    assert (bits(a), bits(b)) == before
    assert bits(ring.add_inplace(ring.copy(a), b)) == expected
    assert (bits(a), bits(b)) == before
    for singleton in (_ZERO, _ONE):
        if singleton.schema == b.schema or not b.data:
            ring.add_inplace(singleton, b)
    assert singletons_intact()


@given(st.dictionaries(st.integers(0, 3), OPERANDS, max_size=4), OPERANDS)
@example({0: TINY_X, 1: TINY, 2: _ONE}, TINY)
@example({0: TINY_X, 1: _ONE, 2: _ZERO}, _ONE)
def test_mul_entries_is_the_entrywise_join(entries, factor):
    ring = RelationRing()
    before = [(key, bits(value)) for key, value in entries.items()], bits(factor)
    expected = {}
    for key, value in entries.items():
        product = reference_mul(value, factor)
        if product.data:
            expected[key] = bits(product)
    scaled = ring.mul_entries(entries, factor)
    assert {key: bits(value) for key, value in scaled.items()} == expected
    assert list(scaled) == list(expected)
    assert ([(key, bits(value)) for key, value in entries.items()], bits(factor)) == before
    assert singletons_intact()
    shared = {id(value.data) for value in entries.values()} | {id(factor.data)}
    assert not shared & {id(value.data) for value in scaled.values()}
