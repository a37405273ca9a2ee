"""The generalized cofactor ring (over float and relational scalars)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.rings import (
    CofactorLayout,
    FloatRing,
    GeneralCofactorRing,
    NumericCofactorRing,
    RelationRing,
    RelationValue,
)
from repro.rings.base import Ring, check_ring_axioms
from repro.rings.cofactor import GeneralCofactor
from repro.rings.relational import _ONE, _ZERO

LAYOUT = CofactorLayout(("B", "C", "D"))


@pytest.fixture
def float_ring():
    return GeneralCofactorRing(FloatRing(), LAYOUT)


@pytest.fixture
def rel_ring():
    return GeneralCofactorRing(RelationRing(), LAYOUT)


def lift_cont(ring, index, x):
    """Continuous lift for either scalar ring."""
    if isinstance(ring.scalar, RelationRing):
        return ring.lift(index, RelationValue.scalar(x), RelationValue.scalar(x * x))
    return ring.lift(index, float(x), float(x * x))


def lift_cat(ring, index, attr, value):
    indicator = RelationValue.indicator(attr, value)
    return ring.lift(index, indicator, indicator)


class TestFloatBackend:
    def test_identities(self, float_ring):
        assert float_ring.is_zero(float_ring.zero())
        one = float_ring.one()
        assert one.c == 1.0 and not one.s and not one.q

    def test_lift(self, float_ring):
        g = lift_cont(float_ring, 1, 3.0)
        assert g.c == 1.0
        assert g.s == {1: 3.0}
        assert g.q == {(1, 1): 9.0}

    def test_mul_cross_terms_upper_triangle(self, float_ring):
        a = lift_cont(float_ring, 0, 2.0)
        b = lift_cont(float_ring, 1, 5.0)
        p = float_ring.mul(a, b)
        assert p.q[(0, 1)] == 10.0
        assert (1, 0) not in p.q

    def test_mul_diagonal_doubles(self, float_ring):
        a = lift_cont(float_ring, 0, 2.0)
        b = lift_cont(float_ring, 0, 3.0)
        p = float_ring.mul(a, b)
        # q = cb*qa + ca*qb + 2*sa_0*sb_0 = 4 + 9 + 2*6 = 25 = (2+3)^2
        assert p.q[(0, 0)] == 25.0
        assert p.s[0] == 5.0

    def test_entry_symmetric_read(self, float_ring):
        a = float_ring.mul(lift_cont(float_ring, 0, 2.0), lift_cont(float_ring, 2, 3.0))
        assert float_ring.entry(a, 0, 2) == float_ring.entry(a, 2, 0) == 6.0
        assert float_ring.entry(a, 1, 2) == 0.0
        assert float_ring.linear(a, 0) == 2.0
        assert float_ring.linear(a, 1) == 0.0


class TestEquivalenceWithNumericRing:
    """The generalized ring over floats must agree with the numpy ring."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(-3, 3)),
            min_size=1,
            max_size=5,
        )
    )
    def test_same_results_on_random_expressions(self, ops):
        numeric = NumericCofactorRing(LAYOUT)
        general = GeneralCofactorRing(FloatRing(), LAYOUT)
        num_total = numeric.zero()
        gen_total = general.zero()
        num_prod = numeric.one()
        gen_prod = general.one()
        for index, value in ops:
            num_prod = numeric.mul(num_prod, numeric.lift(index, float(value)))
            gen_prod = general.mul(gen_prod, lift_cont(general, index, float(value)))
            num_total = numeric.add(num_total, num_prod)
            gen_total = general.add(gen_total, gen_prod)
        assert num_total.c == gen_total.c
        for i in range(3):
            assert num_total.s[i] == gen_total.s.get(i, 0.0)
            for j in range(3):
                key = (min(i, j), max(i, j))
                assert num_total.q[i, j] == gen_total.q.get(key, 0.0)


class TestRelationalBackend:
    def test_categorical_lift(self, rel_ring):
        g = lift_cat(rel_ring, 1, "C", "c1")
        assert g.s[1].as_dict() == {("c1",): 1}
        assert g.q[(1, 1)].as_dict() == {("c1",): 1}

    def test_mixed_product_gives_group_by(self, rel_ring):
        """g_B(b) * g_C(c): Q_BC must be SUM(B) GROUP BY C."""
        g_b = lift_cont(rel_ring, 0, 4.0)
        g_c = lift_cat(rel_ring, 1, "C", "c2")
        p = rel_ring.mul(g_b, g_c)
        q_bc = p.q[(0, 1)]
        assert q_bc.schema == ("C",)
        assert q_bc.as_dict() == {("c2",): 4.0}

    def test_cat_cat_product_gives_joint_counts(self, rel_ring):
        g_c = lift_cat(rel_ring, 1, "C", "c1")
        g_d = lift_cat(rel_ring, 2, "D", "d2")
        p = rel_ring.mul(g_c, g_d)
        q_cd = p.q[(1, 2)]
        assert q_cd.schema == ("C", "D")
        assert q_cd.as_dict() == {("c1", "d2"): 1}

    def test_delete_cancels_insert(self, rel_ring):
        g = lift_cat(rel_ring, 0, "B", "b1")
        assert rel_ring.is_zero(rel_ring.add(g, rel_ring.neg(g)))

    def test_scale(self, rel_ring):
        g = lift_cat(rel_ring, 0, "B", "b1")
        doubled = rel_ring.scale(g, 2)
        assert doubled.c.annotation(()) == 2
        assert doubled.s[0].annotation(("b1",)) == 2
        assert rel_ring.is_zero(rel_ring.scale(g, 0))

    def test_eq_ignores_explicit_zeros(self, rel_ring):
        a = lift_cat(rel_ring, 0, "B", "b1")
        b = rel_ring.copy(a)
        b.s[1] = RelationValue()  # explicit zero entry
        assert rel_ring.eq(a, b)

    def test_close(self, rel_ring):
        a = lift_cont(rel_ring, 0, 1.0)
        b = rel_ring.copy(a)
        assert rel_ring.close(a, b)

    def test_add_inplace_accumulates(self, rel_ring):
        acc = rel_ring.copy(rel_ring.zero())
        rel_ring.add_inplace(acc, lift_cat(rel_ring, 0, "B", "b1"))
        rel_ring.add_inplace(acc, lift_cat(rel_ring, 0, "B", "b1"))
        assert acc.s[0].annotation(("b1",)) == 2


class TestIntegerScalarBackend:
    """Composition with Z: exact COVAR over integer-valued data."""

    def test_exact_integer_arithmetic(self):
        from repro.rings import Z
        from repro.rings.lifting import Feature, general_cofactor_lift

        ring = GeneralCofactorRing(Z, LAYOUT)
        lift_b = general_cofactor_lift(ring, Feature.continuous("B"))
        lift_c = general_cofactor_lift(ring, Feature.continuous("C"))
        total = ring.add(
            ring.mul(lift_b(2), lift_c(3)), ring.mul(lift_b(10**12), lift_c(1))
        )
        # values stay Python ints: no float rounding even at 10^24
        assert total.q[(0, 0)] == 4 + 10**24
        assert isinstance(total.q[(0, 0)], int)
        assert total.q[(0, 1)] == 6 + 10**12

    def test_categorical_rejected(self):
        from repro.errors import RingError
        from repro.rings import Z
        from repro.rings.lifting import Feature, general_cofactor_lift

        ring = GeneralCofactorRing(Z, LAYOUT)
        with pytest.raises(RingError):
            general_cofactor_lift(ring, Feature.categorical("B"))


# ----------------------------------------------------------------------
# Axioms for the composed ring (the paper's key algebraic claim)
# ----------------------------------------------------------------------

REL_RING = GeneralCofactorRing(RelationRing(), LAYOUT)


def relational_cofactors():
    """Random sums of scaled products of categorical/continuous lifts.

    Slot kinds are fixed (0 continuous; 1 and 2 categorical), as they are
    in any real payload plan — mixing kinds per slot would make sums
    between terms undefined, which the engine never produces.
    """
    spec = st.tuples(st.integers(0, 2), st.integers(0, 3))

    def to_lift(pair):
        index, value = pair
        if index == 0:
            return lift_cont(REL_RING, index, float(value) - 1.0)
        attr = LAYOUT.attributes[index]
        return lift_cat(REL_RING, index, attr, f"v{value}")

    lift = spec.map(to_lift)
    product = st.lists(lift, min_size=1, max_size=2).map(REL_RING.prod)
    term = st.tuples(product, st.integers(-2, 2)).map(
        lambda pair: REL_RING.scale(pair[0], pair[1])
    )
    return st.lists(term, max_size=2).map(REL_RING.sum)


@given(relational_cofactors(), relational_cofactors(), relational_cofactors())
def test_composed_ring_axioms(a, b, c):
    check_ring_axioms(REL_RING, a, b, c)


# ----------------------------------------------------------------------
# Fast paths: GeneralCofactorRing.mul against the pure formulation
# ----------------------------------------------------------------------


class GenericJoinRing(RelationRing):
    """Relational scalar ring whose every product takes the generic join."""

    def mul(self, a, b):
        return self._join(a, b)

    mul_entries = Ring.mul_entries


def reference_mul(a, b):
    """``a * b`` with per-entry generic joins and pure adds only."""
    scalar = GenericJoinRing()

    def scaled(entries, factor):
        out = {}
        for key, value in entries.items():
            product = scalar.mul(value, factor)
            if not scalar.is_zero(product):
                out[key] = product
        return out

    def merge(into, source):
        for key, value in source.items():
            existing = into.get(key)
            total = value if existing is None else scalar.add(existing, value)
            if scalar.is_zero(total):
                into.pop(key, None)
            else:
                into[key] = total

    s = scaled(a.s, b.c)
    merge(s, scaled(b.s, a.c))
    q = scaled(a.q, b.c)
    merge(q, scaled(b.q, a.c))
    for i, sa_i in a.s.items():
        for j, sb_j in b.s.items():
            term = scalar.mul(sa_i, sb_j)
            if scalar.is_zero(term):
                continue
            if i == j:
                merge(q, {(i, i): scalar.add(term, term)})
            else:
                merge(q, {(min(i, j), max(i, j)): term})
    return GeneralCofactor(scalar.mul(a.c, b.c), s, q)


#: Slot 0 (B) continuous, slots 1 (C) and 2 (D) categorical.
S_SCHEMAS = {0: (), 1: ("C",), 2: ("D",)}
Q_SCHEMAS = {
    (0, 0): (),
    (0, 1): ("C",),
    (0, 2): ("D",),
    (1, 1): ("C",),
    (1, 2): ("C", "D"),
    (2, 2): ("D",),
}
#: Small ints cancel exactly; 0.1-style floats have no exact binary form;
#: the tiny ones make products underflow to 0.
ANNOTATIONS = st.one_of(
    st.integers(-2, 2).filter(bool),
    st.sampled_from([0.1, -0.1, 0.2, 0.3, -1e-200, 1e-170]),
    st.floats(-1e3, 1e3, allow_nan=False).filter(bool),
)


def entries_over(schema):
    keys = st.tuples(*(st.integers(0, 1) for _ in schema))
    value = st.dictionaries(keys, ANNOTATIONS, max_size=3).map(
        lambda data: RelationValue(schema, data)
    )
    return st.one_of(value, st.just(_ONE)) if not schema else value


def general_cofactors():
    """Raw payloads: any subset of slots, possibly empty entries."""
    return st.builds(
        GeneralCofactor,
        st.one_of(entries_over(()), st.just(_ZERO)),
        st.fixed_dictionaries(
            {}, optional={k: entries_over(v) for k, v in S_SCHEMAS.items()}
        ),
        st.fixed_dictionaries(
            {}, optional={k: entries_over(v) for k, v in Q_SCHEMAS.items()}
        ),
    )


def rel_bits(value):
    return value.schema, [
        (key, type(ann).__name__, ann.hex() if isinstance(ann, float) else ann)
        for key, ann in value.data.items()
    ]


def payload_bits(payload):
    """The payload in key order, floats by their exact bits."""
    return (
        rel_bits(payload.c),
        [(key, rel_bits(value)) for key, value in payload.s.items()],
        [(key, rel_bits(value)) for key, value in payload.q.items()],
    )


CANCEL_A = GeneralCofactor(
    RelationValue.scalar(1),
    {0: RelationValue.scalar(2), 1: RelationValue.indicator("C", 0)},
    {(0, 1): RelationValue(("C",), {(0,): 0.1})},
)
CANCEL_B = GeneralCofactor(
    RelationValue.scalar(-1),
    {0: RelationValue.scalar(2), 1: RelationValue.indicator("C", 0)},
    {(0, 1): RelationValue(("C",), {(0,): 0.1})},
)
UNDERFLOW_A = GeneralCofactor(RelationValue.scalar(1e-200), {}, {})
UNDERFLOW_B = GeneralCofactor(
    _ONE,
    {2: RelationValue(("D",), {(0,): 1e-170, (1,): 0.5})},
    {(2, 2): RelationValue(("D",), {(0,): 1e-170})},
)


@given(general_cofactors(), general_cofactors())
@example(CANCEL_A, CANCEL_B)  # b's terms cancel s_0, s_1 and Q_01 exactly
@example(CANCEL_B, CANCEL_A)
@example(UNDERFLOW_A, UNDERFLOW_B)  # s_2 loses a key, Q_22 vanishes
@example(UNDERFLOW_B, UNDERFLOW_A)
def test_relational_mul_is_the_pure_formulation_bit_for_bit(a, b):
    ring = GeneralCofactorRing(RelationRing(), LAYOUT)
    before = payload_bits(a), payload_bits(b)
    product = ring.mul(a, b)
    assert payload_bits(product) == payload_bits(reference_mul(a, b))
    assert (payload_bits(a), payload_bits(b)) == before
    assert rel_bits(_ZERO) == (None, [])
    assert rel_bits(_ONE) == ((), [((), "int", 1)])
    operand_data = {
        id(value.data)
        for payload in (a, b)
        for value in (payload.c, *payload.s.values(), *payload.q.values())
    }
    product_data = {
        id(value.data)
        for value in (product.c, *product.s.values(), *product.q.values())
        if value is not _ZERO
    }
    assert not operand_data & product_data
