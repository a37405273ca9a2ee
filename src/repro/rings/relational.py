"""The ring over relations: union as +, natural join as *.

Section 2 of the paper generalizes the cofactor ring to categorical
attributes by "using relations as values in c, s, and Q instead of scalars;
union and join instead of scalar addition and multiplication; the empty
relation 0 as zero". This module implements exactly that value type.

A :class:`RelationValue` is a finite map from tuples (over a fixed schema of
attribute names) to numeric annotations. Addition unions two maps, summing
annotations of equal keys and dropping keys whose annotation reaches zero —
which is how one-hot encoded deletes cancel inserts. Multiplication is the
natural join on shared attributes with multiplied annotations; for the
cofactor/MI use case schemas are typically disjoint ``(X,) * (Y,) -> (X, Y)``
or scalar ``() * (X,) -> (X,)``.

The multiplicative identity is the relation mapping the empty tuple to 1,
and the canonical zero is the empty relation, which acts as zero for *every*
schema (schemas only exist where there is at least one tuple).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import RingError
from repro.rings.base import Ring

__all__ = ["RelationValue", "RelationRing"]

Key = Tuple


class RelationValue:
    """An annotated relation used as a ring value.

    Parameters
    ----------
    schema:
        Tuple of attribute names; ``None`` only for the canonical empty
        relation (zero), whose schema is undetermined.
    data:
        Mapping from key tuples (matching the schema arity) to numeric
        annotations. Zero annotations are dropped on construction.
    """

    __slots__ = ("schema", "data")

    def __init__(
        self,
        schema: Optional[Tuple[str, ...]] = None,
        data: Optional[Mapping[Key, float]] = None,
    ):
        if data:
            if schema is None:
                raise RingError("non-empty RelationValue requires a schema")
            if len(set(schema)) != len(schema):
                raise RingError(f"duplicate attribute in schema {schema!r}")
            arity = len(schema)
            # Canonical column order (sorted by attribute name) makes union
            # and join results independent of operand order, so the ring is
            # genuinely commutative.
            ordered = tuple(sorted(schema))
            if ordered != tuple(schema):
                permutation = tuple(schema.index(attr) for attr in ordered)
            else:
                permutation = None
            clean: Dict[Key, float] = {}
            for key, annotation in data.items():
                if len(key) != arity:
                    raise RingError(
                        f"key {key!r} does not match schema {schema!r}"
                    )
                if annotation != 0:
                    if permutation is not None:
                        key = tuple(key[i] for i in permutation)
                    clean[key] = annotation
            self.data = clean
            self.schema = ordered if clean else None
        else:
            self.data = {}
            self.schema = None
        if not self.data:
            self.schema = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def scalar(cls, value: float) -> "RelationValue":
        """A 0-ary relation ``{() -> value}`` — the embedding of a scalar."""
        return cls((), {(): value})

    @classmethod
    def indicator(cls, attr: str, value) -> "RelationValue":
        """The one-hot indicator ``{value -> 1}`` over schema ``(attr,)``."""
        return cls((attr,), {(value,): 1})

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.data

    def annotation(self, key: Key = ()) -> float:
        """Annotation of ``key``, 0 when absent."""
        return self.data.get(key, 0)

    def items(self) -> Iterable[Tuple[Key, float]]:
        return self.data.items()

    def as_dict(self) -> Dict[Key, float]:
        """A copy of the underlying key -> annotation map."""
        return dict(self.data)

    def total(self) -> float:
        """Sum of all annotations (the SUM over the whole relation)."""
        return sum(self.data.values())

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationValue):
            return NotImplemented
        if not self.data and not other.data:
            return True
        return self.schema == other.schema and self.data == other.data

    def __repr__(self) -> str:
        if not self.data:
            return "RelationValue(∅)"
        shown = ", ".join(
            f"{key!r}->{annotation}" for key, annotation in sorted(self.data.items(), key=repr)
        )
        return f"RelationValue({self.schema}: {shown})"


class RelationRing(Ring):
    """Ring structure on :class:`RelationValue` (union, natural join).

    Join plans — the index arithmetic for combining two schemas — are cached
    per schema pair, since the cofactor ring multiplies the same slot shapes
    millions of times during maintenance.

    Most products in the cofactor ring have a 0-ary operand ``{() -> x}``
    (a count or a continuous value), which only scales the other operand.
    :meth:`mul` and :meth:`mul_entries` take that case in one pass over the
    annotations instead of the generic :meth:`_join`. Every path keeps the
    same contract:

    - results are fresh: :meth:`mul` returns either the shared empty zero
      (which :meth:`add_inplace` never mutates) or a new value the caller
      owns, never an operand; :meth:`mul_entries` returns only new values;
    - operands are never mutated, and neither are the zero/one singletons;
    - float operations are unchanged: the fast paths form the same
      annotation products, key by key in the same order, as the join, so
      their results are bit-identical to it.
    """

    name = "Rel"

    def __init__(self):
        self._join_plans: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], tuple] = {}

    def zero(self) -> RelationValue:
        return _ZERO

    def one(self) -> RelationValue:
        return _ONE

    def add(self, a: RelationValue, b: RelationValue) -> RelationValue:
        if not a.data:
            return b
        if not b.data:
            return a
        if a.schema != b.schema:
            raise RingError(
                f"cannot union relations over schemas {a.schema!r} and {b.schema!r}"
            )
        merged = dict(a.data)
        for key, annotation in b.data.items():
            total = merged.get(key, 0) + annotation
            if total == 0:
                merged.pop(key, None)
            else:
                merged[key] = total
        result = RelationValue.__new__(RelationValue)
        result.data = merged
        result.schema = a.schema if merged else None
        return result

    def add_inplace(self, a: RelationValue, b: RelationValue) -> RelationValue:
        # RelationValues handed out by add/mul are fresh objects, but the
        # shared _ZERO/_ONE singletons must never be mutated.
        if a is _ZERO or a is _ONE or not a.data:
            return self.add(a, b)
        if not b.data:
            return a
        if a.schema != b.schema:
            raise RingError(
                f"cannot union relations over schemas {a.schema!r} and {b.schema!r}"
            )
        data = a.data
        for key, annotation in b.data.items():
            total = data.get(key, 0) + annotation
            if total == 0:
                data.pop(key, None)
            else:
                data[key] = total
        if not data:
            a.schema = None
        return a

    def copy(self, a: RelationValue) -> RelationValue:
        result = RelationValue.__new__(RelationValue)
        result.data = dict(a.data)
        result.schema = a.schema
        return result

    def mul(self, a: RelationValue, b: RelationValue) -> RelationValue:
        if not a.data or not b.data:
            return _ZERO
        if not a.schema:
            (x,) = a.data.values()
            return _scaled_by(b, x)
        if not b.schema:
            (x,) = b.data.values()
            return _scaled_by(a, x)
        return self._join(a, b)

    def _join(self, a: RelationValue, b: RelationValue) -> RelationValue:
        """The generic natural join behind :meth:`mul`, for any schemas."""
        if not a.data or not b.data:
            return _ZERO
        shared_a, shared_b, sources, result_schema = self._plan(a.schema, b.schema)
        result: Dict[Key, float] = {}
        if shared_a:
            # Hash join: index b on its shared positions, probe with a.
            index: Dict[Key, list] = {}
            for key_b, ann_b in b.data.items():
                hook = tuple(key_b[i] for i in shared_b)
                index.setdefault(hook, []).append((key_b, ann_b))
            for key_a, ann_a in a.data.items():
                hook = tuple(key_a[i] for i in shared_a)
                for key_b, ann_b in index.get(hook, ()):
                    key = tuple(
                        key_a[i] if from_a else key_b[i] for from_a, i in sources
                    )
                    total = result.get(key, 0) + ann_a * ann_b
                    if total == 0:
                        result.pop(key, None)
                    else:
                        result[key] = total
        else:
            # Cartesian product — the common case for cofactor slots, where
            # schemas are disjoint singletons.
            for key_a, ann_a in a.data.items():
                for key_b, ann_b in b.data.items():
                    key = tuple(
                        key_a[i] if from_a else key_b[i] for from_a, i in sources
                    )
                    total = result.get(key, 0) + ann_a * ann_b
                    if total == 0:
                        result.pop(key, None)
                    else:
                        result[key] = total
        value = RelationValue.__new__(RelationValue)
        value.data = result
        value.schema = result_schema if result else None
        return value

    def mul_entries(self, entries: Dict, factor: RelationValue) -> Dict:
        if not factor.data:
            return {}
        if factor.schema:
            return super().mul_entries(entries, factor)
        (x,) = factor.data.values()
        result = {}
        for key, value in entries.items():
            product = _scaled_by(value, x)
            if product.data:
                result[key] = product
        return result

    def neg(self, a: RelationValue) -> RelationValue:
        if not a.data:
            return _ZERO
        result = RelationValue.__new__(RelationValue)
        result.data = {key: -annotation for key, annotation in a.data.items()}
        result.schema = a.schema
        return result

    def eq(self, a: RelationValue, b: RelationValue) -> bool:
        return a == b

    def close(self, a: RelationValue, b: RelationValue, tol: float = 1e-9) -> bool:
        """Tolerant comparison: annotations may carry float rounding."""
        if not a.data and not b.data:
            return True
        if a.schema != b.schema and a.data and b.data:
            return False
        for key in set(a.data) | set(b.data):
            left = a.data.get(key, 0)
            right = b.data.get(key, 0)
            scale = max(1.0, abs(left), abs(right))
            if abs(left - right) > tol * scale:
                return False
        return True

    def is_zero(self, a: RelationValue) -> bool:
        return not a.data

    def from_int(self, n: int) -> RelationValue:
        if n == 0:
            return _ZERO
        return RelationValue.scalar(n)

    def scale(self, a: RelationValue, n: int) -> RelationValue:
        if n == 0 or not a.data:
            return _ZERO
        result = RelationValue.__new__(RelationValue)
        result.data = {key: annotation * n for key, annotation in a.data.items()}
        result.schema = a.schema
        return result

    # ------------------------------------------------------------------

    def _plan(self, schema_a: Tuple[str, ...], schema_b: Tuple[str, ...]) -> tuple:
        """Cache the positional bookkeeping for joining two schemas.

        Output columns follow the canonical (sorted) order of the union;
        ``sources`` says, per output position, whether the value comes from
        operand a (preferred for shared attributes) or operand b.
        """
        cache_key = (schema_a, schema_b)
        plan = self._join_plans.get(cache_key)
        if plan is None:
            positions_a = {attr: i for i, attr in enumerate(schema_a)}
            positions_b = {attr: i for i, attr in enumerate(schema_b)}
            shared_a = tuple(
                positions_a[attr] for attr in schema_b if attr in positions_a
            )
            shared_b = tuple(
                i for i, attr in enumerate(schema_b) if attr in positions_a
            )
            result_schema = tuple(sorted(set(schema_a) | set(schema_b)))
            sources = tuple(
                (True, positions_a[attr])
                if attr in positions_a
                else (False, positions_b[attr])
                for attr in result_schema
            )
            plan = (shared_a, shared_b, sources, result_schema)
            self._join_plans[cache_key] = plan
        return plan


def _scaled_by(value: RelationValue, x) -> RelationValue:
    """``value * {() -> x}`` as a fresh relation.

    This is what the generic join computes for a 0-ary operand, key for key
    and in the same key order. Python's products of numbers are commutative
    bit for bit, so ``ann * x`` equals the join's ``x * ann``, and an int
    factor 1 leaves every annotation as it is. A product of two non-zero
    annotations vanishes only by float underflow; such keys are dropped.
    """
    if x == 1 and type(x) is int:
        data = value.data.copy()
    else:
        data = {key: ann * x for key, ann in value.data.items()}
        if 0 in data.values():
            data = {key: ann for key, ann in data.items() if ann != 0}
    result = RelationValue.__new__(RelationValue)
    result.data = data
    result.schema = value.schema if data else None
    return result


_ZERO = RelationValue()
_ONE = RelationValue.scalar(1)
