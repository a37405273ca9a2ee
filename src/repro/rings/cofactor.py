"""Degree-m matrix (cofactor) rings.

The paper maintains the COVAR matrix — the batch of ``SUM(1)``, ``SUM(X)``
and ``SUM(X*Y)`` aggregates over all attributes X, Y of interest — as one
*compound* payload ``(c, s, Q)``: a scalar count, an m-vector of linear
aggregates, and an m x m symmetric matrix of quadratic aggregates. The ring
operations (Section 2) are::

    a +R b = (ca + cb,  sa + sb,  Qa + Qb)
    a *R b = (ca*cb,  cb*sa + ca*sb,  cb*Qa + ca*Qb + sa sb^T + sb sa^T)

This module provides two interchangeable implementations:

- :class:`NumericCofactorRing` — entries are floats, backed by numpy; the
  fast path for all-continuous attributes;
- :class:`GeneralCofactorRing` — entries come from an arbitrary scalar
  :class:`~repro.rings.base.Ring`; instantiated with the
  :class:`~repro.rings.relational.RelationRing` it becomes the paper's
  generalized ring with relational values, which uniformly handles
  categorical attributes (one-hot group-bys) and the mutual-information
  counts. Instantiated with :class:`~repro.rings.scalar.FloatRing` it is a
  slow but independent re-implementation of the numeric ring, which the
  test-suite uses for cross-validation.

Both store only what is needed: the numeric ring keeps the full symmetric
matrix in one contiguous array; the general ring keeps sparse upper-triangle
maps because lifted values start with a single non-zero slot.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.errors import RingError
from repro.rings.base import Ring

__all__ = [
    "CofactorLayout",
    "NumericCofactor",
    "NumericCofactorBlock",
    "NumericCofactorRing",
    "GeneralCofactor",
    "GeneralCofactorRing",
]


class CofactorLayout:
    """Assignment of attribute names to cofactor vector/matrix indices.

    The rings themselves are positional; the layout is the bridge between
    attribute names used by queries and slot indices used by payloads.
    """

    __slots__ = ("attributes", "_index")

    def __init__(self, attributes: Tuple[str, ...]):
        if len(set(attributes)) != len(attributes):
            raise RingError(f"duplicate attribute in cofactor layout: {attributes!r}")
        self.attributes = tuple(attributes)
        self._index = {attr: i for i, attr in enumerate(self.attributes)}

    @property
    def degree(self) -> int:
        return len(self.attributes)

    def index(self, attr: str) -> int:
        try:
            return self._index[attr]
        except KeyError:
            raise RingError(f"attribute {attr!r} not in cofactor layout") from None

    def __contains__(self, attr: str) -> bool:
        return attr in self._index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CofactorLayout({', '.join(self.attributes)})"


# ----------------------------------------------------------------------
# Numeric (numpy) implementation
# ----------------------------------------------------------------------


class NumericCofactor:
    """Payload of the numeric degree-m ring: ``(c, s, Q)`` over floats."""

    __slots__ = ("c", "s", "q")

    def __init__(self, c: float, s: np.ndarray, q: np.ndarray):
        self.c = c
        self.s = s
        self.q = q

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NumericCofactor(c={self.c}, s={self.s.tolist()}, q={self.q.tolist()})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericCofactor):
            return NotImplemented
        return (
            self.c == other.c
            and np.array_equal(self.s, other.s)
            and np.array_equal(self.q, other.q)
        )


class NumericCofactorBlock:
    """Column block of n numeric cofactor payloads: ``c[n], s[n,m], q[n,m,m]``.

    The bulk kernels below operate on these contiguous arrays, so one
    numpy call covers a whole delta batch where the per-element path pays
    an allocation and dispatch per tuple. Row ``i`` viewed through
    :meth:`NumericCofactorRing.block_payloads` aliases the block arrays;
    rows are disjoint, so mutating one scattered payload in place never
    affects another.
    """

    __slots__ = ("c", "s", "q")

    def __init__(self, c: np.ndarray, s: np.ndarray, q: np.ndarray):
        self.c = c
        self.s = s
        self.q = q

    def __len__(self) -> int:
        return len(self.c)


class NumericCofactorRing(Ring):
    """Degree-m matrix ring over floats, numpy-backed.

    ``m`` is the number of attributes in the compound aggregate; payloads
    carry ``1 + m + m*m`` scalar aggregates maintained together.
    """

    has_bulk_kernels = True

    def __init__(self, layout: CofactorLayout):
        self.layout = layout
        self.degree = layout.degree
        self.name = f"Cofactor<{self.degree}>"

    def zero(self) -> NumericCofactor:
        m = self.degree
        return NumericCofactor(0.0, np.zeros(m), np.zeros((m, m)))

    def one(self) -> NumericCofactor:
        m = self.degree
        return NumericCofactor(1.0, np.zeros(m), np.zeros((m, m)))

    def add(self, a: NumericCofactor, b: NumericCofactor) -> NumericCofactor:
        return NumericCofactor(a.c + b.c, a.s + b.s, a.q + b.q)

    def add_inplace(self, a: NumericCofactor, b: NumericCofactor) -> NumericCofactor:
        a.c += b.c
        a.s += b.s
        a.q += b.q
        return a

    def copy(self, a: NumericCofactor) -> NumericCofactor:
        return NumericCofactor(a.c, a.s.copy(), a.q.copy())

    def mul(self, a: NumericCofactor, b: NumericCofactor) -> NumericCofactor:
        cross = np.outer(a.s, b.s)
        return NumericCofactor(
            a.c * b.c,
            b.c * a.s + a.c * b.s,
            b.c * a.q + a.c * b.q + cross + cross.T,
        )

    def neg(self, a: NumericCofactor) -> NumericCofactor:
        return NumericCofactor(-a.c, -a.s, -a.q)

    def scale(self, a: NumericCofactor, n: int) -> NumericCofactor:
        return NumericCofactor(a.c * n, a.s * n, a.q * n)

    has_float_scaling = True

    def scale_float(self, a: NumericCofactor, factor: float) -> NumericCofactor:
        return NumericCofactor(a.c * factor, a.s * factor, a.q * factor)

    def from_int(self, n: int) -> NumericCofactor:
        m = self.degree
        return NumericCofactor(float(n), np.zeros(m), np.zeros((m, m)))

    def eq(self, a: NumericCofactor, b: NumericCofactor) -> bool:
        return a == b

    def close(self, a: NumericCofactor, b: NumericCofactor, tol: float = 1e-8) -> bool:
        """Tolerant comparison for payloads with accumulated float error."""
        return (
            abs(a.c - b.c) <= tol * max(1.0, abs(a.c), abs(b.c))
            and np.allclose(a.s, b.s, rtol=tol, atol=tol)
            and np.allclose(a.q, b.q, rtol=tol, atol=tol)
        )

    def is_zero(self, a: NumericCofactor) -> bool:
        return a.c == 0.0 and not a.s.any() and not a.q.any()

    def lift(self, index: int, x: float) -> NumericCofactor:
        """The attribute function g for a continuous attribute at ``index``:
        ``g(x) = (1, e_index * x, E_(index,index) * x^2)``."""
        m = self.degree
        s = np.zeros(m)
        s[index] = x
        q = np.zeros((m, m))
        q[index, index] = x * x
        return NumericCofactor(1.0, s, q)

    # ------------------------------------------------------------------
    # Bulk kernels (contiguous column blocks; see NumericCofactorBlock)
    # ------------------------------------------------------------------

    def make_block(self, payloads) -> NumericCofactorBlock:
        payloads = list(payloads)
        if not payloads:
            return self.zero_block(0)
        m = self.degree
        # One C-level pass per component beats per-row slice assignment
        # roughly 3x; the list comprehensions only collect references.
        c = np.array([payload.c for payload in payloads], dtype=np.float64)
        s = np.array([payload.s for payload in payloads], dtype=np.float64)
        q = np.array([payload.q for payload in payloads], dtype=np.float64)
        if s.ndim != 2:  # degree-0 layouts keep their (n, 0) shapes
            s = s.reshape(len(payloads), m)
            q = q.reshape(len(payloads), m, m)
        return NumericCofactorBlock(c, s, q)

    def zero_block(self, n: int) -> NumericCofactorBlock:
        m = self.degree
        return NumericCofactorBlock(np.zeros(n), np.zeros((n, m)), np.zeros((n, m, m)))

    def block_size(self, block: NumericCofactorBlock) -> int:
        return len(block.c)

    def block_payloads(self, block: NumericCofactorBlock):
        # tolist()/list() split the block into rows in one C pass each;
        # map() then drives the trivial constructor without a Python frame
        # per row.
        return map(NumericCofactor, block.c.tolist(), list(block.s), list(block.q))

    def take(self, block: NumericCofactorBlock, indices) -> NumericCofactorBlock:
        idx = np.asarray(indices, dtype=np.intp)
        return NumericCofactorBlock(block.c[idx], block.s[idx], block.q[idx])

    def add_many(
        self, a: NumericCofactorBlock, b: NumericCofactorBlock
    ) -> NumericCofactorBlock:
        return NumericCofactorBlock(a.c + b.c, a.s + b.s, a.q + b.q)

    def mul_many(
        self, a: NumericCofactorBlock, b: NumericCofactorBlock
    ) -> NumericCofactorBlock:
        ac = a.c[:, None]
        bc = b.c[:, None]
        cross = a.s[:, :, None] * b.s[:, None, :]
        return NumericCofactorBlock(
            a.c * b.c,
            bc * a.s + ac * b.s,
            bc[:, :, None] * a.q + ac[:, :, None] * b.q
            + cross
            + cross.transpose(0, 2, 1),
        )

    def neg_many(self, a: NumericCofactorBlock) -> NumericCofactorBlock:
        return NumericCofactorBlock(-a.c, -a.s, -a.q)

    def scale_many(self, block: NumericCofactorBlock, counts) -> NumericCofactorBlock:
        n = np.asarray(counts, dtype=np.float64)
        return NumericCofactorBlock(
            block.c * n, block.s * n[:, None], block.q * n[:, None, None]
        )

    def scale_float_many(
        self, block: NumericCofactorBlock, factor: float
    ) -> NumericCofactorBlock:
        return NumericCofactorBlock(
            block.c * factor, block.s * factor, block.q * factor
        )

    def from_int_many(self, counts) -> NumericCofactorBlock:
        c = np.asarray(counts, dtype=np.float64)
        n, m = len(c), self.degree
        return NumericCofactorBlock(c, np.zeros((n, m)), np.zeros((n, m, m)))

    def lift_many(self, index: int, values) -> NumericCofactorBlock:
        x = np.asarray(values, dtype=np.float64)
        n, m = len(x), self.degree
        s = np.zeros((n, m))
        s[:, index] = x
        q = np.zeros((n, m, m))
        q[:, index, index] = x * x
        return NumericCofactorBlock(np.ones(n), s, q)

    def is_zero_many(self, block: NumericCofactorBlock) -> np.ndarray:
        return (
            (block.c == 0.0)
            & (block.s == 0.0).all(axis=1)
            & (block.q == 0.0).all(axis=(1, 2))
        )

    def sum_segments(
        self, block: NumericCofactorBlock, segment_ids, count: int
    ) -> NumericCofactorBlock:
        m = self.degree
        c = np.zeros(count)
        s = np.zeros((count, m))
        q = np.zeros((count, m, m))
        ids = np.asarray(segment_ids, dtype=np.intp)
        if len(ids):
            order = np.argsort(ids, kind="stable")
            sorted_ids = ids[order]
            starts = np.flatnonzero(
                np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]
            )
            present = sorted_ids[starts]
            c[present] = np.add.reduceat(block.c[order], starts)
            s[present] = np.add.reduceat(block.s[order], starts, axis=0)
            q[present] = np.add.reduceat(block.q[order], starts, axis=0)
        return NumericCofactorBlock(c, s, q)


# ----------------------------------------------------------------------
# Generalized implementation over an arbitrary scalar ring
# ----------------------------------------------------------------------


class GeneralCofactor:
    """Payload of the generalized degree-m ring.

    ``c`` is a scalar-ring value, ``s`` a sparse map ``index -> value`` and
    ``q`` a sparse upper-triangle map ``(i, j) -> value`` with ``i <= j``
    (the paper's Figure 1 likewise omits the symmetric lower triangle).
    """

    __slots__ = ("c", "s", "q")

    def __init__(self, c: Any, s: Dict[int, Any], q: Dict[Tuple[int, int], Any]):
        self.c = c
        self.s = s
        self.q = q

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GeneralCofactor(c={self.c!r}, s={self.s!r}, q={self.q!r})"


class GeneralCofactorRing(Ring):
    """Degree-m cofactor ring whose entries come from any scalar ring.

    With :class:`~repro.rings.relational.RelationRing` as the scalar ring
    this is the paper's composition "degree-m matrix ring with relational
    values": continuous attributes store ``{() -> x}`` scalars, categorical
    attributes store ``{x -> 1}`` indicator relations, and the interaction
    entries come out as group-by aggregates (e.g. ``SUM(B) GROUP BY C``).

    :meth:`mul` scales whole ``s``/``Q`` maps through the scalar ring's
    :meth:`~repro.rings.base.Ring.mul_entries` and accumulates the b-side
    and cross terms in place, into entries the product itself created. Its
    result is fresh; operands and the entries they hold are never mutated,
    so payloads shared with published snapshots stay intact; and every
    scalar operation runs in the same order as the pure formulation
    ``cb*sa + ca*sb``, ``cb*Qa + ca*Qb + sa sb^T + sb sa^T``, so results
    are bit-identical to it. :meth:`add_inplace` mutates only the payload's
    own ``s``/``Q`` maps, never their entries, which a shallow
    :meth:`copy` shares.
    """

    def __init__(self, scalar: Ring, layout: CofactorLayout):
        self.scalar = scalar
        self.layout = layout
        self.degree = layout.degree
        self.name = f"Cofactor<{self.degree}, {scalar.name}>"

    # -- helpers -------------------------------------------------------

    def _merge(self, into: Dict, source: Dict, add) -> None:
        """Accumulate ``source`` into ``into`` entry-wise with ``add``: the
        scalar ring's pure add, or its add_inplace where ``into`` holds only
        entries its caller owns."""
        is_zero = self.scalar.is_zero
        for key, value in source.items():
            existing = into.get(key)
            total = value if existing is None else add(existing, value)
            if is_zero(total):
                into.pop(key, None)
            else:
                into[key] = total

    # -- ring interface --------------------------------------------------

    def zero(self) -> GeneralCofactor:
        return GeneralCofactor(self.scalar.zero(), {}, {})

    def one(self) -> GeneralCofactor:
        return GeneralCofactor(self.scalar.one(), {}, {})

    def add(self, a: GeneralCofactor, b: GeneralCofactor) -> GeneralCofactor:
        add = self.scalar.add
        s = dict(a.s)
        self._merge(s, b.s, add)
        q = dict(a.q)
        self._merge(q, b.q, add)
        return GeneralCofactor(add(a.c, b.c), s, q)

    def add_inplace(self, a: GeneralCofactor, b: GeneralCofactor) -> GeneralCofactor:
        # Pure adds: a shallow copy() shares its entries with the original.
        add = self.scalar.add
        a.c = add(a.c, b.c)
        self._merge(a.s, b.s, add)
        self._merge(a.q, b.q, add)
        return a

    def copy(self, a: GeneralCofactor) -> GeneralCofactor:
        return GeneralCofactor(a.c, dict(a.s), dict(a.q))

    def mul(self, a: GeneralCofactor, b: GeneralCofactor) -> GeneralCofactor:
        scalar = self.scalar
        c = scalar.mul(a.c, b.c)
        # Every entry of s and q is a fresh product owned by the result
        # (Ring.mul_entries / Ring.mul), so the b-side terms accumulate in
        # place; operand entries are only read.
        s = scalar.mul_entries(a.s, b.c)
        q = scalar.mul_entries(a.q, b.c)
        if b.q:
            self._merge(q, scalar.mul_entries(b.q, a.c), scalar.add_inplace)
        if not b.s:
            return GeneralCofactor(c, s, q)
        self._merge(s, scalar.mul_entries(b.s, a.c), scalar.add_inplace)
        # The symmetric cross term sa sb^T + sb sa^T, folded onto the upper
        # triangle: entry (i, j) with i < j receives sa_i*sb_j and sa_j*sb_i;
        # the diagonal receives 2 * sa_i*sb_i.
        for i, sa_i in a.s.items():
            for j, sb_j in b.s.items():
                term = scalar.mul(sa_i, sb_j)
                if scalar.is_zero(term):
                    continue
                if i == j:
                    term = scalar.add(term, term)
                    key = (i, i)
                else:
                    key = (i, j) if i < j else (j, i)
                existing = q.get(key)
                total = term if existing is None else scalar.add_inplace(existing, term)
                if scalar.is_zero(total):
                    q.pop(key, None)
                else:
                    q[key] = total
        return GeneralCofactor(c, s, q)

    def neg(self, a: GeneralCofactor) -> GeneralCofactor:
        scalar = self.scalar
        return GeneralCofactor(
            scalar.neg(a.c),
            {key: scalar.neg(value) for key, value in a.s.items()},
            {key: scalar.neg(value) for key, value in a.q.items()},
        )

    def scale(self, a: GeneralCofactor, n: int) -> GeneralCofactor:
        if n == 0:
            return self.zero()
        scalar = self.scalar
        return GeneralCofactor(
            scalar.scale(a.c, n),
            {key: scalar.scale(value, n) for key, value in a.s.items()},
            {key: scalar.scale(value, n) for key, value in a.q.items()},
        )

    def from_int(self, n: int) -> GeneralCofactor:
        return GeneralCofactor(self.scalar.from_int(n), {}, {})

    @property
    def has_float_scaling(self) -> bool:
        return self.scalar.has_float_scaling

    def scale_float(self, a: GeneralCofactor, factor: float) -> GeneralCofactor:
        # Delegates entry-wise; a scalar ring without float scaling
        # (e.g. the relational ring) raises its own descriptive error.
        scalar = self.scalar
        return GeneralCofactor(
            scalar.scale_float(a.c, factor),
            {key: scalar.scale_float(value, factor) for key, value in a.s.items()},
            {key: scalar.scale_float(value, factor) for key, value in a.q.items()},
        )

    def eq(self, a: GeneralCofactor, b: GeneralCofactor) -> bool:
        scalar = self.scalar
        if not scalar.eq(a.c, b.c):
            return False
        for left, right in ((a.s, b.s), (a.q, b.q)):
            keys = set(left) | set(right)
            for key in keys:
                lval = left.get(key)
                rval = right.get(key)
                if lval is None:
                    if not scalar.is_zero(rval):
                        return False
                elif rval is None:
                    if not scalar.is_zero(lval):
                        return False
                elif not scalar.eq(lval, rval):
                    return False
        return True

    def is_zero(self, a: GeneralCofactor) -> bool:
        if not self.scalar.is_zero(a.c):
            return False
        return all(self.scalar.is_zero(v) for v in a.s.values()) and all(
            self.scalar.is_zero(v) for v in a.q.values()
        )

    def close(self, a: GeneralCofactor, b: GeneralCofactor, tol: float = 1e-8) -> bool:
        """Tolerant comparison via the scalar ring's ``close`` (if any)."""
        scalar = self.scalar
        scalar_close = getattr(scalar, "close", None)
        if scalar_close is None:
            return self.eq(a, b)
        zero = scalar.zero()
        if not scalar_close(a.c, b.c, tol):
            return False
        for left, right in ((a.s, b.s), (a.q, b.q)):
            for key in set(left) | set(right):
                lval = left.get(key, zero)
                rval = right.get(key, zero)
                if not scalar_close(lval, rval, tol):
                    return False
        return True

    def lift(self, index: int, s_value: Any, q_value: Any) -> GeneralCofactor:
        """Attribute function g at slot ``index`` with pre-embedded entries.

        ``s_value``/``q_value`` are scalar-ring values: for a continuous
        attribute ``({() -> x}, {() -> x^2})``; for a categorical one
        ``({x -> 1}, {x -> 1})`` (see :mod:`repro.rings.lifting`).
        """
        return GeneralCofactor(self.scalar.one(), {index: s_value}, {(index, index): q_value})

    # -- accessors -------------------------------------------------------

    def entry(self, a: GeneralCofactor, i: int, j: int) -> Any:
        """Symmetric read of the quadratic entry (i, j)."""
        key = (i, j) if i <= j else (j, i)
        value = a.q.get(key)
        return self.scalar.zero() if value is None else value

    def linear(self, a: GeneralCofactor, i: int) -> Any:
        """Read of the linear entry i."""
        value = a.s.get(i)
        return self.scalar.zero() if value is None else value
