"""Group rings RG over a finite ring R and finite group G.

Elements are coefficient vectors indexed by group element; all arithmetic
goes through the underlying index tables.  This module is the scalar
reference implementation; the tuple-search code has its own vectorized
kernels that are tested against these functions.
"""

from __future__ import annotations

import operator
from typing import Sequence, Tuple

from .errors import ContextMismatch, EmptySequence, InvalidElement
from .groups import FiniteGroup
from .rings import FiniteRing


class GroupRing:
    """Context object tying one ring to one group.

    Elements of two distinct GroupRing instances never mix, even if the
    tables agree; identity of the context object is the compatibility test.
    """

    def __init__(self, ring: FiniteRing, group: FiniteGroup):
        self.ring = ring
        self.group = group
        self.size = ring.order ** group.order

    def __repr__(self) -> str:
        return f"GroupRing({self.ring.name}[{self.group.name}])"

    @property
    def name(self) -> str:
        return f"{self.ring.name}[{self.group.name}]"

    def element(self, coeffs: Sequence[int]) -> "GroupRingElement":
        try:
            coeffs = tuple(coeffs)
        except TypeError:
            raise InvalidElement(f"coefficients must be a sequence, got {coeffs!r}") from None
        if len(coeffs) != self.group.order:
            raise InvalidElement(
                f"need {self.group.order} coefficients, got {len(coeffs)}")
        return GroupRingElement(
            self, tuple(_index(c, self.ring.order, "coefficient index") for c in coeffs))

    def zero(self) -> "GroupRingElement":
        return GroupRingElement(self, (self.ring.zero,) * self.group.order)

    def one(self) -> "GroupRingElement":
        return self.embed(self.ring.one, self.group.identity)

    def embed(self, r: int, g: int) -> "GroupRingElement":
        """The monomial r*g."""
        r = _index(r, self.ring.order, "monomial coefficient")
        g = _index(g, self.group.order, "monomial group index")
        coeffs = [self.ring.zero] * self.group.order
        coeffs[g] = r
        return GroupRingElement(self, tuple(coeffs))


def _index(value, bound: int, what: str) -> int:
    """value as an int in [0, bound); operator.index refuses a float or None."""
    try:
        i = operator.index(value)
    except TypeError:
        raise InvalidElement(f"{what} must be an integer, got {value!r}") from None
    if not 0 <= i < bound:
        raise InvalidElement(f"{what} {i} out of range [0,{bound - 1}]")
    return i


class GroupRingElement:
    """Immutable element of a GroupRing; coeffs[g] is a ring element index."""

    __slots__ = ("context", "coeffs")

    def __init__(self, context: GroupRing, coeffs: Tuple[int, ...]):
        self.context = context
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupRingElement)
                and self.context is other.context
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((id(self.context), self.coeffs))

    def __repr__(self) -> str:
        return f"<{self.context.name}: {format_element(self)}>"

    def is_zero(self) -> bool:
        return all(c == self.context.ring.zero for c in self.coeffs)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return gr_add(self, other)

    def __neg__(self) -> "GroupRingElement":
        return gr_neg(self)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return gr_add(self, gr_neg(other))

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        return gr_mul(self, other)


def _same_context(a: GroupRingElement, b: GroupRingElement) -> GroupRing:
    if a.context is not b.context:
        raise ContextMismatch(
            f"cannot combine {a.context.name} with {b.context.name}")
    return a.context


def gr_add(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    ctx = _same_context(a, b)
    add = ctx.ring.add
    return GroupRingElement(ctx, tuple(add(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def gr_neg(a: GroupRingElement) -> GroupRingElement:
    neg = a.context.ring.neg
    return GroupRingElement(a.context, tuple(neg(x) for x in a.coeffs))


def gr_mul(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Convolution product: coefficients multiply in R, supports in G."""
    ctx = _same_context(a, b)
    R, G = ctx.ring, ctx.group
    out = [R.zero] * G.order
    for g, ag in enumerate(a.coeffs):
        if ag == R.zero:
            continue
        for h, bh in enumerate(b.coeffs):
            if bh == R.zero:
                continue
            k = G.mul(g, h)
            out[k] = R.add(out[k], R.mul(ag, bh))
    return GroupRingElement(ctx, tuple(out))


def circle(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Jordan product ab + ba."""
    return gr_add(gr_mul(a, b), gr_mul(b, a))


def lie_bracket(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Commutator ab - ba."""
    return gr_add(gr_mul(a, b), gr_neg(gr_mul(b, a)))


def left_normed_jordan(factors: Sequence[GroupRingElement]) -> GroupRingElement:
    """Fold the circle product left-to-right: ((a1 o a2) o a3) o ..."""
    if not factors:
        raise EmptySequence("left-normed product needs at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = circle(acc, f)
    return acc


def left_normed_lie(factors: Sequence[GroupRingElement]) -> GroupRingElement:
    if not factors:
        raise EmptySequence("left-normed product needs at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = lie_bracket(acc, f)
    return acc


def format_element(a: GroupRingElement) -> str:
    """Render as "coeff@gIndex + ...", zero terms omitted, "0" when empty."""
    R = a.context.ring
    terms = [f"{c}@{g}" for g, c in enumerate(a.coeffs) if c != R.zero]
    return " + ".join(terms) if terms else "0"

