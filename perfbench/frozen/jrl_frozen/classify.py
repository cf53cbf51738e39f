"""Structural classification of the minimal Jordan nilpotency index of RG.

classify() decides, from ring and group structure alone (characteristic,
commutativity, derived subgroup, ring-level circle conditions), whether
the group ring is Jordan nilpotent of minimal index 2, 3 or 4, or falls
outside that range.  It never runs the tuple search; crosscheck pits its
answers against the search oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .groups import FiniteGroup, derived_subgroup, is_central, iso_class
from .nilpotency import ring_conditions
from .rings import FiniteRing

CLAUSE_TEXT = {
    "index2:commutative-char2-abelian":
        "commutative coefficients of characteristic 2 over an abelian group",
    "index3:char4-abelian":
        "commutative coefficients of characteristic 4 over an abelian group",
    "index3:char2-derived-c2":
        "commutative coefficients of characteristic 2, derived subgroup of order 2",
    "index3:abelian-ring-index3":
        "abelian group; the coefficient ring itself is Jordan nilpotent of "
        "index 3 with characteristic 2 or 4",
    "index4:char8-abelian":
        "commutative coefficients of characteristic 8 over an abelian group",
    "index4:char4-derived-c2":
        "commutative coefficients of characteristic 4, derived subgroup of order 2",
    "index4:char2-derived-klein-central":
        "commutative coefficients of characteristic 2, derived subgroup "
        "C2xC2 contained in the center",
    "index4:abelian-ring-index4":
        "abelian group; the coefficient ring itself is Jordan nilpotent of "
        "index 4 with characteristic 2, 4 or 8",
    "index4:char4-circle-conds-derived-c2":
        "characteristic 4 with 2(RoR)=0, (RoR)oR=0, (RoR)(RoR)=0 and "
        "derived subgroup of order 2",
    "index4:char2-circle-conds-derived-c2":
        "characteristic 2 with (RoR)oR=0, (RoR)(RoR)=0 and derived "
        "subgroup of order 2",
}


@dataclass(frozen=True)
class ClassificationResult:
    """index None means: not Jordan nilpotent of any index up to 4."""

    index: Optional[int]
    clause: Optional[str]
    facts: dict = field(default_factory=dict, compare=False)

    @property
    def within_four(self) -> bool:
        return self.index is not None


def classify(R: FiniteRing, G: FiniteGroup) -> ClassificationResult:
    char = R.characteristic()
    commutative = R.is_commutative()
    abelian = G.is_abelian
    derived = derived_subgroup(G)
    derived_tag = iso_class(derived)
    derived_central = is_central(G, derived.members)
    conds = ring_conditions(R, bound=4)
    ring_upper = conds.jordan_index_upper
    facts = {
        "characteristic": char,
        "ring_commutative": commutative,
        "ring_order": R.order,
        "group_abelian": abelian,
        "group_order": G.order,
        "derived_order": derived.order,
        "derived_iso": derived_tag,
        "derived_central": derived_central,
        "ring_jordan_upper": ring_upper,
        "two_circle_zero": conds.two_circle_zero,
        "circle_circle_zero": conds.circle_circle_zero,
        "circle_square_zero": conds.circle_square_zero,
    }

    def hit(index: int, clause: str) -> ClassificationResult:
        return ClassificationResult(index, clause, facts)

    # index 2
    if commutative and char == 2 and abelian:
        return hit(2, "index2:commutative-char2-abelian")

    # index 3
    if commutative:
        if char == 4 and abelian:
            return hit(3, "index3:char4-abelian")
        if char == 2 and derived_tag == "C2":
            return hit(3, "index3:char2-derived-c2")
    else:
        if abelian and ring_upper is not None and ring_upper <= 3 and char in (2, 4):
            return hit(3, "index3:abelian-ring-index3")

    # index 4
    if commutative:
        if char == 8 and abelian:
            return hit(4, "index4:char8-abelian")
        if char == 4 and derived_tag == "C2":
            return hit(4, "index4:char4-derived-c2")
        if char == 2 and derived_tag == "C2xC2" and derived_central:
            return hit(4, "index4:char2-derived-klein-central")
    else:
        if abelian and ring_upper is not None and ring_upper <= 4 and char in (2, 4, 8):
            return hit(4, "index4:abelian-ring-index4")
        if (char == 4 and conds.two_circle_zero and conds.circle_circle_zero
                and conds.circle_square_zero and derived_tag == "C2"):
            return hit(4, "index4:char4-circle-conds-derived-c2")
        if (char == 2 and conds.circle_circle_zero
                and conds.circle_square_zero and derived_tag == "C2"):
            return hit(4, "index4:char2-circle-conds-derived-c2")

    return ClassificationResult(None, None, facts)


def explain(result: ClassificationResult) -> str:
    """Human-readable account of the verdict and the facts behind it."""
    f = result.facts
    lines = []
    if result.index is None:
        lines.append("verdict: not Jordan nilpotent of any index up to 4")
    else:
        lines.append(f"verdict: minimal Jordan nilpotency index {result.index}")
        lines.append(f"clause:  {result.clause}")
        lines.append(f"         ({CLAUSE_TEXT[result.clause]})")
    lines.append(
        f"ring:    order {f['ring_order']}, characteristic {f['characteristic']}, "
        f"{'commutative' if f['ring_commutative'] else 'non-commutative'}")
    if f["ring_jordan_upper"] is not None:
        lines.append(f"         Jordan nilpotent of index {f['ring_jordan_upper']} on its own")
    lines.append(
        "         circle conditions: "
        f"2(RoR)=0 {f['two_circle_zero']}, (RoR)oR=0 {f['circle_circle_zero']}, "
        f"(RoR)(RoR)=0 {f['circle_square_zero']}")
    lines.append(
        f"group:   order {f['group_order']}, "
        f"{'abelian' if f['group_abelian'] else 'non-abelian'}, "
        f"derived subgroup {f['derived_iso']} (order {f['derived_order']}"
        f"{', central' if f['derived_central'] else ''})")
    return "\n".join(lines)
