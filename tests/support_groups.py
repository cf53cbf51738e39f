"""Scalar definitions of the group-lemma hypotheses that criterion 5 of
test_acceptance.py checks, from G.mul and G.commutator alone."""

import itertools


def cyclic_span(G, a):
    """The cyclic subgroup generated by a, by a power loop."""
    out, acc = {G.identity}, a
    while acc not in out:
        out.add(acc)
        acc = G.mul(acc, a)
    return out


def squares_central(G):
    """Every square x^2 commutes with every y."""
    return all(G.mul(G.mul(x, x), y) == G.mul(y, G.mul(x, x))
               for x, y in itertools.product(G.elements(), repeat=2))


def commutator_span_condition(G):
    """Every nontrivial commutator (x, y) has every (y, z) in the cyclic
    subgroup that it generates."""
    for x, y in itertools.product(G.elements(), repeat=2):
        s = G.commutator(x, y)
        if s != G.identity:
            span = cyclic_span(G, s)
            if any(G.commutator(y, z) not in span for z in G.elements()):
                return False
    return True
