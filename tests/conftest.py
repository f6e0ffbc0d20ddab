"""Shared test oracles and generators.

The helpers here are deliberately independent of the library's algorithms:
determinants come from fraction-free elimination, characteristic polynomials
from the permanent-style permutation expansion, integer roots from synthetic
division at every integer of a given range, and switching equivalence from
exhaustive search over all switching sets.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from hypothesis import strategies as st

from sivkit import EVEN, ODD, IntMatrix, IntPoly, SignedGraph

MAX_SEARCH_EXAMPLES = 120


def bareiss_determinant(m: IntMatrix) -> int:
    """Fraction-free Gaussian elimination; all divisions are exact."""
    a = [list(row) for row in m.rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _permutation_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def leibniz_char_poly(m: IntMatrix) -> IntPoly:
    """det(xI - m) by the full permutation expansion; usable up to n = 6."""
    n = m.n
    total = IntPoly.zero()
    for perm in permutations(range(n)):
        prod = IntPoly.one() * _permutation_sign(perm)
        for i in range(n):
            if perm[i] == i:
                prod = prod * IntPoly((-m.entry(i, i), 1))
            else:
                prod = prod * (-m.entry(i, perm[i]))
        total = total + prod
    return total


def trial_division_roots(coeffs: tuple[int, ...], radius: int) -> tuple[list[int], list[int]]:
    """The integer roots in [-radius, radius], with multiplicity, of the monic
    polynomial with these ascending coefficients, and the ascending cofactor
    left after dividing them out; synthetic division at every candidate."""
    q = list(coeffs)
    roots = []
    for r in range(-radius, radius + 1):
        while len(q) > 1:
            acc, out = 0, []
            for c in reversed(q):
                acc = acc * r + c
                out.append(acc)
            if out[-1]:  # the remainder q(r)
                break
            q = out[-2::-1]
            roots.append(r)
    return roots, q


def all_switch_sets(n: int):
    vertices = list(range(1, n + 1))
    for size in range(n + 1):
        yield from (set(c) for c in combinations(vertices, size))


def brute_force_switch_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    from sivkit import switch_at

    if g1.edges != g2.edges:
        return False
    return any(switch_at(g1, s) == g2 for s in all_switch_sets(g1.n))


def random_graphs(seed: int, count: int, n: int, edge_prob: float = 0.5):
    from sivkit.enumeration import random_signed_graph

    rng = random.Random(seed)
    for _ in range(count):
        yield random_signed_graph(rng, n, edge_prob)


@st.composite
def signed_graphs(draw, min_n: int = 1, max_n: int = 6) -> SignedGraph:
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    if pairs:
        edges = draw(st.frozensets(st.sampled_from(pairs)))
        odd = draw(st.frozensets(st.sampled_from(sorted(edges)))) if edges else frozenset()
    else:
        edges = frozenset()
        odd = frozenset()
    return SignedGraph(n, edges, odd)


@st.composite
def graphs_with_nonadjacent_pair(draw, min_n: int = 2, max_n: int = 6):
    g = draw(signed_graphs(min_n=min_n, max_n=max_n))
    missing = list(g.non_adjacent_pairs())
    if not missing:
        g = g.remove_edge(1, 2)
        missing = [(1, 2)]
    v, w = draw(st.sampled_from(sorted(missing)))
    parity = draw(st.sampled_from((EVEN, ODD)))
    return g, v, w, parity
