"""Shared test oracles and generators.

The helpers here are deliberately independent of the library's algorithms:
determinants come from fraction-free elimination, characteristic polynomials
from the permanent-style permutation expansion (its products by the
double loop, the tests' own polynomial arithmetic) and the Faddeev-LeVerrier
recurrence, integral-variation verdicts from the two characteristic
polynomials alone, by a rational gcd, integer roots from synthetic
division at every integer of a given range, switching equivalence from
exhaustive search over all switching sets, the integral-variation
conditions from switched copies of the graph in centered form, plain
completability from a scan of every 4-vertex subset, completability from a
depth-first search over certified edge additions, and odd-triangle counts
from a scan of every triangle.  Below them are the generators and graph
edits only tests need.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from operator import index, mul

from hypothesis import strategies as st

from sivkit import EVEN, ODD, IntPoly, SignedComplete, SignedGraph, SivVerdict
from sivkit.enumeration import all_pairs, iter_subsets
from sivkit.spectra import _rechecked_verdicts

MAX_SEARCH_EXAMPLES = 120


def bareiss_determinant(m: tuple[tuple[int, ...], ...]) -> int:
    """Fraction-free Gaussian elimination; all divisions are exact."""
    a = [list(row) for row in m]
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


def double_loop_product(a, b) -> list[int]:
    """The product of two ascending coefficient sequences, term by term."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def linear_product(roots, tail=(1,)) -> IntPoly:
    """tail times the product of x - r over the roots, by double_loop_product."""
    coeffs = list(tail)
    for r in roots:
        coeffs = double_loop_product(coeffs, (-r, 1))
    return IntPoly(tuple(coeffs))


def evaluate(p: IntPoly, value: int) -> int:
    """p(value) by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * value + c
    return acc


def leibniz_char_poly(m: tuple[tuple[int, ...], ...]) -> IntPoly:
    """det(xI - m) by the full permutation expansion; usable up to n = 6."""
    n = len(m)
    total = [0] * (n + 1)
    for perm in permutations(range(n)):
        prod = [_permutation_sign(perm)]
        for i in range(n):
            factor = (-m[i][i], 1) if perm[i] == i else (-m[i][perm[i]],)
            prod = double_loop_product(prod, factor)
        for k, c in enumerate(prod):
            total[k] += c
    return IntPoly(tuple(total))


def faddeev_leverrier(m) -> IntPoly:
    """det(xI - m) by the division-free Faddeev-LeVerrier recurrence:
    B_0 = I, B_k = m B_(k-1) + c_(n-k) I and c_(n-k) = -tr(m B_(k-1)) / k,
    every division exact.  Entries are read through operator.index, so
    fixed-width integers are computed exactly."""
    a = [list(map(index, row)) for row in m]
    n = len(a)
    coeffs = [0] * n + [1]
    mb = [row[:] for row in a]  # m B_0
    for k in range(1, n + 1):
        t = sum(mb[i][i] for i in range(n))
        assert t % k == 0, "inexact trace division"
        coeffs[n - k] = -(t // k)
        for i in range(n):
            mb[i][i] += coeffs[n - k]  # now B_k
        cols = list(zip(*mb))
        mb = [[sum(map(mul, row, col)) for col in cols] for row in a]
    return IntPoly(tuple(coeffs))


def brute_force_completable(
    g: SignedGraph,
    target: SignedComplete,
    memo: dict[frozenset, bool] | None = None,
) -> bool:
    """Independent search oracle for completability: depth-first over edge
    supersets, recursing only through additions the spectral oracle certifies.

    States are memoized by their edge set (signs are pinned by the target).
    A memo table may be shared across calls with the same target.  Each
    state's verdicts come from the library's sweep helper, which re-checks
    the positive ones against the state's polynomial.
    """
    if g.n != target.n:
        raise ValueError("vertex counts differ")
    if g.odd != target.odd & g.edges:
        return False
    if memo is None:
        memo = {}
    full = frozenset(target.all_edges())
    n = g.n
    odd = target.odd

    def reach(edges: frozenset) -> bool:
        if edges == full:
            return True
        known = memo.get(edges)
        if known is not None:
            return known
        state = SignedGraph(n, edges, odd & edges)
        missing = sorted(full - edges)
        verdicts = _rechecked_verdicts(state, [(*e, ODD if e in odd else EVEN) for e in missing])
        steps = [e for e, verdict in zip(missing, verdicts) if verdict.kind != "none"]
        result = any(reach(edges | {e}) for e in steps)
        memo[edges] = result
        return result

    return reach(g.edges)


def _divmod_poly(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of ascending coefficient lists over the
    rationals; den's last entry is nonzero, and the remainder is stripped."""
    rem = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(den) - 1] / den[-1]
        quot[k] = c
        for i, d in enumerate(den):
            rem[k + i] -= c * d
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


@cache
def polynomial_verdict(p: IntPoly, p_after: IntPoly) -> tuple:
    """The verdict's params read off the polynomials before and after an
    addition alone.  p'/p in lowest terms is (x - lam - 2) / (x - lam) for
    type 1 and q(x - 1) / q(x), q = x^2 - s x + rho, for type 2 (a q with
    roots lam and lam + 1 reduces to type 1); anything else is none.  The
    gcd is taken over the rationals by Euclid's algorithm."""
    a, b = list(p.coeffs), list(p_after.coeffs)
    while b:
        a, b = b, _divmod_poly(a, b)[1]
    gcd = [c / a[-1] for c in a]
    den = _divmod_poly(list(p.coeffs), gcd)[0]
    num = _divmod_poly(list(p_after.coeffs), gcd)[0]
    if len(den) == 2 and den[0].denominator == 1:
        lam = -int(den[0])
        if num == [-lam - 2, 1]:
            return ("type1", lam, None, None)
    if len(den) == 3 and all(c.denominator == 1 for c in den):
        rho, s = int(den[0]), -int(den[1])
        if num == [1 + s + rho, -s - 2, 1]:
            return ("type2", None, s, rho)
    return ("none", None, None, None)


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


def neighbor_set_type1(g: SignedGraph, v: int, w: int, parity: str) -> bool:
    """Equal odd and even neighbor sets of v and w, or swapped ones for an odd
    addition."""
    ov, ev = g.odd_neighbors(v), g.neighbors(v) - g.odd_neighbors(v)
    ow, ew = g.odd_neighbors(w), g.neighbors(w) - g.odd_neighbors(w)
    if parity == EVEN:
        return ov == ow and ev == ew
    return ov == ew and ev == ow


def centered_form_type2(g: SignedGraph, v: int, w: int, parity: str) -> SivVerdict:
    """The type-2 verdict, conditions included, evaluated on materialized
    switched graphs: an odd addition becomes an even one on g switched at
    (N(w) - N(v)) + {w}, which is then switched to (v,w)-centered form and
    split into blocks; each vertex's Laplacian row is summed over A minus B
    plus twice D."""
    from sivkit import edge_quantities, make_centered, neighborhood_split, switch_at

    if parity != EVEN:
        g = switch_at(g, (g.neighbors(w) - g.neighbors(v)) | {w})
    centered, _ = make_centered(g, v, w)
    split = neighborhood_split(centered, v, w)
    q = edge_quantities(centered, v, w)

    def row_combination(u: int) -> int:
        total = 0
        for block, weight in ((split.A, 1), (split.B, -1), (split.D, 2)):
            for x in block:
                if x == u:
                    total += weight * centered.degree(u)
                elif centered.has_edge(u, x):
                    total += weight if centered.is_odd_edge(u, x) else -weight
        return total

    targets = {
        "A": q.d2 + 1,
        "B": -(q.d1 + 1),
        "C": q.d2 - q.d1,
        "D": q.d1 + q.d2 + 2,
        "E": 0,
    }
    conditions = tuple(
        (name, all(row_combination(u) == targets[name] for u in block))
        for name, block in split.blocks()
    ) + (("positivity", q.a + q.b + 4 * q.d > 0),)
    if all(ok for _, ok in conditions):
        return SivVerdict("type2", s=q.d1 + q.d2 + 1, p=q.d1 * q.d2 + q.t, conditions=conditions)
    return SivVerdict("none", conditions=conditions)


def four_subset_scan_completable(n: int, edges) -> bool:
    """No four vertices induce a path or a perfect matching on two edges."""
    es = {(min(u, v), max(u, v)) for u, v in edges}
    for quad in combinations(range(1, n + 1), 4):
        sub = [pair for pair in combinations(quad, 2) if pair in es]
        if len(sub) == 2 and not set(sub[0]) & set(sub[1]):
            return False
        if len(sub) == 3:
            degrees = sorted(sum(1 for e in sub if v in e) for v in quad)
            if degrees == [1, 1, 2, 2]:
                return False
    return True


def odd_triangle_scan_counts(t: SignedComplete) -> dict[tuple[int, int], int]:
    """Number of odd triangles through each vertex pair, from a scan of every
    triangle."""
    counts = {e: 0 for e in t.all_edges()}
    for u, v, w in combinations(t.vertices, 3):
        odd = sum(1 for e in ((u, v), (u, w), (v, w)) if e in t.odd)
        if odd % 2:
            counts[(u, v)] += 1
            counts[(u, w)] += 1
            counts[(v, w)] += 1
    return counts


def all_switch_sets(n: int):
    vertices = list(range(1, n + 1))
    for size in range(n + 1):
        yield from (set(c) for c in combinations(vertices, size))


def brute_force_switch_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    from sivkit import switch_at

    if g1.edges != g2.edges:
        return False
    return any(switch_at(g1, s) == g2 for s in all_switch_sets(g1.n))


def iter_signed_completes(n: int):
    """All 2^C(n,2) signed complete graphs on n labelled vertices."""
    for odd in iter_subsets(all_pairs(n)):
        yield SignedComplete(n, odd)


def random_signed_complete(rng: random.Random, n: int) -> SignedComplete:
    odd = frozenset(e for e in all_pairs(n) if rng.random() < 0.5)
    return SignedComplete(n, odd)


def remove_edges(g: SignedGraph, edges) -> SignedGraph:
    """g without the listed edges, each of which must be present."""
    for u, v in edges:
        g = g.remove_edge(u, v)
    return g


def final_graph(plan) -> SignedGraph:
    """The plan's start with every planned edge added."""
    g = plan.start
    for step in plan.steps:
        g = g.add_edge(*step.edge, step.parity)
    return g


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
