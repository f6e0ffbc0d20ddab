"""Triangle-parity structure of signed complete graphs and completion planning.

For a target signed complete graph, the edge set splits into the edges whose
triangles are all even (they form complete components), at most one edge
whose triangles are all odd with balanced counts at every third vertex, and
the rest.  Those two sets decide exactly which spanning subgraphs can be
grown back to the target one integral-variation edge at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Sequence

from .graphs import EVEN, ODD, Edge, SignedGraph, _check_pairs, _masks, edge
from .polynomials import IntPoly, _div_coeffs, _mul_coeffs
from .spectra import (
    NONE,
    SivVerdict,
    char_poly,
    laplacian_char_poly,
    polynomial_after,
    signed_laplacian,
    siv_oracle,
)


@dataclass(frozen=True)
class SignedComplete:
    """Complete graph on 1..n where exactly the listed pairs are odd."""

    n: int
    odd: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        object.__setattr__(self, "odd", frozenset(self.odd))
        _check_pairs(self.n, self.odd)

    @classmethod
    def of(cls, n: int, odd: Iterable[Edge] = ()) -> SignedComplete:
        return cls(n, frozenset(edge(u, v) for u, v in odd))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def all_edges(self) -> list[Edge]:
        return list(combinations(self.vertices, 2))

    def parity(self, u: int, v: int) -> str:
        e = edge(u, v)
        _check_pairs(self.n, (e,))
        return ODD if e in self.odd else EVEN

    @cached_property
    def _pair_counts(self) -> dict[Edge, int]:
        """Odd triangles through each vertex pair, counted once per target
        for x_set and y_set; shared, so callers must not modify it."""
        return _odd_triangle_pair_counts(self)


def triangle_parity(t: SignedComplete | SignedGraph, u: int, v: int, w: int) -> str:
    """Parity of the number of odd edges among uv, uw, vw."""
    if len({u, v, w}) < 3:
        raise ValueError("triangle needs three distinct vertices")
    count = sum(1 for a, b in ((u, v), (u, w), (v, w)) if t.parity(a, b) == ODD)
    return ODD if count % 2 else EVEN


def _require_order_at_least_four(t: SignedComplete) -> None:
    if t.n < 4:
        raise ValueError("at least four vertices required")


def _odd_triangle_pair_counts(t: SignedComplete) -> dict[Edge, int]:
    """Number of odd triangles through each vertex pair.

    With O_x the bitmask of x's closed odd neighbourhood, a third vertex z
    joins u and v by edges of different parity exactly at the bits of
    O_u ^ O_v other than u and v; say d of them.  The triangle uvz is odd at
    those d vertices when uv is even, and at the other n - 2 - d when uv is
    odd.
    """
    odd_mask = _closed_masks(t.n, t.odd)
    counts: dict[Edge, int] = {}
    for u, v in t.all_edges():
        d = ((odd_mask[u] ^ odd_mask[v]) & ~((1 << u) | (1 << v))).bit_count()
        counts[(u, v)] = t.n - 2 - d if (u, v) in t.odd else d
    return counts


def x_set(t: SignedComplete) -> frozenset[Edge]:
    """Edges all of whose triangles are even."""
    _require_order_at_least_four(t)
    return frozenset(e for e, c in t._pair_counts.items() if c == 0)


def _balanced_at(counts: dict[Edge, int], n: int, v: int, w: int) -> bool:
    """Odd triangles through (u, v) exceed even ones by exactly one, for all u."""
    return all(
        2 * counts[edge(u, v)] == n - 1 for u in range(1, n + 1) if u != v and u != w
    )


def y_set(t: SignedComplete) -> frozenset[Edge]:
    """Edges all of whose triangles are odd, with the one-more-odd balance at
    every third vertex.

    The balance is read toward v only: when every triangle on vw is odd, uvx
    and uwx have the same parity, so u counts as many odd triangles with v as
    with w.
    """
    _require_order_at_least_four(t)
    counts = t._pair_counts
    return frozenset(
        (v, w)
        for v, w in t.all_edges()
        if counts[(v, w)] == t.n - 2 and _balanced_at(counts, t.n, v, w)
    )


def swap_y(t: SignedComplete) -> SignedComplete:
    """Flip the parity of the balanced all-odd edge, if there is one.

    Afterwards that edge joins the all-even set and no balanced all-odd edge
    remains, so the operation is idempotent.
    """
    return SignedComplete(t.n, t.odd ^ y_set(t))


def substitute(quotient: SignedGraph, parts: Mapping[int, SignedGraph]) -> SignedGraph:
    """Blow each quotient vertex up into its replacement graph.

    Quotient vertex q takes the next consecutive block of labels, one per
    vertex of its replacement graph.  Replacement graphs keep their internal
    edges and signs; each quotient edge becomes a complete bipartite join
    whose edges all copy its parity.
    """
    if set(parts) != set(quotient.vertices):
        raise ValueError("every quotient vertex needs exactly one replacement graph")
    blocks: dict[int, range] = {}
    total = 0
    for q in quotient.vertices:
        blocks[q] = range(total + 1, total + parts[q].n + 1)
        total += parts[q].n
    edges: set[Edge] = set()
    odd: set[Edge] = set()
    for q in quotient.vertices:
        block = blocks[q]
        for u, v in parts[q].edges:
            e = edge(block[u - 1], block[v - 1])
            edges.add(e)
            if (u, v) in parts[q].odd:
                odd.add(e)
    for q1, q2 in quotient.edges:
        is_odd = (q1, q2) in quotient.odd
        for a in blocks[q1]:
            for b in blocks[q2]:
                e = edge(a, b)
                edges.add(e)
                if is_odd:
                    odd.add(e)
    return SignedGraph(total, frozenset(edges), frozenset(odd))


def _coupling_matrix(
    quotient: SignedGraph, sizes: Sequence[int], diagonal: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """The k x k matrix by which a Laplacian acts on the vectors constant on
    each part, for a quotient on 1..k whose vertex i stands for a part of
    sizes[i - 1] vertices: M_ii = diagonal[i - 1], and M_ij = s_j for an odd
    quotient pair ij, -s_j for an even one and 0 for no pair."""
    rows = []
    for i, d in enumerate(diagonal, 1):
        adj = quotient.adjacency(i)
        rows.append(
            tuple(
                d if j == i else 0 if j not in adj else s if adj[j] else -s
                for j, s in enumerate(sizes, 1)
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class SubstitutionSpectrum:
    """Spectrum of a substituted graph, split into the join-level factor
    (characteristic polynomial of the small coupling matrix) and the
    mass-shifted leftover eigenvalues of each replacement graph."""

    m_matrix: tuple[tuple[int, ...], ...]
    m_poly: IntPoly
    shifted_poly: IntPoly
    part_eigenvalues: tuple[int, ...]

    @property
    def total_poly(self) -> IntPoly:
        return IntPoly(_mul_coeffs(self.m_poly.coeffs, self.shifted_poly.coeffs))


def substitution_spectrum(
    quotient: SignedGraph, parts: Mapping[int, SignedGraph]
) -> SubstitutionSpectrum:
    """Exact spectrum of substitute(quotient, parts) via the coupling matrix.

    Requires the all-ones vector to be an eigenvector of every replacement
    graph's Laplacian, i.e. each replacement graph must have a constant
    number of odd neighbors at every vertex.
    """
    if set(parts) != set(quotient.vertices):
        raise ValueError("every quotient vertex needs exactly one replacement graph")
    order = list(quotient.vertices)
    lams = []
    for q in order:
        part = parts[q]
        row_sums = {2 * len(part.odd_neighbors(u)) for u in part.vertices}
        if len(row_sums) != 1:
            raise ValueError(
                f"all-ones vector is not a Laplacian eigenvector of part {q}"
            )
        lams.append(row_sums.pop())
    sizes = [parts[q].n for q in order]
    masses = [sum(sizes[x - 1] for x in quotient.neighbors(q)) for q in order]
    diagonal = [lam + mass for lam, mass in zip(lams, masses)]
    m_matrix = _coupling_matrix(quotient, sizes, diagonal)
    shifted = [1]
    for q, mass, d in zip(order, masses, diagonal):
        # det(xI - L - mass I) is the part's polynomial p(x - mass)
        rows = [list(row) for row in signed_laplacian(parts[q])]
        for i, row in enumerate(rows):
            row[i] += mass
        shifted = _mul_coeffs(shifted, _div_coeffs(char_poly(rows).coeffs, (-d, 1)))
    return SubstitutionSpectrum(
        m_matrix=m_matrix,
        m_poly=char_poly(m_matrix),
        shifted_poly=IntPoly(tuple(shifted)),
        part_eigenvalues=tuple(lams),
    )


@dataclass(frozen=True)
class QuotientDecomposition:
    """Decomposition of a signed complete graph along its all-even-triangle
    edges: the complete components those edges induce, a switching set making
    them all even, and the small signed complete graph they contract to."""

    k: int
    parts: tuple[tuple[int, ...], ...]
    quotient: SignedComplete
    switching_set: frozenset[int]


def quotient_decomposition(t: SignedComplete) -> QuotientDecomposition:
    return _decompose(t, x_set(t))


def _decompose(t: SignedComplete, x_edges: Iterable[Edge]) -> QuotientDecomposition:
    """quotient_decomposition along the given all-even-triangle edges; with
    none, every vertex is its own part and the quotient is t."""
    # A vertex's closed X-neighbourhood is its part exactly when every
    # component is complete.  Each part is read at its smallest vertex, the
    # one below every other bit of its mask; a component that is not complete
    # has a member whose mask differs from that of its smallest vertex.
    closed = _closed_masks(t.n, x_edges)
    parts: list[tuple[int, ...]] = []
    for v in t.vertices:
        mask = closed[v]
        if mask & -mask == 1 << v:
            part = tuple(x for x in t.vertices if mask >> x & 1)
            if any(closed[x] != mask for x in part):
                raise RuntimeError("all-even-triangle components are not complete")
            parts.append(part)
    switching: set[int] = set()
    for part in parts:
        root = part[0]
        switching.update(u for u in part[1:] if edge(root, u) in t.odd)
    quotient_odd: set[Edge] = set()
    for i, j in combinations(range(len(parts)), 2):
        parities = {
            (edge(a, b) in t.odd) ^ (a in switching) ^ (b in switching)
            for a in parts[i]
            for b in parts[j]
        }
        if len(parities) != 1:
            raise RuntimeError("cross parities between components are not uniform")
        if parities.pop():
            quotient_odd.add((i + 1, j + 1))
    return QuotientDecomposition(
        k=len(parts),
        parts=tuple(parts),
        quotient=SignedComplete(len(parts), frozenset(quotient_odd)),
        switching_set=frozenset(switching),
    )


def _target_char_poly(t: SignedComplete, x_edges: Iterable[Edge]) -> IntPoly:
    """det(xI - L) for the target's Laplacian L, from its quotient along
    x_edges, its all-even-triangle edges.

    Switched so that each of the k parts is all-even, any vector that sums to
    zero inside one part and is zero elsewhere is an eigenvector of L for n.
    On the vectors constant on each part L acts as the k x k matrix M with
    M_ii = n - s_i, and M_ij = s_j for an odd quotient pair and -s_j for an
    even one, s_i the part sizes.  So det(xI - L) = det(xI - M) (x - n)^(n - k).
    """
    deco = _decompose(t, x_edges)
    n, k = t.n, deco.k
    sizes = [len(part) for part in deco.parts]
    # n is the target's own, not the sum of the sizes, so a decomposition
    # that lost a vertex gives another polynomial
    quotient = SignedGraph.complete(k, deco.quotient.odd)
    m = _coupling_matrix(quotient, sizes, [n - s for s in sizes])
    power = [comb(n - k, i) * (-n) ** (n - k - i) for i in range(n - k + 1)]
    return IntPoly(_mul_coeffs(char_poly(m).coeffs, power))


def _closed_masks(n: int, m: Iterable[Edge]) -> list[int]:
    """closed[v] = {v} + N_M(v) as a bitmask (bit x is vertex x), v in 1..n."""
    return [mask | 1 << v for v, mask in enumerate(_masks(n, m))]


def _nested_at(closed: list[int], x: int) -> bool:
    """The closed neighbourhood of x is nested with that of each neighbour,
    visiting only the set bits of closed[x]."""
    cx = rest = closed[x]
    while rest:
        bit = rest & -rest
        cy = closed[bit.bit_length() - 1]
        if cx & cy not in (cx, cy):
            return False
        rest ^= bit
    return True


def _nested(n: int, m: Iterable[Edge]) -> bool:
    """The graph M on 1..n with these edges has no induced P4 or C4.

    That holds exactly when the closed neighbourhoods of the two ends of
    every edge uv of M are nested (Wolk 1962; Golumbic 1978): a neighbour x
    of u only and a neighbour y of v only form the path x-u-v-y in M, or the
    4-cycle when xy is in M.
    """
    closed = _closed_masks(n, m)
    return all(_nested_at(closed, x) for x in range(1, n + 1))


def is_plain_integrally_completable(n: int, edges: Iterable[Edge]) -> bool:
    """No four vertices induce a path or a perfect matching on two edges.

    Equivalently the complement M of the present edges has no induced P4 or
    C4, which _nested decides.
    """
    present = {edge(u, v) for u, v in edges}
    return _nested(n, [e for e in combinations(range(1, n + 1), 2) if e not in present])


def _split_missing(
    g: SignedGraph, target: SignedComplete
) -> tuple[list[Edge], list[Edge], list[int], frozenset[Edge]] | None:
    """The completability decision: the sorted missing Y edges, the sorted
    missing X edges, the closed masks of M, the graph those X edges form, and
    the target's X set; None when g is not completable.  On at most three
    vertices only the signs matter, every missing edge goes with the X edges,
    and the X set is given as empty, so that every vertex is its own part."""
    if g.n != target.n:
        raise ValueError("vertex counts differ")
    if g.odd != target.odd & g.edges:
        return None
    missing = [e for e in target.all_edges() if e not in g.edges]
    if g.n <= 3:
        return [], missing, _closed_masks(g.n, missing), frozenset()
    x, y = x_set(target), y_set(target)
    pool = [e for e in missing if e not in y]
    closed = _closed_masks(g.n, pool)
    if not x.issuperset(pool) or not all(_nested_at(closed, v) for v in target.vertices):
        return None
    return [e for e in missing if e in y], pool, closed, x


def is_sigma_completable(g: SignedGraph, target: SignedComplete) -> bool:
    """Decide whether g can be grown to the target by integral-variation
    edge additions.

    For four or more vertices: every missing edge must be an all-even or the
    balanced all-odd edge of the target, signs must agree with the target,
    and the complete graph minus the not-yet-present all-even-triangle edges
    must be plainly completable.  On at most three vertices only the sign
    restriction matters.
    """
    return _split_missing(g, target) is not None


@dataclass(frozen=True)
class PlanStep:
    edge: Edge
    parity: str
    verdict: SivVerdict

    def to_json_dict(self) -> dict:
        out = {"edge": list(self.edge), "parity": self.parity}
        out.update(self.verdict.to_json_dict())
        return out


@dataclass(frozen=True)
class CompletionPlan:
    """Ordered, oracle-certified edge additions from start to target."""

    start: SignedGraph
    target: SignedComplete
    steps: tuple[PlanStep, ...]


def plan_completion(g: SignedGraph, target: SignedComplete) -> CompletionPlan | None:
    """Build a certified addition sequence from g to the target; None exactly
    when is_sigma_completable is false.

    The balanced all-odd edge (when missing) goes first; the remaining
    missing edges are all-even-triangle edges and are ordered greedily, each
    chosen so the completability predicate stays true.  Every step carries
    its own verified oracle verdict.

    The oracle reads each step from one or two products L y.  The Laplacian
    polynomial is carried from step to step by each verdict's own identity
    (polynomial_after, which re-checks the verdict against it), and the
    target's polynomial checks the chain: det(xI - M) (x - n)^(n - k), from
    the k x k matrix M of its quotient along the X set (_target_char_poly).
    """
    split = _split_missing(g, target)
    if split is None:
        return None
    order, pool, closed, x_edges = split
    # Every addition keeps the target's signs and leaves only all-even edges
    # missing, so of the completability conditions only the plain one can
    # change, and M is the pool; the order depends on M alone.  M passes
    # before every step (below four vertices every M does), and removing uv
    # changes only closed[u] and closed[v], so only u and v are re-checked.
    while pool:
        for e in pool:
            u, v = e
            closed[u] ^= 1 << v
            closed[v] ^= 1 << u
            if _nested_at(closed, u) and _nested_at(closed, v):
                order.append(e)
                pool.remove(e)
                break
            closed[u] ^= 1 << v
            closed[v] ^= 1 << u
        else:
            raise RuntimeError("no admissible edge addition found")
    steps: list[PlanStep] = []
    current = g
    p = laplacian_char_poly(g)
    for e in order:
        parity = target.parity(*e)
        verdict = siv_oracle(current, *e, parity)
        if verdict.kind == NONE:
            raise RuntimeError(f"planned addition of {e} is not an integral step")
        steps.append(PlanStep(e, parity, verdict))
        current = current.add_edge(*e, parity)
        p = polynomial_after(p, verdict)
    if current.odd != target.odd or len(current.edges) != target.n * (target.n - 1) // 2:
        raise RuntimeError("plan did not reach the target")
    if p != _target_char_poly(target, x_edges):
        raise RuntimeError("the polynomial carried through the plan is not the target's")
    return CompletionPlan(start=g, target=target, steps=tuple(steps))
