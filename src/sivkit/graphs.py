"""Signed graphs on labeled vertices 1..n, with the switching calculus.

Every edge carries a parity ("even" or "odd"), switching at a vertex set
flips the parity of the cut edges, and two signings of the same graph are
equivalent exactly when their cycle-space parities agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

Edge = tuple[int, int]

EVEN = "even"
ODD = "odd"
PARITIES = (EVEN, ODD)


def edge(u: int, v: int) -> Edge:
    """Canonical unordered pair; loops are rejected."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _check_parity(parity: str) -> None:
    if parity not in PARITIES:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def _check_pairs(n: int, pairs: Iterable[Edge]) -> None:
    """Refuse any pair that is not (u, v) with 1 <= u < v <= n."""
    for u, v in pairs:
        if not (1 <= u < v <= n):
            raise ValueError(f"pair ({u},{v}) is not a canonical pair in range 1..{n}")


def _masks(n: int, pairs: Iterable[Edge]) -> list[int]:
    """Entry v is the bitmask of v's neighbours over these pairs (bit x is
    vertex x), v in 0..n; entry 0 is 0."""
    masks = [0] * (n + 1)
    for u, v in pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _members(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


@dataclass(frozen=True)
class SignedGraph:
    """Simple graph plus a parity on each present edge (the odd edge set)."""

    n: int
    edges: frozenset[Edge]
    odd: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "odd", frozenset(self.odd))
        _check_pairs(self.n, self.edges)
        if not self.odd <= self.edges:
            raise ValueError("odd edges must be a subset of the edge set")

    @classmethod
    def of(cls, n: int, signed_edges: Iterable[tuple[int, int, str]]) -> SignedGraph:
        """Build from (u, v, parity) triples; duplicates and loops are errors."""
        edges: set[Edge] = set()
        odd: set[Edge] = set()
        for u, v, parity in signed_edges:
            _check_parity(parity)
            e = edge(u, v)
            if e in edges:
                raise ValueError(f"duplicate edge ({u},{v})")
            edges.add(e)
            if parity == ODD:
                odd.add(e)
        return cls(n, frozenset(edges), frozenset(odd))

    @classmethod
    def all_even(cls, n: int, edges: Iterable[Edge]) -> SignedGraph:
        return cls(n, frozenset(edge(u, v) for u, v in edges), frozenset())

    @classmethod
    def complete(cls, n: int, odd: Iterable[Edge] = ()) -> SignedGraph:
        all_pairs = frozenset(combinations(range(1, n + 1), 2))
        return cls(n, all_pairs, frozenset(edge(u, v) for u, v in odd))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def _bits(self) -> tuple[list[int], list[int]]:
        """(neighbours, odd): entry v of each list is a bitmask over the
        vertices, bit x set when x is a neighbour of v, or an odd neighbour.
        Entry 0 is 0.  The lists are shared with graphs made by add_edge, so
        they must not be mutated.  Every neighbour accessor reads them."""
        return _masks(self.n, self.edges), _masks(self.n, self.odd)

    @cached_property
    def _packed(self) -> tuple[int, int, list[int]]:
        """(w, bias, columns): entry j of columns is column j of the signed
        Laplacian L as one integer, L_xj in the signed w-bit slot at bit
        x*w, so L y for a vector y is the sum of y_j times column j.  bias
        is 2^(w-1) in every slot 0..n; entry 0 of columns is 0, and the
        list is shared with graphs made by add_edge, so it must not be
        mutated.

        w = 2*bitlen(n) + 4 packs every vector the oracle compares
        injectively: for u = e_v +- e_w with v, w non-adjacent, every slot
        of L u, L^2 u and a L u + b u (a <= 2n - 1, b read off L^2 u at v)
        is at most 6n^2 < 2^(w-1) in absolute value, and integers whose slots
        all lie strictly between -2^(w-1) and 2^(w-1) are equal exactly when
        their slots are.  A slot is read as ((y + bias) >> x*w & mask) -
        2^(w-1): without the bias, a negative slot borrows from the one
        above it."""
        w = 2 * self.n.bit_length() + 4
        at = [1 << x * w for x in range(self.n + 1)]  # 1 in slot x
        columns = [0] * (self.n + 1)
        for u, v in self.edges:
            # 1 on the diagonal and -1 off it; the odd edges add 2 below
            step = at[u] - at[v]
            columns[u] += step
            columns[v] -= step
        for u, v in self.odd:
            columns[u] += at[v] << 1
            columns[v] += at[u] << 1
        return w, sum(at) << (w - 1), columns

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def adjacency(self, v: int) -> dict[int, bool]:
        """Neighbors of v in ascending order, mapped to True when the joining
        edge is odd; a fresh dict on every call."""
        self._check_vertex(v)
        nbr, odd = self._bits
        return {x: bool(odd[v] >> x & 1) for x in _members(nbr[v])}

    def neighbors(self, v: int) -> set[int]:
        self._check_vertex(v)
        return set(_members(self._bits[0][v]))

    def odd_neighbors(self, v: int) -> set[int]:
        self._check_vertex(v)
        return set(_members(self._bits[1][v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._bits[0][v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return u != v and edge(u, v) in self.edges

    def is_odd_edge(self, u: int, v: int) -> bool:
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) is missing")
        return edge(u, v) in self.odd

    def parity(self, u: int, v: int) -> str:
        return ODD if self.is_odd_edge(u, v) else EVEN

    def add_edge(self, u: int, v: int, parity: str) -> SignedGraph:
        """This graph plus the edge uv of the given parity.

        Each of _bits and _packed that this graph has built is carried to
        the child with entries u and v updated and the rest shared; the
        child builds the other from scratch when it is first read.
        """
        _check_parity(parity)
        e = edge(u, v)
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) already present")
        is_odd = parity == ODD
        child = SignedGraph(self.n, self.edges | {e}, self.odd | {e} if is_odd else self.odd)
        built, carried = vars(self), vars(child)  # writing to vars fills a cached property
        if "_bits" in built:
            nbr, odd = built["_bits"]
            nbr = nbr.copy()
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            if is_odd:
                odd = odd.copy()
                odd[u] |= 1 << v
                odd[v] |= 1 << u
            carried["_bits"] = nbr, odd
        if "_packed" in built:
            w, bias, columns = built["_packed"]
            at_u, at_v = 1 << u * w, 1 << v * w
            columns = columns.copy()
            columns[u] += at_u + at_v if is_odd else at_u - at_v
            columns[v] += at_v + at_u if is_odd else at_v - at_u
            carried["_packed"] = w, bias, columns
        return child

    def remove_edge(self, u: int, v: int) -> SignedGraph:
        e = edge(u, v)
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) is missing")
        return SignedGraph(self.n, self.edges - {e}, self.odd - {e})

    def non_adjacent_pairs(self) -> Iterator[Edge]:
        for pair in combinations(self.vertices, 2):
            if pair not in self.edges:
                yield pair


def switch_at(g: SignedGraph, s: Iterable[int]) -> SignedGraph:
    """Flip the parity of every edge with exactly one end in s."""
    sset = set(s)
    for v in sset:
        g._check_vertex(v)
    odd = frozenset(
        e for e in g.edges if (e in g.odd) ^ ((e[0] in sset) != (e[1] in sset))
    )
    return SignedGraph(g.n, g.edges, odd)


def _spanning_forest(g: SignedGraph) -> dict[int, int]:
    """Depth-first forest as a parent map in discovery order, so every
    parent comes before its children.

    Depends only on the underlying graph, so equal underlying graphs get
    identical forests.
    """
    nbr = g._bits[0]
    parent: dict[int, int] = {}
    seen: set[int] = set()
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            u = stack.pop()
            for x in reversed(_members(nbr[u])):
                if x not in seen:
                    seen.add(x)
                    parent[x] = u
                    stack.append(x)
    return parent


def _odd_path_set(parent: dict[int, int], odd: frozenset[Edge]) -> frozenset[int]:
    """Vertices whose forest path to their root has an odd number of edges in odd."""
    path_odd: dict[int, bool] = {}
    for x, u in parent.items():
        path_odd[x] = path_odd.get(u, False) ^ (edge(u, x) in odd)
    return frozenset(x for x, is_odd in path_odd.items() if is_odd)


def switching_normal_form(g: SignedGraph) -> SignedGraph:
    """Equivalent signing with every spanning-forest edge even.

    Two signings of the same underlying graph are switching equivalent
    exactly when their normal forms coincide.
    """
    return switch_at(g, _odd_path_set(_spanning_forest(g), g.odd))


def _fundamental_cycle(parent: dict[int, int], u: int, v: int) -> tuple[int, ...]:
    """Closed vertex walk: forest path from u to v plus the chord uv."""
    up: list[int] = [u]
    while up[-1] in parent:
        up.append(parent[up[-1]])
    index = {x: i for i, x in enumerate(up)}
    down: list[int] = [v]
    while down[-1] not in index:
        down.append(parent[down[-1]])
    meet = index[down[-1]]
    return tuple(up[: meet + 1] + list(reversed(down[:-1])))


@dataclass(frozen=True)
class SwitchingResult:
    """Decision plus certificate: a switching set when equivalent, otherwise a
    cycle whose parity distinguishes the two signings."""

    equivalent: bool
    witness: frozenset[int] | None = None
    distinguishing_cycle: tuple[int, ...] | None = None


def switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> SwitchingResult:
    """Decide equivalence of two signings from one spanning forest of g1.

    Switching g1 at the vertices whose forest path is odd under g1.odd ^ g2.odd
    turns every forest edge into its g2 parity; the signings are equivalent
    exactly when that switch also matches every chord.
    """
    if g1.n != g2.n:
        raise ValueError("vertex counts differ")
    if g1.edges != g2.edges:
        return SwitchingResult(False)
    parent = _spanning_forest(g1)
    differ = g1.odd ^ g2.odd
    side = _odd_path_set(parent, differ)
    for u, v in sorted(g1.edges):
        if ((u, v) in differ) != ((u in side) != (v in side)):
            return SwitchingResult(False, None, _fundamental_cycle(parent, u, v))
    return SwitchingResult(True, side, None)


def _check_pair(g: SignedGraph, v: int, w: int) -> None:
    """Refuse v == w, a vertex outside g (v first) and an adjacent pair, in
    that order; adjacency is one bit of g._bits."""
    if v == w:
        raise ValueError("v and w must be distinct")
    if not (0 < v <= g.n and 0 < w <= g.n):
        g._check_vertex(v)
        g._check_vertex(w)
    if g._bits[0][v] >> w & 1:
        raise ValueError(f"vertices {v} and {w} are adjacent")


def _laplacian_times(g: SignedGraph, y: dict[int, int]) -> dict[int, int]:
    """L y for g's signed Laplacian L, with y and the result given by their
    nonzero entries (vertex -> value).  Each entry y_j adds column j of L:
    deg(j) y_j at j, and -y_j or +y_j at each even or odd neighbour of j,
    summed into a list indexed by vertex, with j's neighbours read off
    g._bits.  So no row of L is built.  The keys of y must be vertices of g.
    Unlike the oracle's products on g._packed, the entries of y and of L y
    are unbounded: the type-2 certificate check reads it."""
    nbr, odd = g._bits
    out = [0] * (g.n + 1)
    for j, c in y.items():
        out[j] += nbr[j].bit_count() * c
        for x in _members(nbr[j]):
            out[x] += c if odd[j] >> x & 1 else -c
    return {x: c for x, c in enumerate(out) if c}


def is_centered(g: SignedGraph, v: int, w: int) -> bool:
    """All v-edges even and every odd w-edge ends in a common neighbor."""
    if v == w or g.has_edge(v, w):
        return False
    return not g.odd_neighbors(v) and g.odd_neighbors(w) <= (
        g.neighbors(v) & g.neighbors(w)
    )


def make_centered(g: SignedGraph, v: int, w: int) -> tuple[SignedGraph, frozenset[int]]:
    """Switch to an equivalent (v,w)-centered signing; returns graph and set."""
    _check_pair(g, v, w)
    s = frozenset(g.odd_neighbors(v) | (g.odd_neighbors(w) - g.neighbors(v)))
    return switch_at(g, s), s


@dataclass(frozen=True)
class NeighborhoodSplit:
    """Partition of V - {v,w} by adjacency pattern in a (v,w)-centered graph.

    A: neighbors of v only; B: neighbors of w only; C: common neighbors with
    both edges even; D: common neighbors with odd w-edge; E: the rest.
    """

    A: tuple[int, ...]
    B: tuple[int, ...]
    C: tuple[int, ...]
    D: tuple[int, ...]
    E: tuple[int, ...]

    def blocks(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return (("A", self.A), ("B", self.B), ("C", self.C), ("D", self.D), ("E", self.E))


def neighborhood_split(g: SignedGraph, v: int, w: int) -> NeighborhoodSplit:
    if not is_centered(g, v, w):
        raise ValueError(f"graph is not ({v},{w})-centered")
    nv, nw = g.neighbors(v), g.neighbors(w)
    common = nv & nw
    rest = set(g.vertices) - nv - nw - {v, w}
    return NeighborhoodSplit(
        A=tuple(sorted(nv - nw)),
        B=tuple(sorted(nw - nv)),
        C=tuple(sorted(x for x in common if not g.is_odd_edge(w, x))),
        D=tuple(sorted(x for x in common if g.is_odd_edge(w, x))),
        E=tuple(sorted(rest)),
    )


@dataclass(frozen=True)
class EdgeQuantities:
    """Neighborhood counts around a non-adjacent pair: a private to v, b to w,
    c same-sign common, d opposite-sign common, t = c - d, degrees d1, d2."""

    a: int
    b: int
    c: int
    d: int
    t: int
    d1: int
    d2: int


def edge_quantities(g: SignedGraph, v: int, w: int) -> EdgeQuantities:
    _check_pair(g, v, w)
    nv, nw = g.neighbors(v), g.neighbors(w)
    ov, ow = g.odd_neighbors(v), g.odd_neighbors(w)
    common = nv & nw
    c = sum(1 for x in common if (x in ov) == (x in ow))
    d = len(common) - c
    return EdgeQuantities(
        a=len(nv - nw),
        b=len(nw - nv),
        c=c,
        d=d,
        t=c - d,
        d1=len(nv),
        d2=len(nw),
    )
