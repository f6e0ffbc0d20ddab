"""Seeded input generation for the benchmark workloads.

Inputs are built here, in the benchmark's own code, so that set-up time and
the expected answers do not depend on the program under test.  Graphs are
plain ``(n, edges, odd)`` triples with edges as sorted vertex pairs; the
text writers produce the `.sg` / `.sk` formats the `sivkit` command reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Signed graph on 1..n: ``odd`` is the subset of ``edges`` that is odd."""

    n: int
    edges: frozenset[Edge]
    odd: frozenset[Edge]


def pairs(n: int) -> list[Edge]:
    return list(combinations(range(1, n + 1), 2))


def sg_text(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"e {u} {v} {'-' if (u, v) in g.odd else '+'}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def sk_text(t: Graph) -> str:
    """A complete signed graph in `.sk` form (only the odd pairs are listed)."""
    return "\n".join([f"n {t.n}"] + [f"odd {u} {v}" for u, v in sorted(t.odd)]) + "\n"


def _switch(rng: random.Random, *graphs: Graph) -> list[Graph]:
    """Switch each graph at one random vertex set: every edge with exactly
    one end in the set changes parity.  Switching keeps every triangle
    parity and the spectrum, so it changes an input but not its work."""
    flip = {v for v in range(1, graphs[0].n + 1) if rng.random() < 0.5}
    return [
        Graph(g.n, g.edges, frozenset(e for e in g.edges if (e in g.odd) != ((e[0] in flip) != (e[1] in flip))))
        for g in graphs
    ]


def _relabel_and_switch(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)

    def move(e: Edge) -> Edge:
        a, b = perm[e[0] - 1], perm[e[1] - 1]
        return (a, b) if a < b else (b, a)

    relabelled = Graph(g.n, frozenset(map(move, g.edges)), frozenset(map(move, g.odd)))
    return _switch(rng, relabelled)[0]


# --- spectrum-dense ---------------------------------------------------------

# (n, edge density); density 1.0 is a signed complete graph and "K" is a
# complete graph switching-equivalent to the all-even one, whose spectrum
# {0, n^(n-1)} is integral.  One cycle costs about 0.9 s of `spectrum` time on
# a 2-vCPU Xeon; trial division in `integer_spectrum` grows with the product
# of the non-zero eigenvalues, so n and density set each query's cost.
SPECTRUM_SHAPES = ((11, 1.0), (12, 0.85), (12, "K"), (12, 1.0), (13, 0.8), (13, 0.85))


def dense_graph(rng: random.Random, n: int, density) -> Graph:
    if density == "K":
        return _switch(rng, Graph(n, frozenset(pairs(n)), frozenset()))[0]
    edges = frozenset(e for e in pairs(n) if density >= 1.0 or rng.random() < density)
    odd = frozenset(e for e in edges if rng.random() < 0.5)
    return Graph(n, edges, odd)


def spectrum_graphs(seed: int, count: int) -> list[Graph]:
    """Fixed base graphs, each relabelled and switched by the seed.

    The seed changes every input file but no spectrum, so each seed asks
    for the same amount of work and runs differ only by measurement noise.
    """
    base = random.Random("spectrum-dense")
    rng = random.Random(f"spectrum-dense/{seed}")
    shapes = [SPECTRUM_SHAPES[i % len(SPECTRUM_SHAPES)] for i in range(count)]
    return [_relabel_and_switch(rng, dense_graph(base, *shape)) for shape in shapes]


# --- plan-complete ------------------------------------------------------------

# Target orders, cycled.  15 uses the balanced all-odd (Y) construction, the
# others a substituted quotient whose parts carry the all-even (X) edges.
PLAN_ORDERS = (12, 13, 14, 15, 16)


def _substituted(quotient_odd: set[Edge], sizes: list[int]) -> tuple[Graph, list[list[int]]]:
    """Blow quotient vertex i up into an all-even clique of ``sizes[i]``
    vertices; cross edges copy the quotient parity."""
    blocks, start = [], 1
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    n = start - 1
    odd = set()
    for i, j in combinations(range(len(sizes)), 2):
        if (i, j) in quotient_odd:
            odd.update((a, b) for a in blocks[i] for b in blocks[j])
    return Graph(n, frozenset(pairs(n)), frozenset(odd)), blocks


def _tree_closure(rng: random.Random, block: list[int]) -> set[Edge]:
    """Edges from each vertex to all its ancestors in a random rooted tree
    whose every vertex hangs below one of the two placed just before it.

    Closures of rooted forests are exactly the trivially perfect graphs (no
    induced P4 or C4), so removing one from an all-even clique keeps the
    target reachable.  The tree is deep, so a block of b vertices loses at
    least about b^2 / 4 edges: 16 to 28 of the 28 pairs of an 8-vertex block.
    """
    order = block[:]
    rng.shuffle(order)
    ancestors: dict[int, list[int]] = {order[0]: []}
    out: set[Edge] = set()
    for k in range(1, len(order)):
        v, parent = order[k], order[rng.randrange(max(0, k - 2), k)]
        ancestors[v] = ancestors[parent] + [parent]
        out.update((min(v, a), max(v, a)) for a in ancestors[v])
    return out


def _quotient_target(rng: random.Random, n: int) -> tuple[Graph, set[Edge]]:
    """A substituted quotient with one large part and the others of two
    vertices; the large part's closure leaves tens of edges missing."""
    k = 3 if n < 14 else 4
    sizes = [n - 2 * (k - 1)] + [2] * (k - 1)
    rng.shuffle(sizes)
    quotient_odd = {e for e in combinations(range(k), 2) if rng.random() < 0.5}
    target, blocks = _substituted(quotient_odd, sizes)
    missing: set[Edge] = set()
    for block in blocks:
        missing |= _tree_closure(rng, block)
    return target, missing


def _balanced_target(rng: random.Random) -> tuple[Graph, set[Edge]]:
    """Order-15 target whose edge 1-2 is the balanced all-odd edge.

    Vertex 1 is even to all, vertex 2 odd to all but 1, and vertices 3..15
    form a part {3,4,5} (all even) plus ten singletons.  Odd edges among them
    give every part an odd-neighbour weight of 6 = (13 - 1) / 2, which is the
    balance condition: the part is odd to six singletons (set A, each then
    needing three more odd singleton neighbours), and the other four (set B)
    are odd to each other and to three members of A each.
    """
    part = [3, 4, 5]
    singles = list(range(6, 16))
    rng.shuffle(singles)
    a, b = singles[:6], singles[6:]
    while True:
        stubs = [x for x in a for _ in range(2)]
        rng.shuffle(stubs)
        rows = [stubs[3 * i : 3 * i + 3] for i in range(4)]
        if all(len(set(row)) == 3 for row in rows):
            break
    odd_pairs = {(2, x) for x in range(3, 16)}
    odd_pairs |= {(p, x) for p in part for x in a}
    odd_pairs |= {tuple(sorted(e)) for e in combinations(b, 2)}
    odd_pairs |= {tuple(sorted((y, x))) for y, row in zip(b, rows) for x in row}
    matched = a[:]
    rng.shuffle(matched)
    odd_pairs |= {tuple(sorted(matched[i : i + 2])) for i in range(0, 6, 2)}
    target = Graph(15, frozenset(pairs(15)), frozenset(odd_pairs))
    return target, {(1, 2)} | _tree_closure(rng, part)


def plan_case(rng: random.Random, n: int) -> tuple[Graph, Graph]:
    """(start graph, target) with the start completable toward the target."""
    target, missing = _balanced_target(rng) if n == 15 else _quotient_target(rng, n)
    return Graph(n, target.edges - missing, target.odd - missing), target


def plan_cases(seed: int, count: int) -> list[tuple[Graph, Graph]]:
    """Fixed base cases; the seed switches start and target at one vertex
    set, which keeps completability and every spectrum.  Labels stay, since
    the planner's greedy order, and so its work, depends on them."""
    base = random.Random("plan-complete")
    rng = random.Random(f"plan-complete/{seed}")
    cases = [plan_case(base, PLAN_ORDERS[i % len(PLAN_ORDERS)]) for i in range(count)]
    return [tuple(_switch(rng, start, target)) for start, target in cases]


def write_files(files: dict[Path, str]) -> None:
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
