"""Exhaustive and randomized generators over small signed graphs, and the
sweep that cross-checks classify against siv_oracle on every edge addition."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from .graphs import EVEN, ODD, Edge, SignedGraph
from .sivcheck import classify
from .spectra import SivVerdict, _rechecked_verdicts


def all_pairs(n: int) -> list[Edge]:
    return list(combinations(range(1, n + 1), 2))


def iter_subsets(items: list) -> Iterator[frozenset]:
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def iter_signings(n: int, edges: frozenset[Edge]) -> Iterator[SignedGraph]:
    """All 2^|E| signings of one underlying graph."""
    ordered = sorted(edges)
    for odd in iter_subsets(ordered):
        yield SignedGraph(n, edges, odd)


def iter_signed_graphs(n: int) -> Iterator[SignedGraph]:
    """All signed graphs on n labeled vertices (3^C(n,2) of them)."""
    for edges in iter_subsets(all_pairs(n)):
        yield from iter_signings(n, edges)


def random_signed_graph(
    rng: random.Random, n: int, edge_prob: float = 0.5
) -> SignedGraph:
    edges = frozenset(e for e in all_pairs(n) if rng.random() < edge_prob)
    odd = frozenset(e for e in edges if rng.random() < 0.5)
    return SignedGraph(n, edges, odd)


def cross_check(g: SignedGraph) -> list[tuple[int, int, str, SivVerdict, SivVerdict]]:
    """Every edge addition to g, as (v, w, parity, classify's verdict,
    siv_oracle's verdict): each non-adjacent pair, even before odd.  Each
    positive oracle verdict is re-checked against g's polynomial, which is
    formed only for a graph with a positive verdict."""
    additions = [(v, w, parity) for v, w in g.non_adjacent_pairs() for parity in (EVEN, ODD)]
    return [
        (v, w, parity, classify(g, v, w, parity), oracle)
        for (v, w, parity), oracle in zip(additions, _rechecked_verdicts(g, additions))
    ]
