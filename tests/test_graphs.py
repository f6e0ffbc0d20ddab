import random
import re
from itertools import combinations
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sivkit import (
    EVEN,
    ODD,
    SignedComplete,
    SignedGraph,
    build_type2_eigenvectors,
    classify,
    edge_quantities,
    laplacian_char_poly,
    is_centered,
    make_centered,
    neighborhood_split,
    plan_completion,
    siv_oracle,
    switch_at,
    switching_equivalent,
    switching_normal_form,
)
from sivkit.enumeration import cross_check, iter_signed_graphs, iter_signings
from sivkit.fileio import MAX_VERTICES
from sivkit.graphs import _laplacian_times

from conftest import (
    all_switch_sets,
    brute_force_switch_equivalent,
    graphs_with_nonadjacent_pair,
    random_graphs,
    signed_graphs,
)


def k2(parity=EVEN):
    return SignedGraph.of(2, [(1, 2, parity)])


class TestSignedGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignedGraph(0, frozenset(), frozenset())
        with pytest.raises(ValueError):
            SignedGraph(2, frozenset({(2, 1)}), frozenset())
        with pytest.raises(ValueError):
            SignedGraph(2, frozenset({(1, 3)}), frozenset())
        with pytest.raises(ValueError):
            SignedGraph(2, frozenset(), frozenset({(1, 2)}))
        with pytest.raises(ValueError):
            SignedGraph.of(3, [(1, 2, EVEN), (2, 1, ODD)])  # duplicate
        with pytest.raises(ValueError):
            SignedGraph.of(3, [(2, 2, EVEN)])  # loop

    def test_accessors(self):
        g = SignedGraph.of(4, [(1, 2, ODD), (2, 3, EVEN)])
        assert g.neighbors(2) == {1, 3}
        assert g.odd_neighbors(2) == {1}
        assert g.adjacency(2) == {1: True, 3: False}
        assert g.degree(4) == 0
        assert g.parity(1, 2) == ODD
        assert sorted(g.non_adjacent_pairs()) == [(1, 3), (1, 4), (2, 4), (3, 4)]
        with pytest.raises(ValueError):
            g.parity(1, 4)
        with pytest.raises(ValueError):
            g.degree(9)

    @pytest.mark.parametrize("accessor", ["adjacency", "neighbors", "odd_neighbors", "degree"])
    @pytest.mark.parametrize("v", [0, -1, 5])
    def test_accessors_refuse_a_vertex_outside_the_graph(self, accessor, v):
        # the masks have an entry 0, and index -1 reads entry n
        g = SignedGraph.of(4, [(1, 2, ODD), (2, 3, EVEN), (3, 4, ODD)])
        with pytest.raises(ValueError, match=re.escape(f"vertex {v} out of range 1..4")):
            getattr(g, accessor)(v)

    def test_mutating_an_answer_leaves_the_graph_unchanged(self):
        g = SignedGraph.of(4, [(1, 2, ODD), (2, 3, EVEN)])
        child = g.add_edge(3, 4, EVEN)
        g.adjacency(2)[4] = True
        del g.adjacency(2)[1]
        g.neighbors(2).add(4)
        g.odd_neighbors(2).clear()
        for h in (g, child):
            assert h.adjacency(2) == {1: True, 3: False}
            assert h.neighbors(2) == {1, 3} and h.odd_neighbors(2) == {1}
            assert h.degree(2) == 2

    def test_accessors_match_the_edge_sets(self):
        for n in range(1, MAX_VERTICES + 1):
            for g in random_graphs(n, 3, n, 0.1 + 0.8 * (n % 5) / 4):
                for v in g.vertices:
                    nbrs = {x for e in g.edges if v in e for x in e if x != v}
                    odd = {x for e in g.odd if v in e for x in e if x != v}
                    assert g.neighbors(v) == nbrs and g.odd_neighbors(v) == odd, (g, v)
                    assert g.degree(v) == len(nbrs), (g, v)
                    # ascending keys
                    assert list(g.adjacency(v).items()) == [(x, x in odd) for x in sorted(nbrs)]

    def test_add_remove(self):
        g = k2()
        with pytest.raises(ValueError):
            g.add_edge(1, 2, EVEN)
        empty = g.remove_edge(1, 2)
        assert empty.edges == frozenset()
        assert empty.add_edge(1, 2, EVEN) == g
        assert empty.add_edge(1, 2, ODD) == k2(ODD)
        with pytest.raises(ValueError):
            empty.remove_edge(1, 2)

    @given(graphs_with_nonadjacent_pair(min_n=2, max_n=7))
    def test_add_edge_matches_a_graph_built_from_scratch(self, case):
        g, u, v, parity = case
        before = {x: dict(g.adjacency(x)) for x in g.vertices}
        child = g.add_edge(u, v, parity)
        # the parent answers as it did before the addition
        assert {x: g.adjacency(x) for x in g.vertices} == before
        odd = g.odd | {(u, v)} if parity == ODD else g.odd
        scratch = SignedGraph(g.n, g.edges | {(u, v)}, odd)
        assert child == scratch
        assert hash(child) == hash(scratch)
        assert {x: child.adjacency(x) for x in child.vertices} == {
            x: scratch.adjacency(x) for x in scratch.vertices
        }

    def test_add_edge_chain_matches_a_graph_built_from_scratch(self):
        for g in iter_signed_graphs(4):
            grown = SignedGraph(4, frozenset(), frozenset())
            for e in sorted(g.edges):
                grown = grown.add_edge(*e, g.parity(*e))
            assert grown == g
            assert all(grown.adjacency(x) == g.adjacency(x) for x in g.vertices)

    @pytest.mark.parametrize(
        "u, v, parity, message",
        [
            (2, 2, EVEN, "loop at vertex 2"),
            (1, 5, EVEN, "vertex 5 out of range 1..4"),
            (0, 3, ODD, "vertex 0 out of range 1..4"),
            (2, 1, ODD, "edge (2,1) already present"),
            (1, 3, "positive", "parity must be 'even' or 'odd', got 'positive'"),
            (1, 1, "positive", "parity must be 'even' or 'odd', got 'positive'"),
        ],
    )
    def test_add_edge_refusals(self, u, v, parity, message):
        g = SignedGraph.of(4, [(1, 2, ODD), (2, 3, EVEN)])
        with pytest.raises(ValueError, match=re.escape(message)):
            g.add_edge(u, v, parity)


    def test_the_library_never_writes_an_adjacency_row(self, monkeypatch):
        # the library's readers of adjacency only read it: serve every row
        # read-only while they run.
        adjacency = SignedGraph.adjacency
        monkeypatch.setattr(
            SignedGraph, "adjacency", lambda self, v: MappingProxyType(adjacency(self, v))
        )
        for g in iter_signed_graphs(4):
            cross_check(g)
            switching_normal_form(g)
            laplacian_char_poly(g)
            for v, w in g.non_adjacent_pairs():
                edge_quantities(g, v, w)
                centered, _ = make_centered(g, v, w)
                for parity in (EVEN, ODD):
                    assert siv_oracle(g, v, w, parity).kind == classify(g, v, w, parity).kind
                    verdict = classify(centered, v, w, parity)
                    if verdict.kind == "type2":
                        build_type2_eigenvectors(centered, v, w, verdict)
        plan_completion(SignedGraph(7, frozenset(), frozenset()), SignedComplete.of(7))
        # a target whose balanced all-odd edge (1, 2) is missing: a type-2 step
        odd = [(2, u) for u in range(3, 8)] + [(3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
        t = SignedComplete.of(7, odd)
        plan = plan_completion(SignedGraph.complete(t.n, t.odd).remove_edge(1, 2), t)
        assert [s.verdict.kind for s in plan.steps] == ["type2"]


class TestSwitchAt:
    def test_empty_and_full_sets_fix_the_graph(self):
        for g in iter_signed_graphs(3):
            assert switch_at(g, set()) == g
            assert switch_at(g, set(g.vertices)) == g

    def test_k2_singleton(self):
        assert switch_at(k2(EVEN), {1}) == k2(ODD)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            switch_at(k2(), {5})

    @given(signed_graphs(max_n=5), st.integers(1, 5), st.integers(1, 5))
    def test_involution_and_commutation(self, g, u, v):
        u = 1 + (u - 1) % g.n
        v = 1 + (v - 1) % g.n
        assert switch_at(switch_at(g, {u}), {u}) == g
        assert switch_at(switch_at(g, {u}), {v}) == switch_at(switch_at(g, {v}), {u})

    @given(signed_graphs(min_n=2, max_n=5))
    def test_composition_is_symmetric_difference(self, g):
        assert switch_at(switch_at(g, {1}), {2}) == switch_at(g, {1, 2})


class TestSwitchingEquivalent:
    def test_tree_signings_collapse(self):
        p3_odd = SignedGraph.of(3, [(1, 2, ODD), (2, 3, EVEN)])
        p3_even = SignedGraph.of(3, [(1, 2, EVEN), (2, 3, EVEN)])
        res = switching_equivalent(p3_odd, p3_even)
        assert res.equivalent
        assert switch_at(p3_odd, res.witness) == p3_even

    def test_triangle_parity_is_invariant(self):
        odd_tri = SignedGraph.of(3, [(1, 2, ODD), (1, 3, EVEN), (2, 3, EVEN)])
        even_tri = SignedGraph.complete(3)
        # ground truth by brute force over all 8 switchings
        assert not brute_force_switch_equivalent(odd_tri, even_tri)
        res = switching_equivalent(odd_tri, even_tri)
        assert not res.equivalent
        assert res.distinguishing_cycle is not None

    def test_identity(self):
        g = SignedGraph.of(3, [(1, 2, ODD)])
        res = switching_equivalent(g, g)
        assert res.equivalent and res.witness == frozenset()

    def test_different_underlying_graphs(self):
        res = switching_equivalent(k2(), SignedGraph(2, frozenset(), frozenset()))
        assert not res.equivalent and res.witness is None

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            switching_equivalent(k2(), SignedGraph.complete(3))

    def test_against_brute_force_exhaustively(self):
        # all pairs of signings of every underlying graph on 4 vertices
        from sivkit.enumeration import all_pairs, iter_subsets

        for edges in iter_subsets(all_pairs(4)):
            signings = list(iter_signings(4, edges))
            for g1 in signings:
                for g2 in signings:
                    res = switching_equivalent(g1, g2)
                    assert res.equivalent == brute_force_switch_equivalent(g1, g2)
                    if res.equivalent:
                        assert switch_at(g1, res.witness) == g2
                    else:
                        # cycle parity differs between the two signings
                        cyc = res.distinguishing_cycle
                        closed = list(cyc) + [cyc[0]]
                        par1 = sum(
                            g1.is_odd_edge(a, b) for a, b in zip(closed, closed[1:])
                        )
                        par2 = sum(
                            g2.is_odd_edge(a, b) for a, b in zip(closed, closed[1:])
                        )
                        assert par1 % 2 != par2 % 2

    @given(signed_graphs(min_n=2, max_n=6), st.sets(st.integers(1, 6)))
    def test_switched_graph_is_equivalent(self, g, s):
        s = {1 + (v - 1) % g.n for v in s}
        h = switch_at(g, s)
        res = switching_equivalent(g, h)
        assert res.equivalent
        assert switch_at(g, res.witness) == h

    def test_normal_form_is_canonical(self):
        for edges in (frozenset({(1, 2), (2, 3), (1, 3), (3, 4)}),):
            signings = list(iter_signings(4, edges))
            for g1 in signings:
                for g2 in signings:
                    same = switching_normal_form(g1) == switching_normal_form(g2)
                    assert same == switching_equivalent(g1, g2).equivalent


class TestMakeCentered:
    def test_all_even_graph_is_unchanged(self):
        g = SignedGraph.all_even(4, [(1, 2), (2, 3), (3, 4)])
        out, s = make_centered(g, 1, 4)
        assert out == g and s == frozenset()

    def test_path_with_odd_first_edge(self):
        # v=1, u=2, w=3 with 12 odd: switching at {2} makes 12 even and 23 odd
        g = SignedGraph.of(3, [(1, 2, ODD), (2, 3, EVEN)])
        out, s = make_centered(g, 1, 3)
        assert s == frozenset({2})
        assert out.parity(1, 2) == EVEN and out.parity(2, 3) == ODD
        assert is_centered(out, 1, 3)

    def test_odd_edge_at_w_outside_common_neighborhood(self):
        g = SignedGraph.of(3, [(2, 3, ODD)])  # v=1 isolated, w=2 with odd edge to 3
        out, s = make_centered(g, 1, 2)
        assert s == frozenset({3})
        assert out.parity(2, 3) == EVEN

    def test_adjacent_pair_rejected(self):
        with pytest.raises(ValueError):
            make_centered(k2(), 1, 2)

    def test_exhaustive_small_graphs(self):
        for g in iter_signed_graphs(4):
            for v, w in g.non_adjacent_pairs():
                out, s = make_centered(g, v, w)
                assert is_centered(out, v, w)
                assert switch_at(g, s) == out

    @given(graphs_with_nonadjacent_pair(max_n=6))
    def test_postconditions(self, instance):
        g, v, w, _ = instance
        out, s = make_centered(g, v, w)
        assert is_centered(out, v, w)
        assert switch_at(g, s) == out


class TestNeighborhoodSplit:
    def test_single_private_neighbor(self):
        g = SignedGraph.of(3, [(1, 2, EVEN)])  # v=1-u=2 even, w=3 isolated
        split = neighborhood_split(g, 1, 3)
        assert split.A == (2,) and split.B == split.C == split.D == split.E == ()

    def test_all_even_common_neighbors(self):
        g = SignedGraph.all_even(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        split = neighborhood_split(g, 1, 2)
        assert split.C == (3, 4) and split.A == split.B == split.D == split.E == ()

    def test_odd_w_edges_fall_in_d(self):
        g = SignedGraph.of(
            4, [(1, 3, EVEN), (1, 4, EVEN), (2, 3, ODD), (2, 4, ODD), (3, 4, EVEN)]
        )
        split = neighborhood_split(g, 1, 2)
        assert split.D == (3, 4) and split.A == split.B == split.C == split.E == ()

    def test_partition_property(self):
        for g in iter_signed_graphs(4):
            for v, w in g.non_adjacent_pairs():
                centered, _ = make_centered(g, v, w)
                split = neighborhood_split(centered, v, w)
                union = set(split.A) | set(split.B) | set(split.C) | set(split.D) | set(split.E)
                assert union == set(g.vertices) - {v, w}
                total = len(split.A) + len(split.B) + len(split.C) + len(split.D) + len(split.E)
                assert total == g.n - 2

    def test_uncentered_graph_rejected(self):
        g = SignedGraph.of(3, [(1, 2, ODD)])
        with pytest.raises(ValueError):
            neighborhood_split(g, 1, 3)


class TestEdgeQuantities:
    def test_private_neighbor(self):
        g = SignedGraph.of(3, [(1, 2, EVEN)])
        q = edge_quantities(g, 1, 3)
        assert (q.a, q.b, q.c, q.d, q.t) == (1, 0, 0, 0, 0)

    def test_common_even_neighbors(self):
        g = SignedGraph.all_even(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        q = edge_quantities(g, 1, 2)
        assert (q.a, q.b, q.c, q.d, q.t) == (0, 0, 2, 0, 2)

    def test_opposite_sign_neighbors(self):
        g = SignedGraph.of(
            4, [(1, 3, EVEN), (1, 4, EVEN), (2, 3, ODD), (2, 4, ODD), (3, 4, EVEN)]
        )
        q = edge_quantities(g, 1, 2)
        assert (q.c, q.d, q.t) == (0, 2, -2)

    def test_adjacent_pair_rejected(self):
        with pytest.raises(ValueError):
            edge_quantities(k2(), 1, 2)

    @given(graphs_with_nonadjacent_pair(max_n=6))
    def test_degree_identities(self, instance):
        g, v, w, _ = instance
        q = edge_quantities(g, v, w)
        assert q.d1 == q.a + q.c + q.d
        assert q.d2 == q.b + q.c + q.d
        assert q.d1 == g.degree(v) and q.d2 == g.degree(w)

    def test_matches_split_sizes_on_centered_graphs(self):
        for g in iter_signed_graphs(4):
            for v, w in g.non_adjacent_pairs():
                centered, _ = make_centered(g, v, w)
                q = edge_quantities(centered, v, w)
                split = neighborhood_split(centered, v, w)
                assert (q.a, q.b, q.c, q.d) == (
                    len(split.A),
                    len(split.B),
                    len(split.C),
                    len(split.D),
                )


def dense_laplacian(g: SignedGraph) -> list[list[int]]:
    """The signed Laplacian as rows indexed 1..n, built from the edge set."""
    lap = [[0] * (g.n + 1) for _ in range(g.n + 1)]
    for u, v in g.edges:
        lap[u][v] = lap[v][u] = 1 if (u, v) in g.odd else -1
        lap[u][u] += 1
        lap[v][v] += 1
    return lap


def dense_laplacian_times(g: SignedGraph, y: dict[int, int]) -> dict[int, int]:
    """L y from the dense n x n signed Laplacian."""
    lap = dense_laplacian(g)
    out = {u: sum(lap[u][j] * c for j, c in y.items()) for u in g.vertices}
    return {u: c for u, c in out.items() if c}


class TestLaplacianTimes:
    def test_against_the_dense_product(self):
        rng = random.Random("laplacian-times")
        for n in (1, 2, 4, 7, 13):
            for g in random_graphs(n, 20, n):
                for _ in range(5):
                    support = rng.sample(list(g.vertices), rng.randint(1, n))
                    y = {j: rng.randint(-3, 3) for j in support}
                    assert _laplacian_times(g, y) == dense_laplacian_times(g, y), (g, y)

    def test_entries_cancel_at_common_neighbours(self):
        # 3 is an even neighbour of 1 and of 2, 4 an even neighbour of 1 and
        # an odd one of 2: L(e1 - e2) is 0 at 3, and L(e1 + e2) is 0 at 4
        g = SignedGraph.of(4, [(1, 3, EVEN), (2, 3, EVEN), (1, 4, EVEN), (2, 4, ODD)])
        minus = {1: 1, 2: -1}
        plus = {1: 1, 2: 1}
        assert _laplacian_times(g, minus) == dense_laplacian_times(g, minus) == {1: 2, 2: -2, 4: -2}
        assert _laplacian_times(g, plus) == dense_laplacian_times(g, plus) == {1: 2, 2: 2, 3: -2}


def fresh(g: SignedGraph) -> SignedGraph:
    """g rebuilt from its edge sets, with no cached encoding."""
    return SignedGraph(g.n, g.edges, g.odd)


class TestEncodings:
    """The bitmasks and packed Laplacian columns cached on a graph, carried
    by add_edge or built from scratch."""

    def test_carried_along_seeded_plans_equal_fresh_ones(self):
        # toward a switched all-even K_n from the complete graph minus a
        # random star, which plans every missing star edge, odd and even
        rng = random.Random("encodings")
        for n in range(6, MAX_VERTICES + 1):
            flipped = {x for x in range(1, n + 1) if rng.random() < 0.5}
            odd = [(u, v) for u, v in combinations(range(1, n + 1), 2) if (u in flipped) != (v in flipped)]
            target = SignedComplete.of(n, odd)
            centre = rng.randint(1, n)
            leaves = rng.sample([x for x in range(1, n + 1) if x != centre], n // 2)
            g = SignedGraph.complete(n, odd)
            for x in leaves:
                g = g.remove_edge(centre, x)
            steps = plan_completion(g, target).steps
            assert len(steps) == n // 2
            for step in steps:
                for name in ("_bits", "_packed"):
                    getattr(g, name)  # built, so add_edge carries it
                g = g.add_edge(*step.edge, step.parity)
                assert {"_bits", "_packed"} <= vars(g).keys()
                scratch = fresh(g)
                assert g._bits == scratch._bits, (g, step)
                assert g._packed == scratch._packed, (g, step)

    def test_child_of_a_parent_without_them_builds_them_lazily(self):
        parent = SignedGraph.of(5, [(1, 2, ODD), (2, 3, EVEN), (4, 5, EVEN)])
        child = parent.add_edge(1, 3, ODD)
        assert not {"_bits", "_packed"} & (vars(parent).keys() | vars(child).keys())
        assert classify(child, 1, 4, EVEN) == classify(fresh(child), 1, 4, EVEN)
        assert siv_oracle(child, 1, 4, EVEN) == siv_oracle(fresh(child), 1, 4, EVEN)
        assert child._bits == fresh(child)._bits and child._packed == fresh(child)._packed
        assert not {"_bits", "_packed"} & vars(parent).keys()
        nbr, odd = child._bits
        assert nbr[1] == 0b1100 and odd[1] == 0b1100 and nbr[3] == 0b110 and odd[3] == 0b10

    def test_packed_columns_are_the_laplacian(self):
        for g in random_graphs(7, 30, 9):
            w, bias, columns = g._packed
            half, mask = 1 << (w - 1), (1 << w) - 1
            lap = dense_laplacian(g)
            for j in g.vertices:
                slots = [((columns[j] + bias) >> x * w & mask) - half for x in range(g.n + 1)]
                assert slots == [lap[x][j] for x in range(g.n + 1)], (g, j)

    @pytest.mark.parametrize("shape", ["star", "complete minus an edge", "complete bipartite"])
    def test_slots_stay_below_the_width_at_the_vertex_cap(self, shape):
        # the oracle's compared vectors for u = e_v -+ e_w on the first
        # non-adjacent pair, each parity: L^2 u, a L u, b u and a L u + b u,
        # with a = d_v + d_w + 1 and b = (L^2 u)_v - a (L u)_v
        n = MAX_VERTICES
        pairs = combinations(range(1, n + 1), 2)
        if shape == "star":
            g = SignedGraph.all_even(n, [(1, x) for x in range(2, n + 1)])
        elif shape == "complete minus an edge":
            g = SignedGraph.complete(n).remove_edge(1, 2)
        else:
            g = SignedGraph.all_even(n, [(u, v) for u, v in pairs if u % 2 != v % 2])
        w = g._packed[0]
        lap = dense_laplacian(g)
        v, x = next(g.non_adjacent_pairs())
        largest = 0
        for sign in (-1, 1):
            u = [0] * (n + 1)
            u[v], u[x] = 1, sign
            y1 = [sum(a * b for a, b in zip(row, u)) for row in lap]
            y2 = [sum(a * b for a, b in zip(row, y1)) for row in lap]
            a = g.degree(v) + g.degree(x) + 1
            b = y2[v] - a * y1[v]
            for vector in (y1, y2, [a * c for c in y1], [b * c for c in u],
                           [a * c + b * d for c, d in zip(y1, u)]):
                largest = max(largest, max(map(abs, vector)))
        assert 0 < largest <= 6 * n * n < 1 << (w - 1), (largest, w)


class TestSpectrumInvariance:
    def test_char_poly_invariant_under_switching_small(self):
        from sivkit import laplacian_char_poly

        for g in iter_signed_graphs(3):
            p = laplacian_char_poly(g)
            for s in all_switch_sets(3):
                assert laplacian_char_poly(switch_at(g, s)) == p
