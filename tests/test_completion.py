import hashlib
import json
import random
from itertools import combinations

import pytest

from sivkit import (
    EVEN,
    ODD,
    IntPoly,
    SignedComplete,
    SignedGraph,
    is_plain_integrally_completable,
    is_sigma_completable,
    laplacian_char_poly,
    siv_oracle,
    plan_completion,
    quotient_decomposition,
    substitute,
    substitution_spectrum,
    swap_y,
    switch_at,
    switching_equivalent,
    triangle_parity,
    verify_shift_identity,
    x_set,
    y_set,
)
from sivkit import completion, spectra
from sivkit.enumeration import all_pairs
from sivkit.fileio import MAX_VERTICES
from sivkit.spectra import polynomial_after

from conftest import (
    brute_force_completable,
    final_graph,
    four_subset_scan_completable,
    iter_signed_completes,
    linear_product,
    odd_triangle_scan_counts,
    random_signed_complete,
    remove_edges,
)


def k7_balanced_instance() -> SignedComplete:
    """Signed K7 whose balanced all-odd edge is exactly (1, 2)."""
    odd = [(2, u) for u in range(3, 8)] + [(3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
    return SignedComplete.of(7, odd)


def k11_balanced_instance() -> SignedComplete:
    """Signed K11 whose balanced all-odd edge is exactly (1, 2) and whose
    all-even edge is exactly (3, 4).

    Vertex 1 is even to all and 2 odd to 3..11, so every triangle on 12 is
    odd; balance asks each of 3..11 for four odd neighbours among 3..11.  The
    twins 3 and 4 are odd to 5..8, and 9..11 fill the rest.
    """
    odd = [(2, u) for u in range(3, 12)] + [(p, x) for p in (3, 4) for x in range(5, 9)]
    odd += [(9, 10), (9, 11), (10, 11), (5, 9), (6, 9), (7, 10), (8, 10), (5, 11), (7, 11), (6, 8)]
    return SignedComplete.of(11, odd)


def relabelled_and_switched(rng: random.Random, t: SignedComplete) -> SignedComplete:
    """t under a random relabelling and a random switching; both keep every
    triangle parity, so X and Y follow the relabelling."""
    label = dict(zip(t.vertices, rng.sample(list(t.vertices), t.n)))
    flip = {v for v in t.vertices if rng.random() < 0.5}
    return SignedComplete.of(
        t.n,
        [
            (label[u], label[v])
            for u, v in t.all_edges()
            if ((u, v) in t.odd) ^ (label[u] in flip) ^ (label[v] in flip)
        ],
    )


class TestTriangleParity:
    def test_examples(self):
        t = SignedComplete.of(4)
        assert triangle_parity(t, 1, 2, 3) == EVEN
        t1 = SignedComplete.of(4, [(1, 2)])
        assert triangle_parity(t1, 1, 2, 3) == ODD
        t3 = SignedComplete.of(3, [(1, 2), (1, 3), (2, 3)])
        assert triangle_parity(t3, 1, 2, 3) == ODD

    def test_signed_graph_input(self):
        g = SignedGraph.of(3, [(1, 2, ODD), (1, 3, EVEN), (2, 3, EVEN)])
        assert triangle_parity(g, 1, 2, 3) == ODD
        g2 = g.remove_edge(2, 3)
        with pytest.raises(ValueError):
            triangle_parity(g2, 1, 2, 3)

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(ValueError):
            triangle_parity(SignedComplete.of(4), 1, 1, 2)

    def test_vertices_out_of_range_rejected(self):
        t = SignedComplete.of(4)
        for u, v in [(1, 9), (0, 3)]:
            with pytest.raises(ValueError):
                t.parity(u, v)
        with pytest.raises(ValueError):
            triangle_parity(t, 1, 2, 9)


class TestOddTrianglePairCounts:
    """The bitmask counts against a scan of every triangle."""

    def test_every_signed_k4_and_k5(self):
        for n in (4, 5):
            for t in iter_signed_completes(n):
                assert completion._odd_triangle_pair_counts(t) == odd_triangle_scan_counts(t), t

    def test_seeded_targets_up_to_the_vertex_cap(self):
        rng = random.Random(41)
        for n in range(6, MAX_VERTICES + 1):
            for density in (0.1, 0.5, 0.9):
                t = SignedComplete(n, frozenset(e for e in all_pairs(n) if rng.random() < density))
                assert completion._odd_triangle_pair_counts(t) == odd_triangle_scan_counts(t), t


class TestXSet:
    def test_all_even_k4(self):
        assert x_set(SignedComplete.of(4)) == frozenset(all_pairs(4))

    def test_k4_one_odd_edge(self):
        assert x_set(SignedComplete.of(4, [(1, 2)])) == frozenset({(3, 4)})

    def test_k5_odd_cycle(self):
        cycle = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
        assert x_set(SignedComplete.of(5, cycle)) == frozenset()

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            x_set(SignedComplete.of(3))

    def test_components_are_complete(self):
        for t in iter_signed_completes(4):
            x = x_set(t)
            for uv, vw in combinations(sorted(x), 2):
                shared = set(uv) & set(vw)
                if shared:
                    others = (set(uv) | set(vw)) - shared
                    a, b = sorted(others)
                    assert (a, b) in x


class TestYSet:
    def test_always_empty_on_k4(self):
        for t in iter_signed_completes(4):
            assert y_set(t) == frozenset()

    def test_k7_instance(self):
        assert y_set(k7_balanced_instance()) == frozenset({(1, 2)})

    def test_k11_instance(self):
        t = k11_balanced_instance()
        assert (x_set(t), y_set(t)) == (frozenset({(3, 4)}), frozenset({(1, 2)}))

    def test_all_even_k5(self):
        assert y_set(SignedComplete.of(5)) == frozenset()

    def test_at_most_one_edge_k5(self):
        for t in iter_signed_completes(5):
            assert len(y_set(t)) <= 1

    def test_orientation_symmetry(self):
        # given the all-odd condition the two balance orientations agree
        from sivkit.completion import _balanced_at, _odd_triangle_pair_counts

        rng = random.Random(3)
        all_odd = balanced = 0
        for _ in range(3000):
            t = random_signed_complete(rng, 7)
            counts = _odd_triangle_pair_counts(t)
            for v, w in t.all_edges():
                if counts[(v, w)] == t.n - 2:
                    all_odd += 1
                    balanced += _balanced_at(counts, t.n, v, w)
                    assert _balanced_at(counts, t.n, v, w) == _balanced_at(
                        counts, t.n, w, v
                    )
        # balanced edges are rare: the draws are sized to meet at least 20
        assert (all_odd, balanced) == (1976, 27)


class TestSwitchingInvarianceOfTriangleSets:
    def switched_complete(self, t, s):
        g = switch_at(SignedGraph.complete(t.n, t.odd), s)
        return SignedComplete(t.n, g.odd)

    def test_exhaustive_k4(self):
        for t in iter_signed_completes(4):
            x, y = x_set(t), y_set(t)
            for size in range(5):
                for s in combinations(range(1, 5), size):
                    ts = self.switched_complete(t, set(s))
                    assert x_set(ts) == x and y_set(ts) == y

    def test_sampled_k5_k7(self):
        rng = random.Random(31)
        for n in (5, 7):
            for _ in range(120):
                t = random_signed_complete(rng, n)
                x, y = x_set(t), y_set(t)
                s = {v for v in range(1, n + 1) if rng.random() < 0.5}
                ts = self.switched_complete(t, s)
                assert x_set(ts) == x and y_set(ts) == y


class TestSwapY:
    def test_empty_set_is_identity(self):
        t = SignedComplete.of(5, [(1, 2)])
        assert y_set(t) == frozenset()
        assert swap_y(t) == t

    def test_k7_instance(self):
        t = k7_balanced_instance()
        swapped = swap_y(t)
        assert (1, 2) in swapped.odd  # parity flipped
        assert y_set(swapped) == frozenset()
        assert x_set(swapped) == x_set(t) | {(1, 2)}

    def test_idempotent(self):
        t = k7_balanced_instance()
        assert swap_y(swap_y(t)) == swap_y(t)


class TestSubstitute:
    def test_singleton_parts_copy_the_quotient(self):
        q = SignedGraph.of(3, [(1, 2, ODD), (2, 3, EVEN)])
        parts = {i: SignedGraph(1, frozenset(), frozenset()) for i in (1, 2, 3)}
        assert substitute(q, parts) == q

    def test_even_k2_quotient(self):
        q = SignedGraph.of(2, [(1, 2, EVEN)])
        parts = {i: SignedGraph(1, frozenset(), frozenset()) for i in (1, 2)}
        assert substitute(q, parts) == q

    def test_odd_quotient_edge_spreads_parity(self):
        q = SignedGraph.of(2, [(1, 2, ODD)])
        parts = {
            1: SignedGraph.of(2, [(1, 2, EVEN)]),
            2: SignedGraph(1, frozenset(), frozenset()),
        }
        out = substitute(q, parts)
        assert out.n == 3
        assert out.parity(1, 2) == EVEN
        assert out.parity(1, 3) == ODD and out.parity(2, 3) == ODD

    def test_blocks_are_consecutive(self):
        # the odd join is exactly {1, 2} x {3, 4, 5}, so the K2 part took the
        # labels 1, 2 and the K3 part 3, 4, 5
        q = SignedGraph.of(2, [(1, 2, ODD)])
        parts = {1: SignedGraph.complete(2), 2: SignedGraph.complete(3)}
        assert substitute(q, parts).odd == {(a, b) for a in (1, 2) for b in (3, 4, 5)}

    def test_missing_assignment_rejected(self):
        q = SignedGraph.of(2, [(1, 2, EVEN)])
        with pytest.raises(ValueError):
            substitute(q, {1: SignedGraph.complete(2)})


class TestSubstitutionSpectrum:
    def test_two_singletons_over_even_edge(self):
        q = SignedGraph.of(2, [(1, 2, EVEN)])
        parts = {i: SignedGraph(1, frozenset(), frozenset()) for i in (1, 2)}
        spectrum = substitution_spectrum(q, parts)
        assert spectrum.m_matrix == ((1, -1), (-1, 1))
        assert spectrum.m_poly == linear_product([0, 2])
        assert spectrum.shifted_poly == IntPoly((1,))
        assert spectrum.total_poly == laplacian_char_poly(substitute(q, parts))

    def test_k4_from_two_even_k2_parts(self):
        q = SignedGraph.of(2, [(1, 2, EVEN)])
        parts = {1: SignedGraph.complete(2), 2: SignedGraph.complete(2)}
        spectrum = substitution_spectrum(q, parts)
        assert spectrum.m_matrix == ((2, -2), (-2, 2))
        assert spectrum.m_poly == linear_product([0, 4])
        assert spectrum.shifted_poly == linear_product([4, 4])
        assert spectrum.total_poly == laplacian_char_poly(SignedGraph.complete(4))

    def test_odd_quotient_edge(self):
        q = SignedGraph.of(2, [(1, 2, ODD)])
        parts = {1: SignedGraph.complete(2), 2: SignedGraph.complete(2)}
        spectrum = substitution_spectrum(q, parts)
        assert spectrum.m_matrix == ((2, 2), (2, 2))
        assert spectrum.total_poly == laplacian_char_poly(substitute(q, parts))

    def test_precondition_rejected(self):
        # a part with non-constant odd degree has no all-ones eigenvector
        q = SignedGraph.of(2, [(1, 2, EVEN)])
        bad = SignedGraph.of(2, [(1, 2, ODD)])
        ok = SignedGraph(1, frozenset(), frozenset())
        spectrum = substitution_spectrum(q, {1: bad, 2: ok})  # odd-regular is fine
        assert spectrum.part_eigenvalues[0] == 2
        lopsided = SignedGraph.of(3, [(1, 2, ODD), (2, 3, EVEN)])
        with pytest.raises(ValueError):
            substitution_spectrum(q, {1: lopsided, 2: ok})


class TestQuotientDecomposition:
    # sha256 of (k, parts, quotient odd set, switching set), one JSON line per
    # seeded switched quotient blow-up, two at each n = 8..38
    PINNED_DECOMPOSITIONS_SHA256 = (
        "f54875c2f1e27e2a077dacf0da5a43d66a9aac7c7058e2a6aa5e99f0e695c641"
    )

    def test_decompositions_are_pinned(self):
        rng = random.Random("pinned-decompositions")
        lines = []
        for n in range(8, 39):
            for _ in range(2):
                deco = quotient_decomposition(part_target(rng, n))
                lines.append(
                    json.dumps(
                        [deco.k, deco.parts, sorted(deco.quotient.odd), sorted(deco.switching_set)]
                    )
                )
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PINNED_DECOMPOSITIONS_SHA256

    def test_incomplete_component_is_an_invariant_failure(self, monkeypatch):
        monkeypatch.setattr(completion, "x_set", lambda t: frozenset({(1, 2), (2, 3)}))
        with pytest.raises(RuntimeError, match="not complete"):
            quotient_decomposition(SignedComplete.of(4))

    def test_mixed_cross_parities_are_an_invariant_failure(self, monkeypatch):
        monkeypatch.setattr(completion, "x_set", lambda t: frozenset({(1, 2)}))
        with pytest.raises(RuntimeError, match="not uniform"):
            quotient_decomposition(SignedComplete.of(4, [(1, 3)]))

    def test_all_even_k4_is_one_part(self):
        deco = quotient_decomposition(SignedComplete.of(4))
        assert deco.k == 1 and deco.parts == ((1, 2, 3, 4),)
        assert deco.quotient == SignedComplete.of(1)

    def test_k4_one_odd_edge(self):
        deco = quotient_decomposition(SignedComplete.of(4, [(1, 2)]))
        assert deco.parts == ((1,), (2,), (3, 4))
        assert deco.k == 3
        assert deco.quotient.odd == frozenset({(1, 2)})

    def test_k7_instance_is_discrete(self):
        deco = quotient_decomposition(k7_balanced_instance())
        assert deco.k == 7
        assert all(len(p) == 1 for p in deco.parts)

    def test_round_trip_equivalence(self):
        rng = random.Random(9)
        cases = list(iter_signed_completes(4)) + [
            random_signed_complete(rng, 5) for _ in range(40)
        ]
        for t in cases:
            deco = quotient_decomposition(t)
            parts = {
                i + 1: SignedGraph.complete(len(p)) for i, p in enumerate(deco.parts)
            }
            rebuilt = substitute(SignedGraph.complete(deco.quotient.n, deco.quotient.odd), parts)
            # map rebuilt labels back to the original ones
            relabel = {}
            offset = 0
            for part in deco.parts:
                for j, original in enumerate(part):
                    relabel[offset + j + 1] = original
                offset += len(part)
            mapped_edges = set()
            mapped_odd = set()
            for a, b in rebuilt.edges:
                u, v = sorted((relabel[a], relabel[b]))
                mapped_edges.add((u, v))
                if (a, b) in rebuilt.odd:
                    mapped_odd.add((u, v))
            mapped = SignedGraph(t.n, frozenset(mapped_edges), frozenset(mapped_odd))
            assert switching_equivalent(mapped, SignedGraph.complete(t.n, t.odd)).equivalent
            # and the stated switching set makes every all-even-triangle edge even
            switched = switch_at(SignedGraph.complete(t.n, t.odd), deco.switching_set)
            assert all(e not in switched.odd for e in x_set(t))


def blow_up_target(rng: random.Random, n: int, k: int) -> SignedComplete:
    """Signed K_n from a random signed K_k quotient with every part nonempty,
    switched at a random set."""
    labels = [i % k for i in range(n)]
    rng.shuffle(labels)
    part = dict(zip(range(1, n + 1), labels))
    odd_parts = {e for e in combinations(range(k), 2) if rng.random() < 0.5}
    flipped = {v for v in range(1, n + 1) if rng.random() < 0.5}
    odd = [
        (u, v)
        for u, v in all_pairs(n)
        if ((min(part[u], part[v]), max(part[u], part[v])) in odd_parts)
        ^ (u in flipped)
        ^ (v in flipped)
    ]
    return SignedComplete.of(n, odd)


class TestTargetCharPoly:
    """The plan's end check, det(xI - M) (x - n)^(n - k) from the quotient,
    against char_poly of the whole target."""

    @staticmethod
    def assert_matches(t: SignedComplete) -> None:
        full = SignedGraph.complete(t.n, t.odd)
        # the X set as the planner has it: empty below four vertices
        x_edges = completion._split_missing(full, t)[3]
        assert completion._target_char_poly(t, x_edges) == laplacian_char_poly(full), t

    def test_every_signed_complete_up_to_five(self):
        for n in range(1, 6):
            for t in iter_signed_completes(n):
                self.assert_matches(t)

    def test_seeded_blow_ups(self):
        rng = random.Random("target-char-poly")
        for n in range(6, 39):
            for k in (1, rng.randint(2, n - 1), n):
                self.assert_matches(blow_up_target(rng, n, k))

    def test_targets_with_a_y_edge(self):
        for t in (k7_balanced_instance(), k11_balanced_instance()):
            assert y_set(t)
            self.assert_matches(t)


class TestPlainCompletable:
    def test_p4_is_not(self):
        assert not is_plain_integrally_completable(4, [(1, 2), (2, 3), (3, 4)])

    def test_2k2_is_not(self):
        assert not is_plain_integrally_completable(4, [(1, 2), (3, 4)])

    def test_complete_graphs_are(self):
        for n in range(1, 7):
            assert is_plain_integrally_completable(n, all_pairs(n))

    def test_multipartite_and_edgeless(self):
        k23 = [(u, v) for u in (1, 2) for v in (3, 4, 5)]
        assert is_plain_integrally_completable(5, k23)
        assert is_plain_integrally_completable(5, [])

    def test_cycles(self):
        assert is_plain_integrally_completable(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert not is_plain_integrally_completable(
            5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
        )

    def test_embedded_obstruction(self):
        # P4 hiding inside a larger graph
        edges = [(1, 2), (2, 3), (3, 4), (5, 6)]
        assert not is_plain_integrally_completable(6, edges)

    def test_matches_four_subset_scan_exhaustively(self):
        # every labelled graph on at most six vertices: 33,867 in all
        graphs = completable = 0
        for n in range(1, 7):
            pairs = all_pairs(n)
            for mask in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
                expected = four_subset_scan_completable(n, edges)
                assert is_plain_integrally_completable(n, edges) == expected
                graphs += 1
                completable += expected
        assert (graphs, completable) == (33867, 4606)

    def test_local_recheck_at_the_ends_of_a_removed_edge(self):
        # the planner's re-check: for every labelled M on at most six vertices
        # that passes, and every edge uv of M, the test at u and v alone on
        # M - uv decides M - uv
        removals = passing = 0
        for n in range(2, 7):
            pairs = all_pairs(n)
            for mask in range(1 << len(pairs)):
                m = [e for i, e in enumerate(pairs) if mask >> i & 1]
                if not completion._nested(n, m):
                    continue
                for u, v in m:
                    closed = completion._closed_masks(n, m)
                    closed[u] ^= 1 << v
                    closed[v] ^= 1 << u
                    local = completion._nested_at(closed, u) and completion._nested_at(closed, v)
                    assert local == completion._nested(n, [e for e in m if e != (u, v)])
                    removals += 1
                    passing += local
        assert (removals, passing) == (30687, 16457)


class TestIsSigmaCompletable:
    def test_target_itself(self):
        t = SignedComplete.of(4, [(1, 2)])
        assert is_sigma_completable(SignedGraph.complete(t.n, t.odd), t)

    def test_missing_x_edge(self):
        t = SignedComplete.of(4, [(1, 2)])
        g = SignedGraph.complete(t.n, t.odd).remove_edge(3, 4)
        assert is_sigma_completable(g, t)

    def test_missing_non_x_edge(self):
        t = SignedComplete.of(4, [(1, 2)])
        g = SignedGraph.complete(t.n, t.odd).remove_edge(1, 3)
        assert not is_sigma_completable(g, t)

    def test_sign_restriction(self):
        t = SignedComplete.of(4, [(1, 2)])
        g = SignedGraph.complete(4).remove_edge(3, 4)  # all even: wrong sign
        assert not is_sigma_completable(g, t)

    def test_small_order_rule(self):
        t = SignedComplete.of(3, [(1, 2)])
        good = SignedGraph.of(3, [(1, 2, ODD), (1, 3, EVEN)])
        bad = SignedGraph.of(3, [(1, 2, EVEN), (1, 3, EVEN)])
        assert is_sigma_completable(good, t)
        assert not is_sigma_completable(bad, t)

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            is_sigma_completable(SignedGraph.complete(3), SignedComplete.of(4))


def part_target(rng: random.Random, n: int) -> SignedComplete:
    """Signed K_n switched from a substituted quotient: vertices of one part
    are joined evenly, so the parts' edges are all-even (X) edges."""
    part = {v: rng.randrange(1 + n // 4) for v in range(1, n + 1)}
    odd_parts = {e for e in combinations(sorted(set(part.values())), 2) if rng.random() < 0.5}
    flipped = {v for v in range(1, n + 1) if rng.random() < 0.5}
    odd = [
        (u, v)
        for u, v in all_pairs(n)
        if ((min(part[u], part[v]), max(part[u], part[v])) in odd_parts)
        ^ (u in flipped)
        ^ (v in flipped)
    ]
    return SignedComplete.of(n, odd)


def forest_closure(rng: random.Random, vertices) -> set[tuple[int, int]]:
    """Edges from each vertex to all its ancestors in a random rooted forest.
    These closures are exactly the {C4, P4}-free graphs, so a start missing
    one inside each all-even component stays completable."""
    order = list(vertices)
    rng.shuffle(order)
    ancestors: dict[int, list[int]] = {}
    out = set()
    for k, v in enumerate(order):
        parent = order[rng.randrange(k)] if k and rng.random() < 0.8 else None
        ancestors[v] = [] if parent is None else ancestors[parent] + [parent]
        out.update((min(v, a), max(v, a)) for a in ancestors[v])
    return out


def pinned_plan_starts() -> list[tuple[SignedGraph, SignedComplete]]:
    """Seeded completable (start, target) pairs on 2..10 vertices.

    Below four vertices a start drops random edges.  From four on it drops a
    forest closure inside each all-even component, and mostly the balanced
    all-odd (Y) edge, of quotient targets and of targets that have a Y edge.
    """
    rng = random.Random("pinned-plans")
    cases = []
    for n in (2, 3):
        for _ in range(10):
            t = random_signed_complete(rng, n)
            missing = [e for e in all_pairs(n) if rng.random() < 0.6]
            cases.append((remove_edges(SignedGraph.complete(t.n, t.odd), missing), t))
    targets = [part_target(rng, n) for n in range(4, 11) for _ in range(12)]
    t7 = k7_balanced_instance()
    targets += [t7, t7]
    while len(targets) < 100:
        t = random_signed_complete(rng, rng.choice((5, 6, 7)))
        if y_set(t):
            targets.append(t)
    for t in targets:
        missing = set(y_set(t)) if rng.random() < 0.8 else set()
        for part in quotient_decomposition(t).parts:
            missing |= forest_closure(rng, part)
        cases.append((remove_edges(SignedGraph.complete(t.n, t.odd), sorted(missing)), t))
    return cases


class TestPlanCompletion:
    # sha256 of the plans' JSON step lines, one "case <i>" line before each
    PINNED_PLANS_SHA256 = "f0b813937dfc799fdb3b04dbbdd6a74e91e4ca103725294a19879cfaa094e989"

    def test_plans_are_pinned(self):
        cases = pinned_plan_starts()
        assert len(cases) >= 100
        lines = []
        for i, (g, t) in enumerate(cases):
            lines.append(f"case {i}")
            lines += [json.dumps(s.to_json_dict()) for s in plan_completion(g, t).steps]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PINNED_PLANS_SHA256

    def test_carried_polynomial_is_each_steps(self, monkeypatch):
        carried = []

        def recording(p, verdict):
            carried.append(polynomial_after(p, verdict))
            return carried[-1]

        monkeypatch.setattr(completion, "polynomial_after", recording)
        for g, t in pinned_plan_starts():
            carried.clear()
            plan = plan_completion(g, t)
            assert len(carried) == len(plan.steps)
            current = g
            for step, p in zip(plan.steps, carried):
                current = current.add_edge(*step.edge, step.parity)
                assert p == laplacian_char_poly(current), (g, t, step)

    def test_empty_plan_for_target(self):
        t = SignedComplete.of(4, [(1, 2)])
        plan = plan_completion(SignedGraph.complete(t.n, t.odd), t)
        assert plan.steps == ()

    def test_single_step(self):
        t = SignedComplete.of(4, [(1, 2)])
        g = SignedGraph.complete(t.n, t.odd).remove_edge(3, 4)
        plan = plan_completion(g, t)
        assert len(plan.steps) == 1
        step = plan.steps[0]
        assert step.edge == (3, 4) and step.parity == EVEN
        assert step.verdict.kind == "type1"
        assert final_graph(plan) == SignedGraph.complete(t.n, t.odd)

    def test_k7_balanced_edge_step(self):
        t = k7_balanced_instance()
        g = SignedGraph.complete(t.n, t.odd).remove_edge(1, 2)
        plan = plan_completion(g, t)
        assert len(plan.steps) == 1
        step = plan.steps[0]
        assert step.edge == (1, 2) and step.parity == EVEN
        assert step.verdict.kind == "type2"

    def test_not_completable_rejected(self):
        t = SignedComplete.of(4, [(1, 2)])
        g = SignedGraph.complete(t.n, t.odd).remove_edge(1, 3)
        assert plan_completion(g, t) is None

    def test_multi_step_plan_is_certified(self):
        t = SignedComplete.of(4)
        g = SignedGraph.all_even(4, [(1, 2), (1, 3), (1, 4)])  # star
        plan = plan_completion(g, t)
        assert len(plan.steps) == 3
        current = g
        for step in plan.steps:
            before = laplacian_char_poly(current)
            current = current.add_edge(*step.edge, step.parity)
            after = laplacian_char_poly(current)
            assert verify_shift_identity(before, after, step.verdict)
        assert current == SignedGraph.complete(t.n, t.odd)

    def test_small_order_plan(self):
        # below four vertices every addition is an integral step
        t = SignedComplete.of(3, [(1, 2)])
        g = SignedGraph(3, frozenset(), frozenset())
        plan = plan_completion(g, t)
        assert len(plan.steps) == 3
        assert all(s.verdict.kind in ("type1", "type2") for s in plan.steps)
        assert final_graph(plan) == SignedGraph.complete(t.n, t.odd)

    def test_plan_step_json(self):
        t = SignedComplete.of(4, [(1, 2)])
        g = SignedGraph.complete(t.n, t.odd).remove_edge(3, 4)
        step = plan_completion(g, t).steps[0]
        payload = step.to_json_dict()
        assert payload["edge"] == [3, 4]
        assert payload["parity"] == EVEN
        assert payload["kind"] == "type1"


class TestBruteForce:
    def test_target_itself(self):
        t = SignedComplete.of(4, [(1, 2)])
        assert brute_force_completable(SignedGraph.complete(t.n, t.odd), t)

    def test_blocked_instance(self):
        t = SignedComplete.of(4, [(1, 2)])
        g = SignedGraph.complete(t.n, t.odd).remove_edge(1, 3)
        assert not brute_force_completable(g, t)

    def test_agreement_small_orders(self):
        # n <= 3: completability is exactly the sign restriction
        for n in (2, 3):
            for t in iter_signed_completes(n):
                full = SignedGraph.complete(t.n, t.odd)
                for drop in range(len(all_pairs(n)) + 1):
                    for combo in combinations(all_pairs(n), drop):
                        g = remove_edges(full, combo)
                        decided = is_sigma_completable(g, t)
                        assert brute_force_completable(g, t) == decided
                        assert (plan_completion(g, t) is not None) == decided

    def test_agreement_sampled_k4(self):
        rng = random.Random(21)
        for _ in range(60):
            t = random_signed_complete(rng, 4)
            edges = [e for e in all_pairs(4) if rng.random() < 0.6]
            g = SignedGraph(4, frozenset(edges), frozenset(t.odd & set(edges)))
            decided = is_sigma_completable(g, t)
            assert brute_force_completable(g, t) == decided
            assert (plan_completion(g, t) is not None) == decided

    def test_one_polynomial_per_visited_state_with_a_step(self, monkeypatch):
        # the search forms a state's polynomial to re-check its certified
        # steps, once, and a state with no step forms no polynomial
        polys = []

        def counting(g):
            polys.append(g.edges)
            return laplacian_char_poly(g)

        monkeypatch.setattr(spectra, "laplacian_char_poly", counting)
        # not completable, so the search visits every state it can reach,
        # and each visited state gets a memo entry
        t = SignedComplete.of(5, [(1, 2)])
        memo: dict = {}
        assert not brute_force_completable(SignedGraph(5, frozenset(), frozenset()), t, memo)
        assert len(memo) > 100
        with_step = {
            edges
            for edges in memo
            if any(
                siv_oracle(SignedGraph(5, edges, t.odd & edges), *e, t.parity(*e)).kind != "none"
                for e in set(t.all_edges()) - edges
            )
        }
        assert len(polys) == len(set(polys))
        assert set(polys) == with_step
        assert 0 < len(with_step) < len(memo)


def one_step_states(rng: random.Random, count: int) -> list[tuple[SignedGraph, SignedComplete]]:
    """Seeded (state, target) pairs on 6..12 vertices, about half completable.

    Targets are quotient blow-ups and, one time in three, the balanced K7 or
    K11 relabelled and switched.  A state drops the Y edge (mostly) and either
    a forest closure inside each all-even component, which stays completable,
    or a random half of the X edges, which often leaves an induced P4 or C4
    in M.  One state in eight then also drops an edge outside X and Y, and
    one in eight flips the sign of a present edge.
    """
    states = []
    while len(states) < count:
        if rng.random() < 0.3:
            base = k7_balanced_instance() if rng.random() < 0.4 else k11_balanced_instance()
            t = relabelled_and_switched(rng, base)
        else:
            t = part_target(rng, rng.randrange(6, 13))
        x, y = x_set(t), y_set(t)
        missing = set(y) if rng.random() < 0.8 else set()
        if rng.random() < 0.45:
            for part in quotient_decomposition(t).parts:
                missing |= forest_closure(rng, part)
        else:
            missing |= {e for e in x if rng.random() < 0.5}
        g = remove_edges(SignedGraph.complete(t.n, t.odd), sorted(missing))
        spoil = rng.random()
        others = sorted(g.edges - x - y)
        if spoil < 0.125 and others:
            g = g.remove_edge(*rng.choice(others))
        elif spoil < 0.25 and g.edges:
            u, v = rng.choice(sorted(g.edges))
            g = g.remove_edge(u, v).add_edge(u, v, EVEN if (u, v) in g.odd else ODD)
        states.append((g, t))
    return states


class TestOneStepConsistency:
    def test_decision_matches_one_oracle_step(self):
        # g is completable exactly when some missing e has a positive oracle
        # verdict and g + e is completable; the complete graph with the
        # target's signs is the base case.  Holding on every state, this
        # makes the theorem equal to the search, by induction on the missing
        # edges.
        states = one_step_states(random.Random(6), 6000)
        completable = blocked_by_m = 0
        for g, t in states:
            decided = is_sigma_completable(g, t)
            missing = [e for e in t.all_edges() if e not in g.edges]
            if not missing:
                stepped = g.odd == t.odd
            else:
                stepped = any(
                    siv_oracle(g, *e, t.parity(*e)).kind != "none"
                    and is_sigma_completable(g.add_edge(*e, t.parity(*e)), t)
                    for e in missing
                )
            assert decided == stepped, (g, t)
            completable += decided
            # signs and missing edges pass, so the nested test decided
            blocked_by_m += not decided and g.odd == t.odd & g.edges and set(
                missing
            ) <= x_set(t) | y_set(t)
        assert 0.4 < completable / len(states) < 0.6
        assert blocked_by_m > len(states) // 5
        assert any(len(g.edges) == len(t.all_edges()) for g, t in states)
