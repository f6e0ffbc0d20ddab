from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given

from sivkit import (
    EVEN,
    ODD,
    SignedGraph,
    SivVerdict,
    build_type2_eigenvectors,
    check_type1,
    check_type2,
    classify,
    make_centered,
    siv_oracle,
    switch_at,
)
from sivkit import spectra
from sivkit.enumeration import cross_check, iter_signed_graphs

from conftest import (
    centered_form_type2,
    graphs_with_nonadjacent_pair,
    neighbor_set_type1,
    random_graphs,
)


def p3_leaves():
    return SignedGraph.of(3, [(1, 2, EVEN), (2, 3, EVEN)]), 1, 3


def p2_plus_isolated():
    return SignedGraph.of(3, [(1, 2, EVEN)]), 1, 3


class TestCheckType1:
    def test_path_leaves_even(self):
        g, v, w = p3_leaves()
        assert check_type1(g, v, w, EVEN)

    def test_isolated_vertex_fails(self):
        g, v, w = p2_plus_isolated()
        assert not check_type1(g, v, w, EVEN)

    def test_mirrored_star_odd(self):
        # center 2 with 2-1 even and 2-3 odd: odd addition of 1-3 is type 1
        g = SignedGraph.of(3, [(1, 2, EVEN), (2, 3, ODD)])
        assert check_type1(g, 1, 3, ODD)
        assert not check_type1(g, 1, 3, EVEN)

    def test_adjacent_rejected(self):
        with pytest.raises(ValueError):
            check_type1(SignedGraph.of(2, [(1, 2, EVEN)]), 1, 2, EVEN)


class TestCheckType2:
    def test_isolated_vertex_instance(self):
        g, v, w = p2_plus_isolated()
        verdict = check_type2(g, v, w, EVEN)
        assert verdict.params == ("type2", None, 2, 0)
        conditions = dict(verdict.conditions)
        assert conditions["A"] and conditions["positivity"]

    def test_type1_instance_is_not_type2(self):
        g, v, w = p3_leaves()
        verdict = check_type2(g, v, w, EVEN)
        assert verdict.kind == "none"
        # the block conditions hold vacuously; only positivity separates
        assert not dict(verdict.conditions)["positivity"]

    def test_k7_balanced_edge_instance(self):
        odd = [(2, u) for u in range(3, 8)] + [(3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
        target = SignedGraph.complete(7, odd)
        g = target.remove_edge(1, 2)
        verdict = check_type2(g, 1, 2, EVEN)
        assert verdict.kind == "type2"
        assert siv_oracle(g, 1, 2, EVEN).params == verdict.params

    def test_adjacent_rejected(self):
        with pytest.raises(ValueError):
            check_type2(SignedGraph.of(2, [(1, 2, EVEN)]), 1, 2, EVEN)


class TestClassify:
    def test_examples(self):
        g1, v1, w1 = p3_leaves()
        assert classify(g1, v1, w1, EVEN).params == ("type1", 1, None, None)
        g2, v2, w2 = p2_plus_isolated()
        assert classify(g2, v2, w2, EVEN).params == ("type2", None, 2, 0)
        p4 = SignedGraph.all_even(4, [(1, 2), (2, 3), (3, 4)])
        assert classify(p4, 1, 4, EVEN).kind == "none"

    def test_type1_reports_common_degree(self):
        for g in iter_signed_graphs(4):
            for v, w in g.non_adjacent_pairs():
                for parity in (EVEN, ODD):
                    verdict = classify(g, v, w, parity)
                    if verdict.kind == "type1":
                        assert g.degree(v) == g.degree(w) == verdict.lam

    def test_exclusivity_exhaustive(self):
        # the two characterizations never both fire
        for g in iter_signed_graphs(4):
            for v, w in g.non_adjacent_pairs():
                for parity in (EVEN, ODD):
                    if check_type1(g, v, w, parity):
                        assert check_type2(g, v, w, parity).kind == "none"

    def test_shared_verdicts_are_frozen_and_exact(self):
        # none verdicts are prebuilt and handed to every caller, so a caller
        # must not be able to change one, and each must read as a fresh one
        p4 = SignedGraph.all_even(4, [(1, 2), (2, 3), (3, 4)])
        for verdict in (classify(p4, 1, 4, EVEN), siv_oracle(p4, 1, 4, EVEN)):
            assert verdict.kind == "none"
            with pytest.raises(FrozenInstanceError):
                verdict.kind = "type1"
        shared = classify(p4, 1, 4, EVEN)
        out = shared.to_json_dict()
        out["conditions"]["A"] = not out["conditions"]["A"]
        assert shared.to_json_dict() != out
        patterns = set()
        for n in range(2, 5):
            for g in iter_signed_graphs(n):
                for v, w in g.non_adjacent_pairs():
                    for parity in (EVEN, ODD):
                        verdict = classify(g, v, w, parity)
                        if verdict.kind == "type1":
                            assert verdict.conditions is None
                            continue
                        assert isinstance(verdict.conditions, tuple)
                        assert all(isinstance(pair, tuple) for pair in verdict.conditions)
                        patterns.add(verdict.conditions)
                        if verdict.kind == "type2":
                            assert all(ok for _, ok in verdict.conditions)
                        else:
                            fresh = SivVerdict("none", conditions=centered_form_type2(g, v, w, parity).conditions)
                            assert verdict.to_json_dict() == fresh.to_json_dict()
        # type 1 reports no conditions; the other verdicts show 13 patterns
        assert len(patterns) == 13

    @given(graphs_with_nonadjacent_pair(min_n=5, max_n=5))
    def test_exclusivity_sampled(self, instance):
        g, v, w, parity = instance
        if check_type1(g, v, w, parity):
            assert check_type2(g, v, w, parity).kind == "none"

    def test_switching_invariance_with_parity_flip(self):
        for g in iter_signed_graphs(3):
            for v, w in g.non_adjacent_pairs():
                for parity in (EVEN, ODD):
                    base = classify(g, v, w, parity).params
                    for s in ({1}, {2}, {3}, {1, 2}, {2, 3}):
                        flipped = (v in s) != (w in s)
                        adjusted = (
                            (ODD if parity == EVEN else EVEN) if flipped else parity
                        )
                        assert classify(switch_at(g, s), v, w, adjusted).params == base


# On P2 plus an isolated vertex (n = 3): each refused input with the exact
# message every public decider gives.  The parity is checked first, then
# v != w, then v and w in range, v first, then adjacency.
REFUSALS = [
    ((1, 1, EVEN), "v and w must be distinct"),
    ((1, 2, EVEN), "vertices 1 and 2 are adjacent"),
    ((2, 1, EVEN), "vertices 2 and 1 are adjacent"),
    ((0, 3, EVEN), "vertex 0 out of range 1..3"),
    ((3, 0, EVEN), "vertex 0 out of range 1..3"),
    ((4, 3, EVEN), "vertex 4 out of range 1..3"),
    ((3, 4, EVEN), "vertex 4 out of range 1..3"),
    ((0, 4, EVEN), "vertex 0 out of range 1..3"),
    ((1, 3, "flip"), "parity must be 'even' or 'odd', got 'flip'"),
    ((1, 1, "flip"), "parity must be 'even' or 'odd', got 'flip'"),
]


@pytest.mark.parametrize("decide", [classify, check_type1, check_type2, siv_oracle], ids=lambda f: f.__name__)
@pytest.mark.parametrize("args, message", REFUSALS, ids=[repr(args) for args, _ in REFUSALS])
def test_every_decider_keeps_every_refusal(decide, args, message):
    g, _, _ = p2_plus_isolated()
    with pytest.raises(ValueError) as refused:
        decide(g, *args)
    assert str(refused.value) == message


class TestType2Eigenvectors:
    def test_isolated_vertex_instance(self):
        g, v, w = p2_plus_isolated()
        verdict = check_type2(g, v, w, EVEN)
        cert = build_type2_eigenvectors(g, v, w, verdict)
        # s=2, p=0: eigenvalues 0 and 2; heads x + r*y are (1 - r, r - 2)
        assert cert.s == 2 and cert.p == 0
        assert cert.x == (1, -2, 1)
        assert cert.y == (-1, 1, 0)
        assert cert.residuals_are_zero(g)

    def test_vertex_outside_the_graph_refused(self):
        # 0 and -1 too: filled into dense vectors, they would silently index
        # the entries of the last vertices
        g, v, w = p2_plus_isolated()
        cert = build_type2_eigenvectors(g, v, w, check_type2(g, v, w, EVEN))
        for outside in (g.n + 1, 0, -1):
            with pytest.raises(ValueError, match="out of range"):
                replace(cert, order=cert.order[:-1] + (outside,)).residuals_are_zero(g)

    def test_reads_the_edge_sets_not_the_cached_masks(self):
        # a wrong _bits on the graph, marking the even edge 1-3 odd, changes
        # no answer: the identities are checked on the Laplacian of the edges
        g = SignedGraph.all_even(5, [(1, 3), (1, 5), (2, 3), (2, 4)])
        verdict = check_type2(g, 4, 5, EVEN)
        cert = build_type2_eigenvectors(g, 4, 5, verdict)
        nbr, odd = g._bits
        odd = odd.copy()
        odd[1] |= 1 << 3
        odd[3] |= 1 << 1
        vars(g)["_bits"] = nbr, odd
        assert cert.residuals_are_zero(g)
        assert not replace(cert, p=cert.p + 1).residuals_are_zero(g)

    def test_entries_are_unbounded(self):
        # the identities are linear in x and y, so scaling both keeps them
        g = SignedGraph.all_even(5, [(1, 3), (1, 5), (2, 3), (2, 4)])
        cert = build_type2_eigenvectors(g, 4, 5, check_type2(g, 4, 5, EVEN))
        big = 10**30
        scaled = replace(cert, x=tuple(big * a for a in cert.x), y=tuple(big * b for b in cert.y))
        assert scaled.residuals_are_zero(g)
        assert not replace(scaled, s=cert.s + 1).residuals_are_zero(g)

    def test_numeric_specialization(self):
        # x + r*y is an eigenvector for either root of x^2 - 2x; plugging a
        # numeric root r0 in must satisfy L v = r0 v.
        # heads specialize to (1, -2) at r0 = 0 and (-1, 0) at r0 = 2.
        g, v, w = p2_plus_isolated()
        verdict = check_type2(g, v, w, EVEN)
        cert = build_type2_eigenvectors(g, v, w, verdict)
        from sivkit import signed_laplacian

        L = signed_laplacian(g)
        order = cert.order
        for r0 in (0, 2):
            vec = [xk + r0 * yk for xk, yk in zip(cert.x, cert.y)]
            if r0 == 0:
                assert vec[:2] == [1, -2]
            else:
                assert vec[:2] == [-1, 0]
            for i, u in enumerate(order):
                lhs = sum(L[u - 1][x - 1] * vec[order.index(x)] for x in order)
                assert lhs == r0 * vec[i]

    def test_requires_type2_verdict(self):
        g, v, w = p2_plus_isolated()
        with pytest.raises(ValueError):
            build_type2_eigenvectors(g, v, w, SivVerdict("type1", lam=1))

    def test_requires_centered_graph(self):
        g = SignedGraph.of(3, [(1, 2, ODD)])
        with pytest.raises(ValueError):
            build_type2_eigenvectors(g, 1, 3, SivVerdict("type2", s=2, p=0))

    def test_residuals_zero_on_all_small_type2_instances(self):
        for g in iter_signed_graphs(4):
            for v, w in g.non_adjacent_pairs():
                verdict = check_type2(g, v, w, EVEN)
                if verdict.kind != "type2":
                    continue
                centered, _ = make_centered(g, v, w)
                cert = build_type2_eigenvectors(centered, v, w, verdict)
                assert cert.residuals_are_zero(centered)

    def test_irrational_eigenvalue_instance(self):
        # all-even forest where adding 4-5 shifts the conjugate pair
        # (3 +- sqrt(5)) / 2 by one each; residuals vanish in the ring
        g = SignedGraph.all_even(5, [(1, 3), (1, 5), (2, 3), (2, 4)])
        verdict = check_type2(g, 4, 5, EVEN)
        assert verdict.params == ("type2", None, 3, 1)
        disc = verdict.s**2 - 4 * verdict.p
        assert disc == 5  # not a perfect square
        centered, _ = make_centered(g, 4, 5)
        cert = build_type2_eigenvectors(centered, 4, 5, verdict)
        assert cert.residuals_are_zero(centered)
        assert siv_oracle(g, 4, 5, EVEN).params == verdict.params

    def test_head_difference_identity(self):
        # x[0] - x[1] = s + 1 and y[0] - y[1] = -2: the head difference of
        # x + r*y is lam2 - lam1 + 1 at r = lam1 (s = d1 + d2 + 1)
        for g in iter_signed_graphs(4):
            for v, w in g.non_adjacent_pairs():
                verdict = check_type2(g, v, w, EVEN)
                if verdict.kind != "type2":
                    continue
                centered, _ = make_centered(g, v, w)
                cert = build_type2_eigenvectors(centered, v, w, verdict)
                assert cert.x[0] - cert.x[1] == cert.s + 1
                assert cert.y[0] - cert.y[1] == -2

    def test_wrong_certificates_are_refused(self):
        # the check must be able to fail: a certificate with p + 1, or with
        # the first tail entry of x off by one, fails on every n = 4 instance
        instances = refused_p = refused_x = 0
        for g in iter_signed_graphs(4):
            for v, w in g.non_adjacent_pairs():
                verdict = check_type2(g, v, w, EVEN)
                if verdict.kind != "type2":
                    continue
                centered, _ = make_centered(g, v, w)
                cert = build_type2_eigenvectors(centered, v, w, verdict)
                x = list(cert.x)
                x[2] += 1
                instances += 1
                refused_p += not replace(cert, p=cert.p + 1).residuals_are_zero(centered)
                refused_x += not replace(cert, x=tuple(x)).residuals_are_zero(centered)
        assert (instances, refused_p, refused_x) == (264, 264, 264)

    def test_degenerate_certificates_are_refused(self):
        # every one but the short one satisfies both identities at s = 2,
        # p = 0, with nothing to check or with x + r*y zero at a root r, yet
        # certifies no eigenvector pair
        g, v, w = p2_plus_isolated()
        cert = build_type2_eigenvectors(g, v, w, check_type2(g, v, w, EVEN))
        assert cert.order == (1, 3, 2)
        degenerate = {
            "empty": replace(cert, x=(), y=()),
            "no vertices": replace(cert, order=(), x=(), y=()),
            "zero": replace(cert, x=(0, 0, 0), y=(0, 0, 0)),
            "proportional, y = e_3 for 0": replace(cert, x=(0, -2, 0), y=(0, 1, 0)),
            "zero x, y = e_1 - e_2 for 2": replace(cert, x=(0, 0, 0), y=(1, 0, -1)),
            "short": replace(cert, x=cert.x[:2], y=cert.y[:2]),
            "repeated vertex": replace(
                cert, order=cert.order + (1,), x=cert.x + (cert.x[0],), y=cert.y + (cert.y[0],)
            ),
        }
        for name, bad in degenerate.items():
            assert not bad.residuals_are_zero(g), name


class TestOracleEquivalenceSampled:
    @given(graphs_with_nonadjacent_pair(max_n=5))
    def test_classify_matches_oracle(self, instance):
        g, v, w, parity = instance
        assert classify(g, v, w, parity).params == siv_oracle(g, v, w, parity).params

    def test_classify_matches_oracle_n6_sample(self):
        for g in random_graphs(seed=77, count=300, n=6):
            for *_, verdict, oracle in cross_check(g):
                assert verdict.params == oracle.params


class TestCrossCheck:
    """The sweep engine against the single-question calls, which form no
    polynomial: the same verdicts, in the same order."""

    def test_matches_single_questions(self):
        graphs = [g for n in range(1, 5) for g in iter_signed_graphs(n)]
        graphs += [g for n in range(5, 13) for g in random_graphs(seed=700 + n, count=4, n=n)]
        for g in graphs:
            assert cross_check(g) == [
                (v, w, parity, classify(g, v, w, parity), siv_oracle(g, v, w, parity))
                for v, w in g.non_adjacent_pairs()
                for parity in (EVEN, ODD)
            ], g

    def test_single_question_runs_no_pass(self, monkeypatch):
        swept = [(g, *d) for g in iter_signed_graphs(4) for d in cross_check(g)]
        for name in ("laplacian_char_poly", "char_poly"):
            monkeypatch.setattr(spectra, name, None)  # a call raises TypeError
        for g, v, w, parity, _, oracle in swept:
            assert siv_oracle(g, v, w, parity) == oracle


class TestOnePassAgainstCenteredForm:
    """The one-pass classifier against the reference built from switched
    copies of the graph: same verdicts, conditions included."""

    @staticmethod
    def assert_matches(g, v, w, parity):
        assert check_type2(g, v, w, parity) == centered_form_type2(g, v, w, parity)
        assert check_type1(g, v, w, parity) == neighbor_set_type1(g, v, w, parity)

    def test_every_instance_up_to_four_vertices(self):
        checked = 0
        for n in range(2, 5):
            for g in iter_signed_graphs(n):
                for v, w in g.non_adjacent_pairs():
                    for parity in (EVEN, ODD):
                        self.assert_matches(g, v, w, parity)
                        checked += 1
        assert checked == 2 + 54 + 2916

    @pytest.mark.parametrize("n", range(5, 13))
    def test_seeded_random_graphs(self, n):
        for g in random_graphs(seed=500 + n, count=12, n=n):
            for v, w in g.non_adjacent_pairs():
                for parity in (EVEN, ODD):
                    self.assert_matches(g, v, w, parity)
