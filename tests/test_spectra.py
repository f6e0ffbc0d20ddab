import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sivkit import (
    EVEN,
    ODD,
    IntPoly,
    SignedGraph,
    SivVerdict,
    char_poly,
    integer_spectrum,
    laplacian_char_poly,
    signed_laplacian,
    siv_oracle,
    switch_at,
    verify_shift_identity,
)
from sivkit import spectra
from sivkit.enumeration import cross_check, iter_signed_graphs
from sivkit.spectra import (
    NONE,
    TYPE1,
    TYPE2,
    IntegerSpectrum,
    _divisors,
    _iroot,
    _krylov_factor,
    _root_bound,
    polynomial_after,
)
from sivkit.fileio import MAX_VERTICES

from conftest import (
    all_switch_sets,
    bareiss_determinant,
    evaluate,
    faddeev_leverrier,
    graphs_with_nonadjacent_pair,
    leibniz_char_poly,
    linear_product,
    polynomial_verdict,
    random_graphs,
    signed_graphs,
    trial_division_roots,
)


class TestSignedLaplacian:
    def test_k2_even(self):
        g = SignedGraph.of(2, [(1, 2, EVEN)])
        assert signed_laplacian(g) == ((1, -1), (-1, 1))

    def test_k2_odd(self):
        g = SignedGraph.of(2, [(1, 2, ODD)])
        assert signed_laplacian(g) == ((1, 1), (1, 1))

    def test_k3_all_even(self):
        L = signed_laplacian(SignedGraph.complete(3))
        assert L == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))

    @given(signed_graphs(max_n=6))
    def test_symmetric_with_degree_diagonal(self, g):
        L = signed_laplacian(g)
        assert L == tuple(zip(*L))
        assert all(L[v - 1][v - 1] == g.degree(v) for v in g.vertices)


def _slot_bound_cases():
    """Matrices whose powers reach char_poly's slot bound.  The entries of
    (c*I)^k have absolute value exactly r^k, r = |c| the largest absolute row
    sum; the c below at n = 1..6 need one to four 64-bit words per entry."""
    cases = [
        pytest.param([[c if i == j else 0 for j in range(n)] for i in range(n)],
                     linear_product([c] * n), id=f"{c}*I{n}")
        for c in (2**63 - 1, -(2**63 - 1), 2**63, -(2**63), 2**64 + 1, -(2**64 + 1))
        for n in range(1, 7)
    ]
    rng = random.Random(30)
    m = [[rng.choice((-1, 1)) * 10**30 + rng.randint(-99, 99) for _ in range(5)] for _ in range(5)]
    assert m != [list(col) for col in zip(*m)]
    cases.append(pytest.param(m, leibniz_char_poly(m), id="nonsymmetric-1e30"))
    diagonal = [2**63 - 1, -(2**63 - 1)] * 2
    cases.append(pytest.param(np.diag(np.array(diagonal, dtype=np.int64)),
                              linear_product(diagonal), id="int64-diagonal"))
    return cases


class TestCharPoly:
    def test_one_by_one_zero(self):
        assert char_poly(((0,),)) == IntPoly((0, 1))

    def test_k3_laplacian(self):
        L = signed_laplacian(SignedGraph.complete(3))
        expected = leibniz_char_poly(L)
        assert expected == IntPoly((0, 9, -6, 1))  # x^3 - 6x^2 + 9x
        assert char_poly(L) == expected

    def test_k2_odd_laplacian(self):
        L = signed_laplacian(SignedGraph.of(2, [(1, 2, ODD)]))
        assert char_poly(L) == IntPoly((0, -2, 1))
        assert char_poly(L) == leibniz_char_poly(L)

    def test_against_permutation_expansion(self):
        for g in iter_signed_graphs(3):
            L = signed_laplacian(g)
            assert char_poly(L) == leibniz_char_poly(L)

    def test_nonsymmetric_matrix(self):
        m = ((1, 2), (0, 3))
        assert char_poly(m) == IntPoly((3, -4, 1))  # (x-1)(x-3)
        assert char_poly(m) == leibniz_char_poly(m)

    @pytest.mark.parametrize("m", [(), ((1, 2),), ((1, 2), (3,))])
    def test_empty_or_ragged_matrix_refused(self, m):
        with pytest.raises(ValueError):
            char_poly(m)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: char_poly([[1.5]]),
            lambda: IntPoly((1.7, 2.2)),
        ],
        ids=["char_poly", "IntPoly"],
    )
    def test_non_integer_entries_refused(self, call):
        # int() would truncate these to 1 and (1, 2) without a word
        with pytest.raises(TypeError):
            call()

    def test_fixed_width_entries_computed_exactly(self):
        np = pytest.importorskip("numpy")
        m = np.diag(np.array([10**7] * 3, dtype=np.int64))
        p = char_poly(m)
        assert p.coeffs[0] == -(10**21)  # beyond int64
        assert p == linear_product([10**7] * 3)
        assert all(type(c) is int for c in p.coeffs)

    @pytest.mark.parametrize("m, expected", _slot_bound_cases())
    def test_entries_at_the_slot_bound(self, m, expected):
        p = char_poly(m)
        assert p == expected
        assert p == faddeev_leverrier(m)

    def test_constant_term_is_signed_determinant(self):
        # exhaustive n <= 4, sampled n in {5, 6}
        graphs = list(iter_signed_graphs(4))
        graphs += list(random_graphs(seed=11, count=250, n=5))
        graphs += list(random_graphs(seed=12, count=250, n=6))
        for g in graphs:
            L = signed_laplacian(g)
            p = char_poly(L)
            assert p.coeffs[0] == (-1) ** g.n * bareiss_determinant(L)

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_random_matrices_match_expansion(self, rows):
        assert char_poly(rows) == leibniz_char_poly(rows)

    @settings(deadline=None)
    @given(st.data())
    def test_power_sums_match_faddeev_leverrier(self, data):
        n = data.draw(st.integers(1, 14), label="n")
        entries = st.integers(-(10**6), 10**6)
        m = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=n, max_size=n), label="m")
        if data.draw(st.booleans(), label="symmetrise"):
            m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        p = char_poly(m)
        assert p == faddeev_leverrier(m)
        if n <= 5:
            assert p == leibniz_char_poly(m)

    def test_symmetric_but_one_entry(self):
        # the mirrored half-product must not be taken for this matrix
        rng = random.Random(13)
        n = 6
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-9, 9)
        m[n - 1][0] += 1
        p = char_poly(m)
        assert p == leibniz_char_poly(m)
        assert p == faddeev_leverrier(m)

    def test_strictly_upper_triangular_is_x_to_the_n(self):
        # every power sum tr(m^k) is 0
        n = 9
        m = [[(i + 2 * j) * (-1) ** j if j > i else 0 for j in range(n)] for i in range(n)]
        assert char_poly(m) == linear_product([0] * n)

    @pytest.mark.parametrize("m, expected", [
        (((5,),), IntPoly((-5, 1))),
        (((-3,),), IntPoly((3, 1))),
        (((1, 2), (3, 4)), IntPoly((-2, -5, 1))),
        (((2, -1), (-1, 2)), IntPoly((3, -4, 1))),  # (x-1)(x-3)
    ])
    def test_one_and_two_rows_form_no_product(self, m, expected):
        assert char_poly(m) == expected
        assert char_poly(m) == leibniz_char_poly(m)

    def test_signed_complete_at_the_vertex_cap(self):
        rng = random.Random(38)
        n = MAX_VERTICES
        odd = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        L = signed_laplacian(SignedGraph.complete(n, odd))
        assert char_poly(L) == faddeev_leverrier(L)

    def test_switched_all_even_complete_at_the_vertex_cap(self):
        n = MAX_VERTICES
        g = switch_at(SignedGraph.complete(n), range(1, n, 3))
        L = signed_laplacian(g)
        p = char_poly(L)
        assert p == linear_product([0] + [n] * (n - 1))
        assert p == faddeev_leverrier(L)


class TestIntegerSpectrum:
    def test_k3_polynomial(self):
        spectrum = integer_spectrum(IntPoly((0, 9, -6, 1)))
        assert spectrum.is_integral and spectrum.roots == (0, 3, 3)

    def test_irrational(self):
        spectrum = integer_spectrum(IntPoly((-2, 0, 1)))
        assert not spectrum.is_integral
        assert spectrum.residual == IntPoly((-2, 0, 1))

    def test_plain_x(self):
        spectrum = integer_spectrum(IntPoly((0, 1)))
        assert spectrum.roots == (0,) and spectrum.is_integral

    def test_partial_peel(self):
        # x * (x-2) * (x^2 - 4x + 2): the quadratic has no integer roots
        p = linear_product([0, 2], (2, -4, 1))
        spectrum = integer_spectrum(p)
        assert not spectrum.is_integral
        assert spectrum.roots == (0, 2) and spectrum.residual == IntPoly((2, -4, 1))

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            integer_spectrum(IntPoly((1, 2)))

    def test_peeling_builds_no_polynomial_per_root(self, monkeypatch):
        # each root is peeled by one synthetic division on a list, so only a
        # residual becomes an IntPoly
        integral = laplacian_char_poly(SignedGraph.complete(12))
        partial = linear_product([0, 2], (2, -4, 1))
        built = []
        post_init = IntPoly.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(IntPoly, "__post_init__", counted)
        assert integer_spectrum(integral) == IntegerSpectrum((0,) + (12,) * 11)
        assert built == []
        spectrum = integer_spectrum(partial)
        assert len(built) == 1 and built[0] is spectrum.residual
        assert spectrum.residual.coeffs == (2, -4, 1)

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
    def test_recovers_planted_roots(self, roots):
        spectrum = integer_spectrum(linear_product(roots))
        assert spectrum.is_integral and spectrum.roots == tuple(sorted(roots))

    @given(st.lists(st.integers(-6, 6), max_size=4))
    def test_multiplies_back(self, roots):
        p = linear_product(roots, (1, 1, 1))  # irreducible tail
        spectrum = integer_spectrum(p)
        residual = spectrum.residual if spectrum.residual is not None else IntPoly((1,))
        assert linear_product(spectrum.roots, residual.coeffs) == p


class TestBoundedRootSearch:
    """integer_spectrum tries only divisors of q(0) within the root bound."""

    @pytest.mark.parametrize(
        ("p", "roots", "residual"),
        [
            # the root 10^6 is the cofactor of 1 and above sqrt(q(0)) = 1000
            (linear_product([10**6, 1]), (1, 10**6), None),
            (linear_product([10**6, 1], (1, 1, 1)), (1, 10**6), IntPoly((1, 1, 1))),
            # bound 2*10^6: the cofactors of the divisors below 5*10^5 are not tried
            (IntPoly((10**12, 0, 1)), (), IntPoly((10**12, 0, 1))),
        ],
    )
    def test_roots_beyond_and_within_the_cap(self, p, roots, residual):
        assert integer_spectrum(p) == IntegerSpectrum(roots, residual)

    @pytest.mark.parametrize("limit", [0, 1, 7, 30, 36, 100, 10**9])
    @pytest.mark.parametrize("value", [1, 36, -36, 97, 720, 2**20])
    def test_divisors_below_the_limit(self, value, limit):
        expected = [d for d in range(1, min(abs(value), limit) + 1) if value % d == 0]
        assert _divisors(value, limit) == expected

    @given(st.integers(0, 2**1200), st.integers(1, 12))
    @example(10**400 - 1, 3)  # beyond float range
    def test_iroot_is_the_floor_root(self, value, k):
        r = _iroot(value, k)
        assert r**k <= value < (r + 1) ** k

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
    def test_bound_is_the_floor_of_fujiwaras(self, coeffs):
        coeffs = tuple(coeffs) + (1,)
        bound = _root_bound(coeffs)
        fujiwara = 2 * max(abs(coeffs[-1 - k]) ** (1 / k) for k in range(1, len(coeffs)))
        assert bound <= fujiwara * (1 + 1e-12) < bound + 1
        assert np.abs(np.roots(coeffs[::-1])).max() <= fujiwara * (1 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-(10**4), 10**4), max_size=6),
        st.sampled_from([(1,), (1, 1, 1), (-2, 0, 1), (-2, 0, 0, 1)]),
    )
    def test_matches_trial_division(self, planted, tail):
        p = linear_product(planted, tail)
        # tail has no integer root, so every integer root is planted in +-10^4
        roots, cofactor = trial_division_roots(p.coeffs, 10**4)
        residual = None if cofactor == [1] else IntPoly(tuple(cofactor))
        assert integer_spectrum(p) == IntegerSpectrum(tuple(roots), residual)


def _bumped_matches(evs, evs2, bumps, atol=1e-9) -> bool:
    """True when evs2 equals evs with the named eigenvalues shifted."""
    work = list(evs)
    used: set[int] = set()
    for value, delta in bumps:
        free = [i for i in range(len(work)) if i not in used]
        idx = min(free, key=lambda i: abs(work[i] - value))
        if abs(work[idx] - value) > 1e-6:
            return False
        used.add(idx)
        work[idx] += delta
    return np.allclose(np.sort(work), evs2, atol=atol)


def _any_integral_shift(evs, evs2, atol=1e-9) -> bool:
    """Does any single +2 bump or distinct +1,+1 pair of bumps match?"""
    n = len(evs)
    for i in range(n):
        mod = np.array(evs)
        mod[i] += 2.0
        if np.allclose(np.sort(mod), evs2, atol=atol):
            return True
    for i in range(n):
        for j in range(i + 1, n):
            mod = np.array(evs)
            mod[i] += 1.0
            mod[j] += 1.0
            if np.allclose(np.sort(mod), evs2, atol=atol):
                return True
    return False


def p3_leaves():
    return SignedGraph.of(3, [(1, 2, EVEN), (2, 3, EVEN)]), 1, 3


class TestSivOracle:
    def test_type1_path(self):
        g, v, w = p3_leaves()
        before, after = laplacian_char_poly(g), laplacian_char_poly(g.add_edge(v, w, EVEN))
        assert before == IntPoly((0, 3, -4, 1))
        assert after == IntPoly((0, 9, -6, 1))
        verdict = siv_oracle(g, v, w, EVEN)
        assert verdict.params == ("type1", 1, None, None)
        assert integer_spectrum(before).roots == (0, 1, 3)
        assert integer_spectrum(after).roots == (0, 3, 3)

    def test_type2_isolated_vertex(self):
        g = SignedGraph.of(3, [(1, 2, EVEN)])
        verdict = siv_oracle(g, 1, 3, EVEN)
        assert verdict.params == ("type2", None, 2, 0)
        assert integer_spectrum(laplacian_char_poly(g)).roots == (0, 0, 2)
        after = laplacian_char_poly(g.add_edge(1, 3, EVEN))
        assert integer_spectrum(after).roots == (0, 1, 3)

    def test_none_on_path_endpoints(self):
        g = SignedGraph.all_even(4, [(1, 2), (2, 3), (3, 4)])
        assert siv_oracle(g, 1, 4, EVEN).kind == "none"

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_plane_with_another_a_is_none_from_one_product(self, parity):
        # 2K2 with the even edges 14 and 23, adding 12: u spans the plane
        # L^2 u = 2 L u, but a type-2 plane needs a = d_1 + d_2 + 1 = 3, so
        # the verdict is none, and entry 3 ((L^2 u)_3 = 2 y1_3, not 3 y1_3)
        # refuses it before L^2 u is formed.  On the packed path L u reads
        # the columns of v and w, and L^2 u one column per entry of L u, so
        # the columns read count the products.
        g = SignedGraph.all_even(4, [(1, 4), (2, 3)])
        sign = 1 if parity == ODD else -1
        lap = np.array(signed_laplacian(g))
        u = np.array([1, sign, 0, 0])
        assert (lap @ lap @ u == 2 * (lap @ u)).all()
        p = faddeev_leverrier(signed_laplacian(g))
        after = faddeev_leverrier(signed_laplacian(g.add_edge(1, 2, parity)))
        assert polynomial_verdict(p, after) == (NONE, None, None, None)

        def columns_read(graph):
            reads = []

            class Columns(list):
                def __getitem__(self, j):
                    reads.append(j)
                    return super().__getitem__(j)

            w, bias, columns = graph._packed
            vars(graph)["_packed"] = w, bias, Columns(columns)
            return reads

        reads = columns_read(g)
        assert siv_oracle(g, 1, 2, parity).params == (NONE, None, None, None)
        assert reads == [1, 2]  # L u alone
        # a type-2 plane passes entry i and forms L^2 u once: after the
        # columns of v and w, no column is read twice
        h = SignedGraph.of(3, [(1, 2, EVEN)])
        reads = columns_read(h)
        assert siv_oracle(h, 1, 3, EVEN).kind == TYPE2
        assert reads[:2] == [1, 3] and 1 in reads[2:]
        assert len(reads[2:]) == len(set(reads[2:]))

    def test_adjacent_pair_rejected(self):
        with pytest.raises(ValueError):
            siv_oracle(SignedGraph.of(2, [(1, 2, EVEN)]), 1, 2, EVEN)

    def test_bad_parity_rejected(self):
        g = SignedGraph(2, frozenset(), frozenset())
        with pytest.raises(ValueError):
            siv_oracle(g, 1, 2, "flip")

    def test_certificates_verify(self):
        g, v, w = p3_leaves()
        verdict = siv_oracle(g, v, w, EVEN)
        p = laplacian_char_poly(g)
        p_after = laplacian_char_poly(g.add_edge(v, w, EVEN))
        assert verify_shift_identity(p, p_after, verdict)

    @given(graphs_with_nonadjacent_pair(max_n=5))
    def test_verdicts_carry_valid_certificates(self, instance):
        g, v, w, parity = instance
        verdict = siv_oracle(g, v, w, parity)
        if verdict.kind != "none":
            p = laplacian_char_poly(g)
            p_after = laplacian_char_poly(g.add_edge(v, w, parity))
            assert verify_shift_identity(p, p_after, verdict)

    def test_agrees_with_float_eigensolver(self):
        # test-only cross-check at the multiset level: the verdict names the
        # eigenvalues that move, so bump exactly those and compare spectra.
        # (Sorted positional differences can spread when an unmoved eigenvalue
        # lies strictly between lam and lam+2, so they are not compared.)
        graphs = list(iter_signed_graphs(4))
        graphs += list(random_graphs(seed=5, count=400, n=5))
        for g in graphs:
            evs = np.sort(np.linalg.eigvalsh(np.array(signed_laplacian(g), dtype=float)))
            for v, w, parity, _, verdict in cross_check(g):
                after = signed_laplacian(g.add_edge(v, w, parity))
                evs2 = np.sort(np.linalg.eigvalsh(np.array(after, dtype=float)))
                if verdict.kind == "type1":
                    assert _bumped_matches(evs, evs2, [(verdict.lam, 2.0)])
                elif verdict.kind == "type2":
                    disc = verdict.s * verdict.s - 4 * verdict.p
                    root = disc ** 0.5
                    lo, hi = (verdict.s - root) / 2, (verdict.s + root) / 2
                    assert _bumped_matches(evs, evs2, [(lo, 1.0), (hi, 1.0)])
                else:
                    assert not _any_integral_shift(evs, evs2), (g, v, w, parity)


def _additions(g):
    for v, w in g.non_adjacent_pairs():
        for parity in (EVEN, ODD):
            yield v, w, parity


class TestDerivedAdditionPolynomials:
    """The closed-form verdicts against the polynomials of g and of g + vw,
    each computed from scratch: the verdict read off the two polynomials
    alone must equal siv_oracle's, and polynomial_after must derive the
    second from the first on every positive verdict."""

    def test_matches_direct_char_poly(self):
        for n in range(2, 13):
            for g in random_graphs(seed=100 + n, count=3, n=n, edge_prob=0.4):
                p = laplacian_char_poly(g)
                for v, w, parity in _additions(g):
                    after = char_poly(signed_laplacian(g.add_edge(v, w, parity)))
                    verdict = siv_oracle(g, v, w, parity)
                    assert verdict.params == polynomial_verdict(p, after), (g, v, w, parity)
                    if verdict.kind != NONE:
                        assert polynomial_after(p, verdict) == after, (g, v, w, parity)

    def test_matches_permutation_expansion(self):
        graphs = list(iter_signed_graphs(3))
        graphs += list(random_graphs(seed=21, count=40, n=4))
        graphs += list(random_graphs(seed=22, count=12, n=5))
        for g in graphs:
            p = leibniz_char_poly(signed_laplacian(g))
            for v, w, parity in _additions(g):
                after = leibniz_char_poly(signed_laplacian(g.add_edge(v, w, parity)))
                assert siv_oracle(g, v, w, parity).params == polynomial_verdict(p, after), (g, v, w, parity)

    def test_krylov_route_matches_the_pass(self):
        # The verdict follows _krylov_factor: a line is type 1, a plane
        # (returned only with a = d_v + d_w + 1) is type 2, and anything
        # else is none.  Against the verdict read off the polynomials of a
        # Faddeev-LeVerrier pass on g and on g + vw, for every addition of
        # the seeded graphs, plus dense graphs at the vertex cap, where the
        # pass is checked on the first addition only.
        graphs = [g for n in range(2, 13) for g in random_graphs(seed=100 + n, count=3, n=n, edge_prob=0.4)]
        graphs += list(random_graphs(seed=31, count=2, n=MAX_VERTICES, edge_prob=0.95))
        routes = {"type1": 0, "type2": 0, "none": 0}
        for g in graphs:
            p = faddeev_leverrier(signed_laplacian(g))
            for i, (v, w, parity) in enumerate(_additions(g)):
                params = siv_oracle(g, v, w, parity).params
                m = _krylov_factor(g, v, w, parity)
                route = "none" if m is None else f"type{len(m) - 1}"
                routes[route] += 1
                assert (route == "type1") == (params[0] == TYPE1), (g, v, w, parity)
                assert (route == "type2") == (params[0] == TYPE2), (g, v, w, parity)
                if g.n < MAX_VERTICES or i == 0:
                    after = faddeev_leverrier(signed_laplacian(g.add_edge(v, w, parity)))
                    assert params == polynomial_verdict(p, after), (g, v, w, parity)
        assert min(routes.values()) > 0, routes

    def test_no_krylov_factor_forms_no_polynomial(self, monkeypatch):
        # u of Krylov dimension 3 or more is none, and the oracle runs
        # neither laplacian_char_poly nor char_poly for any u.
        swept = [
            (g, v, w, parity, oracle)
            for n in range(1, 5)
            for g in iter_signed_graphs(n)
            for v, w, parity, _, oracle in cross_check(g)
        ]
        unfactored = [d for d in swept if _krylov_factor(*d[:4]) is None]
        assert unfactored and all(d[4].kind == NONE for d in unfactored)
        for name in ("laplacian_char_poly", "char_poly"):
            monkeypatch.setattr(spectra, name, None)  # a call raises TypeError
        for g, v, w, parity, oracle in swept:
            assert siv_oracle(g, v, w, parity) == oracle, (g, v, w, parity)

    @pytest.mark.parametrize(
        "g, v, w, parity, dimension",
        [
            # u = e_1 - e_3 on the path 1-2-3: L u = u
            (SignedGraph.all_even(4, [(1, 2), (2, 3)]), 1, 3, EVEN, 1),
            # u = e_1 - e_3 beside the edge 12: L^2 u = 2 L u, a type-2 plane
            (SignedGraph.all_even(4, [(1, 2)]), 1, 3, EVEN, 2),
        ],
    )
    def test_polynomial_the_krylov_factor_does_not_divide_raises(self, g, v, w, parity, dimension):
        # Re-checking a verdict against a polynomial its factor does not
        # divide is an internal invariant failure (exit 2), not a refused
        # input.  x^n is divisible by no monic m with a nonzero root.
        m = _krylov_factor(g, v, w, parity)
        assert len(m) - 1 == dimension and any(m[:-1])
        verdict = siv_oracle(g, v, w, parity)
        assert verdict.kind != NONE
        with pytest.raises(ArithmeticError):
            polynomial_after(IntPoly((0,) * g.n + (1,)), verdict)


class TestVerifyShiftIdentity:
    def test_type1_example(self):
        assert verify_shift_identity(
            IntPoly((0, 3, -4, 1)), IntPoly((0, 9, -6, 1)), SivVerdict("type1", lam=1)
        )

    def test_type2_example(self):
        assert verify_shift_identity(
            IntPoly((0, 0, -2, 1)), IntPoly((0, 3, -4, 1)), SivVerdict("type2", s=2, p=0)
        )

    def test_equal_polynomials_fail(self):
        p = IntPoly((0, 3, -4, 1))
        assert not verify_shift_identity(p, p, SivVerdict("type1", lam=1))
        assert not verify_shift_identity(p, p, SivVerdict("type2", s=2, p=0))

    def test_polynomial_after_solves_the_identity(self):
        assert polynomial_after(IntPoly((0, 3, -4, 1)), SivVerdict("type1", lam=1)) == IntPoly((0, 9, -6, 1))
        assert polynomial_after(IntPoly((0, 0, -2, 1)), SivVerdict("type2", s=2, p=0)) == IntPoly((0, 3, -4, 1))
        # the written-out q(x - 1) against the composition, over a grid of
        # s, rho: p' = x (x - s) (x - rho) q(x - 1) has degree 5, so it is
        # fixed by its values at nine points
        for s in range(-3, 9):
            for rho in range(-5, 11):
                q = IntPoly((rho, -s, 1))
                p = linear_product([0, s, rho], q.coeffs)
                after = polynomial_after(p, SivVerdict("type2", s=s, p=rho))
                assert after.degree == 5
                for t in range(-4, 5):
                    assert evaluate(after, t) == t * (t - s) * (t - rho) * evaluate(q, t - 1)
        with pytest.raises(ValueError):
            polynomial_after(IntPoly((0, 1)), SivVerdict("none"))

    def test_none_verdict_rejected(self):
        with pytest.raises(ValueError):
            verify_shift_identity(IntPoly((0, 1)), IntPoly((0, 1)), SivVerdict("none"))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_shift_identity(
                IntPoly((0, 1)), IntPoly((0, 0, 1)), SivVerdict("type1", lam=0)
            )


class TestSwitchingInvarianceOfSpectra:
    def test_char_poly_fixed_under_all_switchings(self):
        for g in iter_signed_graphs(3):
            p = laplacian_char_poly(g)
            for s in all_switch_sets(3):
                assert laplacian_char_poly(switch_at(g, s)) == p

    @given(signed_graphs(min_n=2, max_n=6), st.sets(st.integers(1, 6)))
    def test_random_switchings(self, g, s):
        s = {1 + (v - 1) % g.n for v in s}
        assert laplacian_char_poly(switch_at(g, s)) == laplacian_char_poly(g)


class TestVerdictSerialization:
    def test_type1_json(self):
        v = SivVerdict("type1", lam=3)
        assert v.to_json_dict() == {"kind": "type1", "lambda": 3}

    def test_type2_json_with_conditions(self):
        v = SivVerdict("type2", s=5, p=6, conditions=(("A", True), ("positivity", True)))
        assert v.to_json_dict() == {
            "kind": "type2",
            "s": 5,
            "p": 6,
            "conditions": {"A": True, "positivity": True},
        }
