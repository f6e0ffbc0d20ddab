"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive exhaustive sweep over all signed graphs on up to five vertices
is shared: criterion 1 builds it, criteria 2-4 reuse its verdict tables and
characteristic polynomials.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion report lines.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations

import pytest

from sivkit import (
    EVEN,
    ODD,
    SignedComplete,
    SignedGraph,
    build_type2_eigenvectors,
    check_type2,
    classify,
    edge_quantities,
    is_plain_integrally_completable,
    is_sigma_completable,
    laplacian_char_poly,
    make_centered,
    plan_completion,
    siv_oracle,
    substitute,
    substitution_spectrum,
    swap_y,
    switch_at,
    verify_shift_identity,
    x_set,
    y_set,
)
from sivkit.cli import main
from sivkit.enumeration import (
    all_pairs,
    cross_check,
    iter_signed_graphs,
    iter_subsets,
    random_signed_graph,
)

from conftest import (
    brute_force_completable,
    iter_signed_completes,
    polynomial_verdict,
    random_signed_complete,
)

SEED = 20260810
RANDOM_GRAPHS_PER_ORDER = 5_000  # criterion 1: orders 6 and 7, two parities each
STRUCTURE_SAMPLES_PER_ORDER = 10_000  # criterion 5: orders 6 and 7
SPECTRUM_COMBOS = 1_200  # criterion 6
COMPLETABILITY_SAMPLES = 1_000  # criterion 8, order 5


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def encode(verdict) -> tuple[int, int, int]:
    if verdict.kind == "type1":
        return (1, verdict.lam, 0)
    if verdict.kind == "type2":
        return (2, verdict.s, verdict.p)
    return (0, 0, 0)


def to_even_instance(g: SignedGraph, v: int, w: int, parity: str) -> SignedGraph:
    """Reduce an odd addition to the even one on the switched graph."""
    if parity == EVEN:
        return g
    return switch_at(g, (g.neighbors(w) - g.neighbors(v)) | {w})


@dataclass
class Survey:
    exhaustive_instances: int = 0
    random_instances: int = 0
    counts: dict = field(default_factory=lambda: {"type1": 0, "type2": 0, "none": 0})
    mismatches: list = field(default_factory=list)
    type2_instances: list = field(default_factory=list)
    verdict_tables: dict = field(default_factory=dict)
    polys: dict = field(default_factory=dict)
    # (g, v, w, parity, oracle params, params read off the two polynomials)
    reference_mismatches: list = field(default_factory=list)


@pytest.fixture(scope="module")
def survey() -> Survey:
    out = Survey()
    for n in range(1, 6):
        table: dict = {}
        graphs = list(iter_signed_graphs(n))
        for g in graphs:
            out.polys[g] = laplacian_char_poly(g)
        for g in graphs:
            flat: list[int] = []
            for v, w, parity, verdict, oracle in cross_check(g):
                # the oracle against the verdict read off p and p' alone
                reference = polynomial_verdict(out.polys[g], out.polys[g.add_edge(v, w, parity)])
                if oracle.params != reference:
                    out.reference_mismatches.append((g, v, w, parity, oracle.params, reference))
                out.exhaustive_instances += 1
                out.counts[verdict.kind] += 1
                if verdict.params != oracle.params:
                    out.mismatches.append((g, v, w, parity, verdict.params, oracle.params))
                flat.extend(encode(verdict))
                if verdict.kind == "type2":
                    out.type2_instances.append((g, v, w, parity, verdict.s, verdict.p))
            table[g] = tuple(flat)
        out.verdict_tables[n] = table
    rng = random.Random(SEED)
    for n in (6, 7):
        for _ in range(RANDOM_GRAPHS_PER_ORDER):
            g = random_signed_graph(rng, n)
            missing = list(g.non_adjacent_pairs())
            if not missing:
                continue
            v, w = rng.choice(missing)
            for parity in (EVEN, ODD):
                out.random_instances += 1
                verdict = classify(g, v, w, parity)
                oracle = siv_oracle(g, v, w, parity)
                if verdict.params != oracle.params:
                    out.mismatches.append(
                        (g, v, w, parity, verdict.params, oracle.params)
                    )
                if verdict.kind == "type2":
                    out.type2_instances.append((g, v, w, parity, verdict.s, verdict.p))
    return out


def test_criterion_01_characterization_equals_oracle(survey):
    ok = not survey.mismatches and survey.random_instances >= 10_000
    report(
        1,
        ok,
        f"characterization vs oracle: {survey.exhaustive_instances} exhaustive "
        f"(n<=5) + {survey.random_instances} random (n=6,7) instances, "
        f"{len(survey.mismatches)} mismatches, verdicts {survey.counts}",
    )


def test_oracle_matches_the_polynomials_of_every_small_addition(survey):
    # the closed-form oracle against the verdict read off the polynomials
    # of g and g + vw alone, for every instance with n <= 5
    assert survey.exhaustive_instances == 396_632
    assert not survey.reference_mismatches, survey.reference_mismatches[:5]


def test_criterion_02_sum_product_positivity_identities(survey):
    bad = 0
    for g, v, w, parity, s, p in survey.type2_instances:
        even_g = to_even_instance(g, v, w, parity)
        q = edge_quantities(even_g, v, w)
        if not (
            s == q.d1 + q.d2 + 1
            and p == q.d1 * q.d2 + q.t
            and q.d1 + q.d2 - 2 * q.t > 0
            and q.d1 + q.d2 - 2 * q.t == q.a + q.b + 4 * q.d
        ):
            bad += 1
    report(
        2,
        bad == 0,
        f"sum/product/positivity identities on {len(survey.type2_instances)} "
        f"two-shift instances, {bad} violations",
    )


def test_criterion_03_exact_eigenvector_certificates(survey):
    bad = 0
    irrational = 0
    for g, v, w, parity, s, p in survey.type2_instances:
        even_g = to_even_instance(g, v, w, parity)
        centered, _ = make_centered(even_g, v, w)
        verdict = check_type2(even_g, v, w, EVEN)
        cert = build_type2_eigenvectors(centered, v, w, verdict)
        if (cert.s, cert.p) != (s, p) or not cert.residuals_are_zero(centered):
            bad += 1
        disc = s * s - 4 * p
        root = math.isqrt(disc)
        if root * root != disc:
            irrational += 1
    ok = bad == 0 and irrational >= 1
    report(
        3,
        ok,
        f"eigenvector residuals exactly zero on {len(survey.type2_instances)} "
        f"instances ({irrational} with irrational eigenvalue pairs), {bad} failures",
    )


def test_criterion_04_switching_invariance(survey):
    # Singleton switchings generate all of them, and every intermediate
    # signing is itself a row of the table, so checking each singleton on
    # every signing covers every switching set; a random sample of larger
    # sets double-checks the composition argument directly.
    poly_bad = 0
    verdict_bad = 0
    checked = 0
    for n in range(1, 6):
        table = survey.verdict_tables[n]
        for g, verd in table.items():
            base_poly = survey.polys[g]
            for u in g.vertices:
                gs = switch_at(g, {u})
                checked += 1
                if survey.polys[gs] != base_poly:
                    poly_bad += 1
                verd2 = table[gs]
                for si, (v, w) in enumerate(g.non_adjacent_pairs()):
                    flip = 1 if (v == u) != (w == u) else 0
                    for pi in (0, 1):
                        j1 = (si * 2 + pi) * 3
                        j2 = (si * 2 + (pi ^ flip)) * 3
                        if (
                            verd[j1] != verd2[j2]
                            or verd[j1 + 1] != verd2[j2 + 1]
                            or verd[j1 + 2] != verd2[j2 + 2]
                        ):
                            verdict_bad += 1
    rng = random.Random(SEED + 4)
    keys = list(survey.verdict_tables[5])
    for _ in range(2_000):
        g = rng.choice(keys)
        s = {v for v in g.vertices if rng.random() < 0.5}
        gs = switch_at(g, s)
        checked += 1
        if survey.polys[gs] != survey.polys[g]:
            poly_bad += 1
        verd, verd2 = survey.verdict_tables[5][g], survey.verdict_tables[5][gs]
        for si, (v, w) in enumerate(g.non_adjacent_pairs()):
            flip = 1 if (v in s) != (w in s) else 0
            for pi in (0, 1):
                j1 = (si * 2 + pi) * 3
                j2 = (si * 2 + (pi ^ flip)) * 3
                if verd[j1 : j1 + 3] != verd2[j2 : j2 + 3]:
                    verdict_bad += 1
    ok = poly_bad == 0 and verdict_bad == 0
    report(
        4,
        ok,
        f"switching invariance over {checked} switched signings: "
        f"{poly_bad} spectrum changes, {verdict_bad} verdict changes",
    )


def _structure_violations(t: SignedComplete) -> list[str]:
    problems = []
    x = x_set(t)
    y = y_set(t)
    for uv, vw in combinations(sorted(x), 2):
        shared = set(uv) & set(vw)
        if shared:
            a, b = sorted((set(uv) | set(vw)) - shared)
            if (a, b) not in x:
                problems.append(f"open triangle {uv},{vw} in all-even set")
    if len(y) > 1:
        problems.append("more than one balanced all-odd edge")
    if t.n % 2 == 0 and y:
        problems.append("balanced all-odd edge at even order")
    x_vertices = {v for e in x for v in e}
    y_vertices = {v for e in y for v in e}
    if x_vertices & y_vertices:
        problems.append("vertex meets both edge sets")
    if y:
        swapped = swap_y(t)
        if x_set(swapped) != x | y:
            problems.append("swap did not merge the sets")
        if y_set(swapped) != frozenset():
            problems.append("swap left a balanced all-odd edge")
        if swap_y(swapped) != swapped:
            problems.append("swap is not idempotent")
    return problems


def test_criterion_05_triangle_set_structure():
    bad: list[str] = []
    checked = 0
    swaps = 0
    for n in (4, 5):
        for t in iter_signed_completes(n):
            checked += 1
            swaps += bool(y_set(t))
            bad.extend(_structure_violations(t))
    rng = random.Random(SEED + 5)
    for n in (6, 7):
        for _ in range(STRUCTURE_SAMPLES_PER_ORDER):
            t = random_signed_complete(rng, n)
            checked += 1
            swaps += bool(y_set(t))
            bad.extend(_structure_violations(t))
    # the specific order-7 instance with balanced edge (1,2)
    odd = [(2, u) for u in range(3, 8)] + [(3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
    k7 = SignedComplete.of(7, odd)
    if y_set(k7) != frozenset({(1, 2)}):
        bad.append("known order-7 instance lost its balanced edge")
    ok = not bad
    report(
        5,
        ok,
        f"triangle-set structure on {checked} signed complete graphs "
        f"({swaps} with a balanced all-odd edge): {len(bad)} violations"
        + (f"; first: {bad[0]}" if bad else ""),
    )


def _eligible_part(rng: random.Random) -> SignedGraph:
    # all-even graphs always have the all-ones eigenvector (eigenvalue 0);
    # so do odd-regular signings like an odd K2 or the all-odd triangle
    choice = rng.random()
    if choice < 0.15:
        return SignedGraph.of(2, [(1, 2, ODD)])
    if choice < 0.3:
        return SignedGraph.complete(3, [(1, 2), (1, 3), (2, 3)])
    n = rng.randint(1, 3)
    edges = frozenset(e for e in all_pairs(n) if rng.random() < 0.6)
    return SignedGraph(n, edges, frozenset())


def test_criterion_06_substitution_spectrum():
    rng = random.Random(SEED + 6)
    checked = 0
    bad = 0
    while checked < SPECTRUM_COMBOS:
        k = rng.randint(1, 3)
        quotient = random_signed_graph(rng, k, edge_prob=0.7)
        parts = {q: _eligible_part(rng) for q in quotient.vertices}
        if sum(p.n for p in parts.values()) > 9:
            continue
        checked += 1
        spectrum = substitution_spectrum(quotient, parts)
        direct = laplacian_char_poly(substitute(quotient, parts))
        if spectrum.total_poly != direct:
            bad += 1
    report(
        6,
        bad == 0,
        f"substitution spectrum vs direct characteristic polynomial on "
        f"{checked} random quotient/part combinations, {bad} mismatches",
    )


def test_criterion_07_balanced_edge_is_the_only_outside_shift():
    checked = 0
    bad = 0
    rng = random.Random(SEED + 7)
    for n in (4, 5):
        for t in iter_signed_completes(n):
            x = x_set(t)
            y = y_set(t)
            candidates = [e for e in t.all_edges() if e not in x]
            if not candidates:
                continue
            x_sorted = sorted(x)
            if len(x_sorted) <= 8:
                subsets = list(iter_subsets(x_sorted))
            else:
                subsets = [
                    frozenset(e for e in x_sorted if rng.random() < 0.5)
                    for _ in range(256)
                ]
            full = frozenset(t.all_edges())
            for x_sub in subsets:
                for vw in candidates:
                    checked += 1
                    edges = full - x_sub - {vw}
                    g = SignedGraph(n, edges, t.odd & edges)
                    verdict = siv_oracle(g, *vw, t.parity(*vw))
                    if (verdict.kind != "none") != (vw in y):
                        bad += 1
    ok = bad == 0 and checked >= 1_000
    report(
        7,
        ok,
        f"shift outside the all-even set iff the balanced edge: "
        f"{checked} removals checked, {bad} violations",
    )


@dataclass
class CompletabilityData:
    checked: int = 0
    disagreements: int = 0
    positives: list = field(default_factory=list)


@pytest.fixture(scope="module")
def completability() -> CompletabilityData:
    data = CompletabilityData()
    pairs4 = all_pairs(4)
    for t in iter_signed_completes(4):
        memo: dict = {}
        for edges in iter_subsets(pairs4):
            matching = SignedGraph(4, edges, t.odd & edges)
            instances = [matching]
            if edges:
                flip = min(edges)
                instances.append(
                    SignedGraph(4, edges, (t.odd & edges) ^ {flip})
                )
            for g in instances:
                data.checked += 1
                thm = is_sigma_completable(g, t)
                bf = brute_force_completable(g, t, memo)
                if thm != bf:
                    data.disagreements += 1
                elif thm:
                    data.positives.append((g, t))
    rng = random.Random(SEED + 8)
    pairs5 = all_pairs(5)
    for i in range(COMPLETABILITY_SAMPLES):
        t = random_signed_complete(rng, 5)
        prob = rng.uniform(0.3, 0.95)
        edges = frozenset(e for e in pairs5 if rng.random() < prob)
        odd = t.odd & edges
        if i % 2 and edges:
            odd = odd ^ {min(edges)}  # deliberately break the sign restriction
        g = SignedGraph(5, edges, odd)
        data.checked += 1
        thm = is_sigma_completable(g, t)
        bf = brute_force_completable(g, t)
        if thm != bf:
            data.disagreements += 1
        elif thm:
            data.positives.append((g, t))
    return data


def test_criterion_08_completability_theorem_equals_search(completability):
    ok = completability.disagreements == 0
    report(
        8,
        ok,
        f"completability characterization vs exhaustive search on "
        f"{completability.checked} instances "
        f"({len(completability.positives)} completable), "
        f"{completability.disagreements} disagreements",
    )


def test_criterion_09_planner_soundness(completability):
    bad = 0
    steps_total = 0
    for g, t in completability.positives:
        plan = plan_completion(g, t)
        current = g
        sound = True
        for step in plan.steps:
            before = laplacian_char_poly(current)
            current = current.add_edge(*step.edge, step.parity)
            after = laplacian_char_poly(current)
            if not verify_shift_identity(before, after, step.verdict):
                sound = False
            steps_total += 1
        if not sound or current != SignedGraph.complete(t.n, t.odd):
            bad += 1
    ok = bad == 0
    report(
        9,
        ok,
        f"planner soundness on {len(completability.positives)} completable "
        f"instances ({steps_total} certified steps), {bad} failures",
    )


def test_criterion_10_known_spot_values(tmp_path, capsys):
    from conftest import leibniz_char_poly
    from sivkit import integer_spectrum, signed_laplacian

    problems = []

    if is_plain_integrally_completable(4, [(1, 2), (2, 3), (3, 4)]):
        problems.append("path on four vertices accepted")
    for n in range(1, 7):
        if not is_plain_integrally_completable(n, all_pairs(n)):
            problems.append(f"complete graph on {n} rejected")

    # recompute the expected spectra with the independent expansion oracle
    p3 = SignedGraph.all_even(3, [(1, 2), (2, 3)])
    c3 = p3.add_edge(1, 3, EVEN)
    spec_before = integer_spectrum(leibniz_char_poly(signed_laplacian(p3)))
    spec_after = integer_spectrum(leibniz_char_poly(signed_laplacian(c3)))
    if spec_before.roots != (0, 1, 3) or spec_after.roots != (0, 3, 3):
        problems.append("type-1 transition spectra changed")

    g2 = SignedGraph.of(3, [(1, 2, EVEN)])
    g2_after = g2.add_edge(1, 3, EVEN)
    if integer_spectrum(leibniz_char_poly(signed_laplacian(g2))).roots != (0, 0, 2):
        problems.append("type-2 before-spectrum changed")
    if integer_spectrum(leibniz_char_poly(signed_laplacian(g2_after))).roots != (0, 1, 3):
        problems.append("type-2 after-spectrum changed")

    from sivkit import dumps_sg

    p3_path = tmp_path / "p3.sg"
    p3_path.write_text(dumps_sg(p3))
    g2_path = tmp_path / "g2.sg"
    g2_path.write_text(dumps_sg(g2))

    if main(["spectrum", str(p3_path)]) != 0:
        problems.append("spectrum command failed")
    if capsys.readouterr().out.strip() != "x^3-4x^2+3x; spectrum 0,1,3":
        problems.append("path spectrum output changed")

    if main(["check-siv", str(p3_path), "1", "3", "--parity", "even"]) != 0:
        problems.append("type-1 check exited nonzero")
    payload = json.loads(capsys.readouterr().out)
    if not (payload["kind"] == "type1" and payload["lambda"] == 1
            and payload["oracle"] == "agree"):
        problems.append(f"type-1 verdict payload {payload}")

    if main(["check-siv", str(g2_path), "1", "3", "--parity", "even"]) != 0:
        problems.append("type-2 check exited nonzero")
    payload = json.loads(capsys.readouterr().out)
    if not (payload["kind"] == "type2" and (payload["s"], payload["p"]) == (2, 0)
            and payload["oracle"] == "agree"):
        problems.append(f"type-2 verdict payload {payload}")

    report(
        10,
        not problems,
        "known spot values (obstruction tests, spectra transitions, "
        f"command outputs): {len(problems)} problems"
        + (f"; first: {problems[0]}" if problems else ""),
    )
