"""Output checks for every workload.

Each check takes one query's exit code and captured standard output and
returns a list of problems; an empty list means the output is correct.  The
arithmetic that anchors the checks (Laplacians, Bareiss determinants,
polynomial products and exact division) lives here, so a wrong answer from the program cannot
also make its own check pass.
"""

from __future__ import annotations

import json
import random

from inputs import Graph

# Pinned tallies of `enumerate --n-limit n` over every labelled signed graph.
EXHAUSTIVE_TALLIES = {
    4: {"graphs": 729, "instances": 2916, "type1": 324, "type2": 528, "none": 2064},
    5: {"graphs": 59049, "instances": 393660, "type1": 14580, "type2": 17560, "none": 361520},
}

# Points at which each reported characteristic polynomial is compared with
# det(kI - L); the large one makes an accidental agreement implausible.
SPOT_POINTS = (-1, 3, 1_000_003)


def laplacian(g: Graph) -> list[list[int]]:
    """Signed Laplacian: degrees on the diagonal, -1 per even edge, +1 per odd."""
    m = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        sign = 1 if (u, v) in g.odd else -1
        m[u - 1][v - 1] = m[v - 1][u - 1] = sign
        m[u - 1][u - 1] += 1
        m[v - 1][v - 1] += 1
    return m


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def char_poly_at(lap: list[list[int]], k: int) -> int:
    """det(kI - L)."""
    n = len(lap)
    return bareiss_det(
        [[(k if i == j else 0) - lap[i][j] for j in range(n)] for i in range(n)]
    )


def evaluate(coeffs: list[int], k: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def _single_json(rc, out: str) -> tuple[dict | None, list[str]]:
    if rc != 0:
        return None, [f"exit code {rc!r}"]
    lines = out.splitlines()
    if len(lines) != 1:
        return None, [f"expected one output line, got {len(lines)}"]
    try:
        payload = json.loads(lines[0])
    except ValueError:
        return None, ["output is not JSON"]
    if not isinstance(payload, dict):
        return None, ["output is not a JSON object"]
    return payload, []


def _check_tally(payload: dict) -> list[str]:
    problems = []
    kinds = [payload.get(k) for k in ("type1", "type2", "none", "instances")]
    if not all(isinstance(x, int) for x in kinds):
        return ["tally fields missing"]
    if sum(kinds[:3]) != kinds[3]:
        problems.append("type counts do not sum to the instance count")
    if payload.get("mismatches") != 0:
        problems.append(f"mismatches = {payload.get('mismatches')!r}")
    return problems


def check_exhaustive(n: int, rc, out: str) -> list[str]:
    payload, problems = _single_json(rc, out)
    if payload is None:
        return problems
    problems = _check_tally(payload)
    for key, want in EXHAUSTIVE_TALLIES[n].items():
        if payload.get(key) != want:
            problems.append(f"{key} = {payload.get(key)!r}, pinned {want}")
    return problems


def sampled_instance_count(n: int, samples: int, seed: int) -> int:
    """Instances of `enumerate --n-limit n --samples k --seed s`, recomputed
    from the graphs the library's public generator draws for that seed."""
    from sivkit.enumeration import random_signed_graph

    rng = random.Random(seed)
    total = 0
    for _ in range(samples):
        g = random_signed_graph(rng, n)
        total += 2 * (n * (n - 1) // 2 - len(g.edges))
    return total


def check_sampled(n: int, samples: int, seed: int, rc, out: str) -> list[str]:
    payload, problems = _single_json(rc, out)
    if payload is None:
        return problems
    problems = _check_tally(payload)
    if payload.get("graphs") != samples:
        problems.append(f"graphs = {payload.get('graphs')!r}, expected {samples}")
    want = sampled_instance_count(n, samples, seed)
    if payload.get("instances") != want:
        problems.append(f"instances = {payload.get('instances')!r}, recomputed {want}")
    return problems


def divide_monic(a: list[int], b: list[int]) -> list[int] | None:
    """Quotient a / b for monic b, or None when b does not divide a."""
    rem = a[:]
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + len(b) - 1]
        quot[k] = q
        for i, d in enumerate(b):
            rem[k + i] -= q * d
    return quot if quot and not any(rem) else None


def check_spectrum(g: Graph, rc, out: str) -> list[str]:
    """The polynomial matches det(kI - L) at the spot points, and it factors
    as the reported residual times linear factors whose roots lie in
    [0, 2 * max degree], the interval that holds every signed Laplacian
    eigenvalue, while the residual has no root there.  An integral spectrum
    must list exactly those roots and sum to trace(L)."""
    payload, problems = _single_json(rc, out)
    if payload is None:
        return problems
    poly = payload.get("char_poly")
    spectrum = payload.get("spectrum")
    if not isinstance(poly, list) or len(poly) != g.n + 1 or poly[-1] != 1:
        return ["char_poly is not a monic list of degree n"]
    lap = laplacian(g)
    for k in SPOT_POINTS:
        if evaluate(poly, k) != char_poly_at(lap, k):
            problems.append(f"char_poly({k}) != det({k}I - L)")
    if spectrum == "non-integral":
        residual = payload.get("residual")
        if not isinstance(residual, list) or len(residual) < 2 or residual[-1] != 1:
            return problems + ["non-integral spectrum without a monic residual"]
    elif isinstance(spectrum, list):
        residual = [1]
        if sum(spectrum) != sum(lap[i][i] for i in range(g.n)):
            problems.append("integral spectrum does not sum to trace(L)")
    else:
        return problems + ["spectrum is neither a list nor 'non-integral'"]
    rest = divide_monic(poly, residual)
    if rest is None:
        return problems + ["the residual does not divide char_poly"]
    top = 2 * max(sum(1 for e in g.edges if v in e) for v in range(1, g.n + 1))
    roots = []
    for r in range(top + 1):
        while len(rest) > 1 and evaluate(rest, r) == 0:
            rest = divide_monic(rest, [-r, 1])
            roots.append(r)
    if rest != [1]:
        problems.append("char_poly / residual has a root outside the integers in range")
    if isinstance(spectrum, list) and sorted(spectrum) != roots:
        problems.append("the integral spectrum lists the wrong roots")
    if len(residual) > 1 and any(evaluate(residual, r) == 0 for r in range(top + 1)):
        problems.append("the residual still has an integer root")
    return problems


def multiply(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def check_plan(start: Graph, target: Graph, rc, out: str) -> list[str]:
    """Replay the plan: each step adds a missing edge with the target's
    parity and the last graph is the target.  Each step's claimed shift
    determines the next characteristic polynomial from the current one
    (type 1: p' = p (x - lam - 2) / (x - lam); type 2: p' = p q(x - 1) / q(x)
    with q = x^2 - s x + p); the division must be exact, the result must
    match det(kI - L) of the new graph at the largest spot point (at all of
    them for the start and the final graph), and `verify_shift_identity`
    must accept the claim."""
    from sivkit.graphs import SignedGraph
    from sivkit.polynomials import IntPoly
    from sivkit.spectra import SivVerdict, char_poly, signed_laplacian, verify_shift_identity

    if rc != 0:
        return [f"exit code {rc!r}"]
    try:
        steps = [json.loads(line) for line in out.splitlines()]
    except ValueError:
        return ["plan line is not JSON"]
    if not steps:
        return ["empty plan"]

    def matches_det(coeffs: list[int], g: Graph, points=SPOT_POINTS) -> bool:
        lap = laplacian(g)
        return all(evaluate(coeffs, k) == char_poly_at(lap, k) for k in points)

    current = start
    poly = list(char_poly(signed_laplacian(SignedGraph(start.n, start.edges, start.odd))).coeffs)
    if not matches_det(poly, current):
        return ["char_poly of the start graph disagrees with det(kI - L)"]
    for number, step in enumerate(steps, start=1):
        try:
            u, v = step["edge"]
            parity, kind = step["parity"], step["kind"]
            e = (min(u, v), max(u, v))
            if kind == "type1":
                lam = int(step["lambda"])
                verdict = SivVerdict("type1", lam=lam)
                before, after = [-lam, 1], [-lam - 2, 1]
            elif kind == "type2":
                s, rho = int(step["s"]), int(step["p"])
                verdict = SivVerdict("type2", s=s, p=rho)
                before, after = [rho, -s, 1], [1 + s + rho, -s - 2, 1]
            else:
                return [f"step {number} has kind {kind!r}"]
        except (KeyError, TypeError, ValueError):
            return [f"step {number} is malformed"]
        if e in current.edges or e not in target.edges:
            return [f"step {number} adds {e}, which is not a missing edge"]
        if parity != ("odd" if e in target.odd else "even"):
            return [f"step {number} gives {e} the wrong parity"]
        current = Graph(
            current.n,
            current.edges | {e},
            current.odd | {e} if parity == "odd" else current.odd,
        )
        poly_after = divide_monic(multiply(poly, after), before)
        if poly_after is None or not matches_det(poly_after, current, SPOT_POINTS[-1:]):
            return [f"step {number}: the claimed shift does not give the new characteristic polynomial"]
        if not verify_shift_identity(IntPoly(tuple(poly)), IntPoly(tuple(poly_after)), verdict):
            return [f"step {number}: verify_shift_identity rejects the claim"]
        poly = poly_after
    if current != target:
        return ["the plan does not end at the target"]
    if not matches_det(poly, current):
        return ["the last characteristic polynomial disagrees with det(kI - L)"]
    return []
