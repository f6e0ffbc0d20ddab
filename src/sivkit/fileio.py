"""Text formats: `.sg` signed graphs and `.sk` signed complete graphs.

`.sg`: a line `n <count>`, then `e <u> <v> <+|->` per edge (`+` even,
`-` odd).  `.sk`: a line `n <count>`, then `odd <u> <v>` per odd pair; all
other pairs are even.  Lines starting with `#` and blank lines are ignored.
"""

from __future__ import annotations

import os
from .completion import SignedComplete
from .graphs import Edge, SignedGraph, edge

# The largest vertex count read from a file or sampled by the CLI.  `plan`
# toward an all-even target is the binding command: at 38 vertices it takes
# 0.07-0.15 s from the empty graph, a star or a 4- or 6-clique plus isolated
# vertices, the slowest starts found (in-process through cli.main, best of
# two per start in each of three rounds, in four processes, 2-vCPU Xeon).
# At 38 every other command takes under 0.1 s: `spectrum` of a signed K38
# (0.04 s), `check-siv` on K38 minus an edge (0.07 s), `xy`, `decompose`,
# `completable` (0.002 s or less), and a sampled sweep of one graph
# (0.02-0.03 s, best of three calls for each of seeds 1-4).
MAX_VERTICES = 38


class ParseError(ValueError):
    """Input file rejected; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _meaningful_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line.split()


def _parse_header(number: int, tokens: list[str]) -> int:
    if tokens[0] != "n" or len(tokens) != 2:
        raise ParseError(number, "expected header 'n <count>'")
    try:
        n = int(tokens[1])
    except ValueError:
        raise ParseError(number, f"bad vertex count {tokens[1]!r}") from None
    if n < 1:
        raise ParseError(number, "vertex count must be at least 1")
    if n > MAX_VERTICES:
        raise ParseError(number, f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return n


def _parse_pair(number: int, n: int, a: str, b: str) -> Edge:
    try:
        u, v = int(a), int(b)
    except ValueError:
        raise ParseError(number, f"bad vertex pair {a!r} {b!r}") from None
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParseError(number, f"vertex out of range 1..{n}")
    if u == v:
        raise ParseError(number, f"loop at vertex {u}")
    return edge(u, v)


def parse_sg(text: str) -> SignedGraph:
    n = None
    edges: set[Edge] = set()
    odd: set[Edge] = set()
    for number, tokens in _meaningful_lines(text):
        if n is None:
            n = _parse_header(number, tokens)
            continue
        if tokens[0] != "e" or len(tokens) != 4:
            raise ParseError(number, "expected edge line 'e <u> <v> <+|->'")
        e = _parse_pair(number, n, tokens[1], tokens[2])
        if e in edges:
            raise ParseError(number, f"duplicate edge ({e[0]},{e[1]})")
        if tokens[3] not in ("+", "-"):
            raise ParseError(number, f"bad parity {tokens[3]!r}, expected '+' or '-'")
        edges.add(e)
        if tokens[3] == "-":
            odd.add(e)
    if n is None:
        raise ParseError(1, "missing header 'n <count>'")
    return SignedGraph(n, frozenset(edges), frozenset(odd))


def parse_sk(text: str) -> SignedComplete:
    n = None
    odd: set[Edge] = set()
    for number, tokens in _meaningful_lines(text):
        if n is None:
            n = _parse_header(number, tokens)
            continue
        if tokens[0] != "odd" or len(tokens) != 3:
            raise ParseError(number, "expected odd-pair line 'odd <u> <v>'")
        e = _parse_pair(number, n, tokens[1], tokens[2])
        if e in odd:
            raise ParseError(number, f"duplicate odd pair ({e[0]},{e[1]})")
        odd.add(e)
    if n is None:
        raise ParseError(1, "missing header 'n <count>'")
    return SignedComplete(n, frozenset(odd))


def load_sg(path: str | os.PathLike) -> SignedGraph:
    with open(path, encoding="utf-8") as handle:
        return parse_sg(handle.read())


def load_sk(path: str | os.PathLike) -> SignedComplete:
    with open(path, encoding="utf-8") as handle:
        return parse_sk(handle.read())


def dumps_sg(g: SignedGraph) -> str:
    lines = [f"n {g.n}"]
    for u, v in sorted(g.edges):
        sign = "-" if (u, v) in g.odd else "+"
        lines.append(f"e {u} {v} {sign}")
    return "\n".join(lines) + "\n"


def dumps_sk(t: SignedComplete) -> str:
    lines = [f"n {t.n}"]
    for u, v in sorted(t.odd):
        lines.append(f"odd {u} {v}")
    return "\n".join(lines) + "\n"
