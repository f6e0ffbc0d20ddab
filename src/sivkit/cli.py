"""Command-line front end: spectra, variation checks, triangle-set analysis,
completion planning, and the exhaustive/randomized enumeration harness.

Exit codes: 0 success, 1 usage or parse error, 2 property violated (the
combinatorial characterization and the polynomial oracle disagreed, which
would falsify the library's central claims, or an internal invariant such as
the re-check of a positive verdict or a planned step failed).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter
from functools import cache
from itertools import islice
from typing import Iterable, Iterator

from .completion import (
    is_sigma_completable,
    plan_completion,
    quotient_decomposition,
    x_set,
    y_set,
)
from .enumeration import cross_check, iter_signed_graphs, random_signed_graph
from .fileio import MAX_VERTICES, load_sg, load_sk
from .graphs import EVEN, ODD, SignedGraph, switching_normal_form
from .sivcheck import classify
from .spectra import NONE, integer_spectrum, laplacian_char_poly, siv_oracle, verify_shift_identity

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

# 3^C(n,2) labelled graphs: n = 5 is 59,049 and takes 6.1-6.2 s (three
# in-process calls of main(["enumerate", "--n-limit", "5", "--json"]), one
# worker, 2-vCPU Xeon, Python 3.11); n = 6 is bounded by time, not memory:
# 143.5M instances, about 40 minutes at the n = 5 rate
EXHAUSTIVE_N_LIMIT = 5


def _emit(payload: dict, human: str, args: argparse.Namespace) -> None:
    print(json.dumps(payload) if args.json else human)


def run_spectrum(args: argparse.Namespace) -> int:
    g = load_sg(args.graph)
    poly = laplacian_char_poly(g)
    spectrum = integer_spectrum(poly)
    payload: dict = {"char_poly": poly.to_json(), "spectrum": spectrum.to_json()}
    if spectrum.is_integral:
        human = f"{poly}; spectrum {','.join(map(str, spectrum.roots))}"
    else:
        payload["residual"] = spectrum.residual.to_json()
        human = f"{poly}; non-integral"
    _emit(payload, human, args)
    return EXIT_OK


def run_check_siv(args: argparse.Namespace) -> int:
    g = load_sg(args.graph)
    verdict = classify(g, args.v, args.w, args.parity)
    oracle = siv_oracle(g, args.v, args.w, args.parity)
    if oracle.kind != NONE:
        before = laplacian_char_poly(g)
        after = laplacian_char_poly(g.add_edge(args.v, args.w, args.parity))
        if not verify_shift_identity(before, after, oracle):
            raise ArithmeticError(f"{oracle.kind} certificate failed to verify")
    agree = verdict.params == oracle.params
    payload = verdict.to_json_dict()
    payload["oracle"] = "agree" if agree else "disagree"
    print(json.dumps(payload))
    return EXIT_OK if agree else EXIT_VIOLATION


def _edge_list(edges) -> str:
    return " ".join(f"{u}-{v}" for u, v in sorted(edges)) or "(none)"


def run_xy(args: argparse.Namespace) -> int:
    t = load_sk(args.target)
    x, y = x_set(t), y_set(t)
    payload = {"X": sorted(map(list, x)), "Y": sorted(map(list, y))}
    _emit(payload, f"X: {_edge_list(x)}\nY: {_edge_list(y)}", args)
    return EXIT_OK


def run_decompose(args: argparse.Namespace) -> int:
    t = load_sk(args.target)
    deco = quotient_decomposition(t)
    payload = {
        "k": deco.k,
        "parts": [list(part) for part in deco.parts],
        "quotient_odd": sorted(map(list, deco.quotient.odd)),
        "switching_set": sorted(deco.switching_set),
    }
    human = "\n".join(
        [
            f"k: {deco.k}",
            "parts: " + " ".join("{" + ",".join(map(str, p)) + "}" for p in deco.parts),
            f"quotient odd: {_edge_list(deco.quotient.odd)}",
            "switching set: "
            + (",".join(map(str, sorted(deco.switching_set))) or "(empty)"),
        ]
    )
    _emit(payload, human, args)
    return EXIT_OK


def run_completable(args: argparse.Namespace) -> int:
    g = load_sg(args.graph)
    t = load_sk(args.target)
    answer = is_sigma_completable(g, t)
    _emit({"completable": answer}, "true" if answer else "false", args)
    return EXIT_OK


def run_plan(args: argparse.Namespace) -> int:
    g = load_sg(args.graph)
    t = load_sk(args.target)
    plan = plan_completion(g, t)
    if plan is None:
        print("not completable")
        return EXIT_OK
    for step in plan.steps:
        print(json.dumps(step.to_json_dict()))
    return EXIT_OK


def _tally_graphs(graphs) -> Counter:
    """Graphs, verdict kinds, instances and mismatches of cross_check, one graph at a time."""
    tally: Counter = Counter()
    for g in graphs:
        tally["graphs"] += 1
        for *_, verdict, oracle in cross_check(g):
            tally["instances"] += 1
            tally[verdict.kind] += 1
            if verdict.params != oracle.params:
                tally["mismatches"] += 1
    return tally


def _check_enumerate_args(args: argparse.Namespace) -> None:
    """The sweep bounds argparse does not check; a ValueError exits 1."""
    if args.samples == 0:
        if not 1 <= args.n_limit <= EXHAUSTIVE_N_LIMIT:
            raise ValueError(
                f"exhaustive enumeration needs 1 <= n-limit <= {EXHAUSTIVE_N_LIMIT}"
            )
    elif args.n_limit < 1:
        raise ValueError("n-limit must be at least 1")
    elif args.n_limit > MAX_VERTICES:
        raise ValueError(f"n-limit must be at most {MAX_VERTICES}")
    if args.samples < 0:
        raise ValueError("samples must be at least 0")
    if args.workers < 1:
        raise ValueError("workers must be at least 1")


def _distinct_classes(graphs: Iterable[SignedGraph]) -> Iterator[SignedGraph]:
    """The graphs that are the first of their switching class, in order."""
    seen: set = set()
    for g in graphs:
        canon = switching_normal_form(g)
        if canon not in seen:
            seen.add(canon)
            yield g


def _sweep_graphs(n_limit: int, samples: int, seed: int, canonical: bool) -> Iterator[SignedGraph]:
    """The graphs enumerate sweeps, made one at a time: seeded samples, or
    every labelled graph, and with canonical the first of each switching
    class.  The same arguments give the same graphs in the same order."""
    if samples:
        rng = random.Random(seed)
        graphs = (random_signed_graph(rng, n_limit) for _ in range(samples))
    else:
        graphs = iter_signed_graphs(n_limit)
    return _distinct_classes(graphs) if canonical else graphs


def _tally_share(task: tuple) -> Counter:
    """One worker's tally: it makes the whole sweep and tallies every
    step-th graph from the start-th, so no graph is pickled."""
    *sweep, start, step = task
    return _tally_graphs(islice(_sweep_graphs(*sweep), start, None, step))


def run_enumerate(args: argparse.Namespace) -> int:
    _check_enumerate_args(args)
    sweep = (args.n_limit, args.samples, args.seed, args.canonical)
    # more processes than graphs or cores would only idle, so at most that
    # many graphs are counted; the tally does not depend on how the sweep is
    # shared out
    workers = min(args.workers, os.cpu_count() or 1)
    if workers > 1:
        workers = sum(1 for _ in islice(_sweep_graphs(*sweep), workers))
    if workers > 1:
        import multiprocessing  # on demand: about 1 MB that runs without a pool never use

        tasks = [(*sweep, start, workers) for start in range(workers)]
        with multiprocessing.Pool(workers) as pool:
            tally = sum(pool.map(_tally_share, tasks), Counter())
    else:
        tally = _tally_graphs(_sweep_graphs(*sweep))
    graph_count = tally["graphs"]
    counts = {k: tally[k] for k in ("type1", "type2", "none")}
    instance_count = tally["instances"]
    mismatches = tally["mismatches"]
    payload = {
        "n": args.n_limit,
        "mode": "samples" if args.samples else "exhaustive",
        "samples": args.samples,
        "seed": args.seed if args.samples else None,
        "canonical": args.canonical,
        "graphs": graph_count,
        "instances": instance_count,
        **counts,
        "mismatches": mismatches,
    }
    agree = instance_count - mismatches
    human = "\n".join(
        [
            f"n={args.n_limit} graphs={graph_count} instances={instance_count}",
            f"type1={counts['type1']} type2={counts['type2']} none={counts['none']}",
            f"agreement {agree}/{instance_count} mismatches={mismatches}",
        ]
    )
    _emit(payload, human, args)
    return EXIT_VIOLATION if mismatches else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits 1, the code for usage errors, on a bad command line; argparse
    itself would exit 2, the code for a violated property.  Subparsers are
    built from the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `sivkit` parser, built on first use and shared by later `main` calls."""
    parser = _Parser(
        prog="sivkit",
        description="Exact spectral toolkit for signed graphs: integral "
        "variation checks and completion planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="characteristic polynomial and integer spectrum")
    p.set_defaults(run=run_spectrum)
    p.add_argument("graph", help="path to a .sg file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-siv", help="classify an edge addition and cross-check")
    p.set_defaults(run=run_check_siv)
    p.add_argument("graph", help="path to a .sg file")
    p.add_argument("v", type=int)
    p.add_argument("w", type=int)
    p.add_argument("--parity", choices=(EVEN, ODD), default=EVEN)

    p = sub.add_parser("xy", help="all-even and balanced all-odd edge sets")
    p.set_defaults(run=run_xy)
    p.add_argument("target", help="path to a .sk file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("decompose", help="complete-component quotient decomposition")
    p.set_defaults(run=run_decompose)
    p.add_argument("target", help="path to a .sk file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("completable", help="decide completability toward a target")
    p.set_defaults(run=run_completable)
    p.add_argument("graph", help="path to a .sg file")
    p.add_argument("target", help="path to a .sk file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("plan", help="certified completion plan as JSON lines")
    p.set_defaults(run=run_plan)
    p.add_argument("graph", help="path to a .sg file")
    p.add_argument("target", help="path to a .sk file")

    p = sub.add_parser("enumerate", help="sweep signed graphs, tally verdicts, "
                       "and cross-check the characterization against the oracle")
    p.set_defaults(run=run_enumerate)
    p.add_argument("--n-limit", type=int, default=4)
    p.add_argument("--samples", type=int, default=0,
                   help="randomized instance count (0 = exhaustive)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--canonical", action="store_true",
                   help="deduplicate by switching equivalence")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes for the sweep")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
