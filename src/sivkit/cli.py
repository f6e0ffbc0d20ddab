"""Command-line front end: spectra, variation checks, triangle-set analysis,
completion planning, and the exhaustive/randomized enumeration harness.

Exit codes: 0 success, 1 usage or parse error, 2 property violated (the
combinatorial characterization and the polynomial oracle disagreed, which
would falsify the library's central claims, or an internal invariant such as
a certificate re-check or a planned step failed).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from functools import cache

from .completion import (
    is_sigma_completable,
    plan_completion,
    quotient_decomposition,
    x_set,
    y_set,
)
from .enumeration import iter_signed_graphs, random_signed_graph
from .fileio import MAX_VERTICES, ParseError, load_sg, load_sk
from .graphs import EVEN, ODD, switching_normal_form
from .sivcheck import classify
from .spectra import integer_spectrum, laplacian_char_poly, siv_oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

EXHAUSTIVE_N_LIMIT = 8


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, inputs, enumeration bounds, output mode."""

    command: str
    paths: tuple[str, ...] = ()
    pair: tuple[int, int] | None = None
    parity: str = EVEN
    n_limit: int = 4
    samples: int = 0
    seed: int = 0
    canonical: bool = False
    workers: int = 1
    json_output: bool = False

    def __post_init__(self) -> None:
        if self.command == "enumerate" and self.samples == 0:
            if not 1 <= self.n_limit <= EXHAUSTIVE_N_LIMIT:
                raise ValueError(
                    f"exhaustive enumeration needs 1 <= n-limit <= {EXHAUSTIVE_N_LIMIT}"
                )
        elif self.n_limit < 1:
            raise ValueError("n-limit must be at least 1")
        elif self.n_limit > MAX_VERTICES:
            raise ValueError(f"n-limit must be at most {MAX_VERTICES}")
        if self.samples < 0:
            raise ValueError("samples must be at least 0")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


def _emit(payload: dict, human: str, cfg: RunConfig) -> None:
    print(json.dumps(payload) if cfg.json_output else human)


def run_spectrum(cfg: RunConfig) -> int:
    g = load_sg(cfg.paths[0])
    poly = laplacian_char_poly(g)
    spectrum = integer_spectrum(poly)
    payload: dict = {"char_poly": poly.to_json(), "spectrum": spectrum.to_json()}
    if spectrum.is_integral:
        human = f"{poly}; spectrum {','.join(map(str, spectrum.roots))}"
    else:
        payload["residual"] = spectrum.residual.to_json()
        human = f"{poly}; non-integral"
    _emit(payload, human, cfg)
    return EXIT_OK


def run_check_siv(cfg: RunConfig) -> int:
    g = load_sg(cfg.paths[0])
    v, w = cfg.pair
    verdict = classify(g, v, w, cfg.parity)
    oracle = siv_oracle(g, v, w, cfg.parity)
    agree = verdict.params == oracle.params
    payload = verdict.to_json_dict()
    payload["oracle"] = "agree" if agree else "disagree"
    print(json.dumps(payload))
    return EXIT_OK if agree else EXIT_VIOLATION


def _edge_list(edges) -> str:
    return " ".join(f"{u}-{v}" for u, v in sorted(edges)) or "(none)"


def run_xy(cfg: RunConfig) -> int:
    t = load_sk(cfg.paths[0])
    x, y = x_set(t), y_set(t)
    payload = {"X": sorted(map(list, x)), "Y": sorted(map(list, y))}
    _emit(payload, f"X: {_edge_list(x)}\nY: {_edge_list(y)}", cfg)
    return EXIT_OK


def run_decompose(cfg: RunConfig) -> int:
    t = load_sk(cfg.paths[0])
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
    _emit(payload, human, cfg)
    return EXIT_OK


def run_completable(cfg: RunConfig) -> int:
    g = load_sg(cfg.paths[0])
    t = load_sk(cfg.paths[1])
    answer = is_sigma_completable(g, t)
    _emit({"completable": answer}, "true" if answer else "false", cfg)
    return EXIT_OK


def run_plan(cfg: RunConfig) -> int:
    g = load_sg(cfg.paths[0])
    t = load_sk(cfg.paths[1])
    if not is_sigma_completable(g, t):
        print("not completable")
        return EXIT_OK
    plan = plan_completion(g, t)
    for step in plan.steps:
        print(json.dumps(step.to_json_dict()))
    return EXIT_OK


def _tally_graphs(graphs) -> dict:
    """Classify every edge addition of every graph against the oracle."""
    tally = {"type1": 0, "type2": 0, "none": 0, "instances": 0, "mismatches": 0}
    for g in graphs:
        for v, w in g.non_adjacent_pairs():
            for parity in (EVEN, ODD):
                tally["instances"] += 1
                verdict = classify(g, v, w, parity)
                oracle = siv_oracle(g, v, w, parity)
                tally[verdict.kind] += 1
                if verdict.params != oracle.params:
                    tally["mismatches"] += 1
    return tally


def _merge_tallies(tallies) -> dict:
    merged = {"type1": 0, "type2": 0, "none": 0, "instances": 0, "mismatches": 0}
    for t in tallies:
        for key in merged:
            merged[key] += t[key]
    return merged


def run_enumerate(cfg: RunConfig) -> int:
    if cfg.samples:
        rng = random.Random(cfg.seed)
        graphs = (random_signed_graph(rng, cfg.n_limit) for _ in range(cfg.samples))
    else:
        graphs = iter_signed_graphs(cfg.n_limit)
    if cfg.canonical:
        seen: set = set()
        deduped = []
        for g in graphs:
            canon = switching_normal_form(g)
            if canon not in seen:
                seen.add(canon)
                deduped.append(g)
        graphs = deduped
    else:
        graphs = list(graphs)
    graph_count = len(graphs)
    # more processes than batches or cores would only idle; the tally does not
    # depend on how the graphs are batched
    workers = min(cfg.workers, graph_count, os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing  # on demand: about 1 MB that runs without a pool never use

        chunk = -(-graph_count // workers)
        batches = [graphs[i : i + chunk] for i in range(0, graph_count, chunk)]
        with multiprocessing.Pool(len(batches)) as pool:
            tally = _merge_tallies(pool.map(_tally_graphs, batches))
    else:
        tally = _tally_graphs(graphs)
    counts = {k: tally[k] for k in ("type1", "type2", "none")}
    instance_count = tally["instances"]
    mismatches = tally["mismatches"]
    payload = {
        "n": cfg.n_limit,
        "mode": "samples" if cfg.samples else "exhaustive",
        "samples": cfg.samples,
        "seed": cfg.seed if cfg.samples else None,
        "canonical": cfg.canonical,
        "graphs": graph_count,
        "instances": instance_count,
        **counts,
        "mismatches": mismatches,
    }
    agree = instance_count - mismatches
    human = "\n".join(
        [
            f"n={cfg.n_limit} graphs={graph_count} instances={instance_count}",
            f"type1={counts['type1']} type2={counts['type2']} none={counts['none']}",
            f"agreement {agree}/{instance_count} mismatches={mismatches}",
        ]
    )
    _emit(payload, human, cfg)
    return EXIT_VIOLATION if mismatches else EXIT_OK


_HANDLERS = {
    "spectrum": run_spectrum,
    "check-siv": run_check_siv,
    "xy": run_xy,
    "decompose": run_decompose,
    "completable": run_completable,
    "plan": run_plan,
    "enumerate": run_enumerate,
}


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
    p.add_argument("graph", help="path to a .sg file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-siv", help="classify an edge addition and cross-check")
    p.add_argument("graph", help="path to a .sg file")
    p.add_argument("v", type=int)
    p.add_argument("w", type=int)
    p.add_argument("--parity", choices=(EVEN, ODD), default=EVEN)

    p = sub.add_parser("xy", help="all-even and balanced all-odd edge sets")
    p.add_argument("target", help="path to a .sk file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("decompose", help="complete-component quotient decomposition")
    p.add_argument("target", help="path to a .sk file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("completable", help="decide completability toward a target")
    p.add_argument("graph", help="path to a .sg file")
    p.add_argument("target", help="path to a .sk file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("plan", help="certified completion plan as JSON lines")
    p.add_argument("graph", help="path to a .sg file")
    p.add_argument("target", help="path to a .sk file")

    p = sub.add_parser("enumerate", help="sweep signed graphs, tally verdicts, "
                       "and cross-check the characterization against the oracle")
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    paths = tuple(
        getattr(args, name) for name in ("graph", "target") if hasattr(args, name)
    )
    pair = (args.v, args.w) if hasattr(args, "v") else None
    return RunConfig(
        command=args.command,
        paths=paths,
        pair=pair,
        parity=getattr(args, "parity", EVEN),
        n_limit=getattr(args, "n_limit", 4),
        samples=getattr(args, "samples", 0),
        seed=getattr(args, "seed", 0),
        canonical=getattr(args, "canonical", False),
        workers=getattr(args, "workers", 1),
        json_output=getattr(args, "json", False),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[cfg.command](cfg)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
