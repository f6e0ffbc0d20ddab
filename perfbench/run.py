"""Benchmark for the `sivkit` command, measured from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Each workload calls ``sivkit.cli.main(argv)`` in this process on inputs
generated from the seed, one call after another (a closed loop with one
client), for ``--seconds`` seconds, then checks every output.  A fixed
reference task runs before each call, and the latency metrics are costs in
units of its time (see ``end_to_end``).  With
``--trace 1`` it instead runs a fixed, seeded set of queries: a warm-up
pass, then each query untraced and again with spans and counts recorded at
each layer boundary (see tracing.py), and checks that the trace covered
every call.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

SCRIPT_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 12
TAIL_BEYOND = 10
SAMPLED_N, SAMPLED_GRAPHS = 8, 8
# Distinct inputs per query workload, cycled through in a fixed order, so
# each one runs many times in a run.  Every call builds its own polynomial
# cache, so a repeated input repeats the same work.  Each case runs more
# than TAIL_BEYOND times in a run, so the tail stays within the costliest
# case instead of jumping between cases as the number of passes varies.
SAMPLED_CASES, PLAN_CASES, SPECTRUM_CASES = 4, 5, 12


@dataclass(frozen=True)
class Query:
    argv: list[str]
    check: Callable[[object, str], list[str]]


# Input files to write before the first timed call: path -> text.
Files = dict[Path, str]


@dataclass(frozen=True)
class Workload:
    make: Callable[[int, Path], tuple[list[Query], Files]]
    trace_queries: int
    # Counts the traced run must reproduce exactly, from the checked outputs.
    expected: Callable[[list[str]], dict[str, int]]


def make_exhaustive(seed: int, directory: Path) -> tuple[list[Query], Files]:
    # The exhaustive sweep has no random input: every seed runs the same call.
    argv = ["enumerate", "--n-limit", "4", "--workers", "1", "--json"]
    return [Query(argv, partial(checks.check_exhaustive, 4))], {}


def make_sampled(seed: int, directory: Path) -> tuple[list[Query], Files]:
    out = []
    for i in range(SAMPLED_CASES):
        cli_seed = seed * 1_000_003 + i
        argv = ["enumerate", "--n-limit", str(SAMPLED_N), "--samples", str(SAMPLED_GRAPHS),
                "--seed", str(cli_seed), "--workers", "1", "--json"]
        out.append(Query(argv, partial(checks.check_sampled, SAMPLED_N, SAMPLED_GRAPHS, cli_seed)))
    return out, {}


def expected_sweep(outs: list[str]) -> dict[str, int]:
    payloads = [json.loads(out) for out in outs]
    instances = sum(p["instances"] for p in payloads)
    return {
        "cli.main.calls": len(outs),
        "sivcheck.classify.calls": instances,
        "spectra.siv_oracle.calls": instances,
        "enumeration.graphs": sum(p["graphs"] for p in payloads),
    }


def make_plan(seed: int, directory: Path) -> tuple[list[Query], Files]:
    out, files = [], {}
    for i, (start, target) in enumerate(inputs.plan_cases(seed, PLAN_CASES)):
        g_path, t_path = directory / f"{i:04d}.sg", directory / f"{i:04d}.sk"
        files[g_path], files[t_path] = inputs.sg_text(start), inputs.sk_text(target)
        out.append(Query(["plan", str(g_path), str(t_path)], partial(checks.check_plan, start, target)))
    return out, files


def expected_plan(outs: list[str]) -> dict[str, int]:
    return {
        "cli.main.calls": len(outs),
        "fileio.load.calls": 2 * len(outs),
        "completion.plan_completion.calls": len(outs),
        "completion.plan_steps": sum(len(out.splitlines()) for out in outs),
    }


def make_spectrum(seed: int, directory: Path) -> tuple[list[Query], Files]:
    out, files = [], {}
    for i, g in enumerate(inputs.spectrum_graphs(seed, SPECTRUM_CASES)):
        path = directory / f"{i:04d}.sg"
        files[path] = inputs.sg_text(g)
        out.append(Query(["spectrum", str(path), "--json"], partial(checks.check_spectrum, g)))
    return out, files


def expected_spectrum(outs: list[str]) -> dict[str, int]:
    return {
        "cli.main.calls": len(outs),
        "fileio.load.calls": len(outs),
        "spectra.laplacian_char_poly.calls": len(outs),
        "spectra.integer_spectrum.calls": len(outs),
    }


WORKLOADS = {
    "sweep-exhaustive": Workload(make_exhaustive, 2, expected_sweep),
    "sweep-sampled": Workload(make_sampled, SAMPLED_CASES, expected_sweep),
    "plan-complete": Workload(make_plan, PLAN_CASES, expected_plan),
    "spectrum-dense": Workload(make_spectrum, SPECTRUM_CASES, expected_spectrum),
}


def fresh_import():
    """Import sivkit.cli from the checkout's source tree, discarding any
    earlier import so module-level set-up is paid again."""
    for key in [k for k in sys.modules if k == "sivkit" or k.startswith("sivkit.")]:
        del sys.modules[key]
    cli = importlib.import_module("sivkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sivkit was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: Workload, seed: int, directory: Path):
    """A fresh import plus input generation, down to the text of every input
    file; returns (cli, queries, files, seconds).  Writing the files is left
    to the caller and out of the time: its cost varied up to fourfold between
    identical set-ups in one process, and it is no work of the program's."""
    t0 = time.perf_counter()
    cli = fresh_import()
    queries, files = workload.make(seed, directory)
    return cli, queries, files, time.perf_counter() - t0


_REFERENCE_RNG = random.Random("reference")
REFERENCE_MATRIX = [[_REFERENCE_RNG.randrange(-3, 4) for _ in range(14)] for _ in range(14)]


def reference_task() -> None:
    """A fixed piece of the benchmark's own pure-Python work, about 3 ms on a
    2-vCPU Xeon: exact integer determinants and hashing of small tuples and
    sets, the kinds of work the program does.  It runs before every call, so
    each call's latency can be read against the machine's speed at the time."""
    for shift in range(4):
        checks.bareiss_det([[x + shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(REFERENCE_MATRIX)])
    cells = {}
    for u, v in combinations(range(60), 2):
        cells[(u, v)] = frozenset((u, v, u * v % 60))


@dataclass
class Result:
    case: int
    query: Query
    seconds: float
    rc: object
    out: str
    # Time of the reference task run just before the call.
    reference_seconds: float

    @property
    def cost(self) -> float:
        return self.seconds / self.reference_seconds


def closed_loop(
    cli, queries: list[Query], *, seconds: float | None = None, count: int | None = None, start: int = 0
) -> list[Result]:
    """Call the CLI on the queries in order from ``start``, cycling, one at a
    time, until ``count`` calls are done or ``seconds`` have passed."""
    results = []
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        case = (start + len(results)) % len(queries)
        query = queries[case]
        out, err = io.StringIO(), io.StringIO()
        r0 = time.perf_counter()
        reference_task()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(query.argv)
            except (Exception, SystemExit):
                rc = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        results.append(Result(case, query, t1 - t0, rc, out.getvalue(), t0 - r0))
        if count is not None:
            if len(results) == count:
                return results
        elif t1 >= deadline:
            return results


def check_all(results: list[Result]) -> list[str]:
    """One line per failed call.  A case's repeated calls mostly print the
    same output, and the same output gets the same verdict, so each distinct
    (case, exit code, output) is checked once."""
    failures, verdicts = [], {}
    for number, r in enumerate(results):
        key = (r.case, repr(r.rc), r.out)
        if key not in verdicts:
            try:
                verdicts[key] = r.query.check(r.rc, r.out)
            except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                verdicts[key] = [f"output could not be checked: {exc!r}"]
        if verdicts[key]:
            failures.append(f"call {number} {' '.join(r.query.argv)}: {'; '.join(verdicts[key])}")
    return failures


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile that
    leaves at least ten samples above it; the median when there are fewer
    than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered), n // 2
    return 100 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1], TAIL_BEYOND


def end_to_end(results: list[Result], setup_times: list[float]) -> tuple[dict, dict]:
    """The latency metrics are costs: each call's latency divided by the time
    of the reference task run just before it.  The shared host's speed swings
    by a quarter over minutes, and the reference slows with it, so a cost
    moves with the program's work and not with the host's load.  The
    milliseconds themselves are in the info line."""
    costs = [r.cost for r in results]
    latencies = [r.seconds for r in results]
    p, cost_tail, beyond = tail(costs)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "query_cost_mean": (sum(latencies) / sum(r.reference_seconds for r in results), "ref"),
        "query_cost_p50": (statistics.median(costs), "ref"),
        "query_cost_tail": (cost_tail, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "queries": len(latencies),
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "reference_ms_p50": 1000 * statistics.median(r.reference_seconds for r in results),
        "queries_per_s": len(latencies) / sum(latencies),
        "query_ms_p50": 1000 * statistics.median(latencies),
        "query_ms_tail": 1000 * tail(latencies)[1],
    }
    return metrics, info


def layer_metrics(tracer: tracing.Tracer, overhead_ms: float) -> dict:
    calls, counts = tracer.calls, tracer.counts

    def self_ms(*names: str) -> float:
        return 1000 * sum(tracer.self_time[n] for n in names)

    def per_call_us(seconds: float, name: str) -> float:
        return 1e6 * seconds / calls[name] if calls[name] else 0.0

    lcp = calls["spectra.laplacian_char_poly"]
    misses = tracer.child_calls[("spectra.laplacian_char_poly", "spectra.char_poly")]
    oracle = calls["spectra.siv_oracle"]
    enum_names = [n for n in calls if n.startswith("enumeration.")]
    return {
        "spectra.char_poly.calls": (calls["spectra.char_poly"], "count"),
        "spectra.char_poly.self_ms": (self_ms("spectra.char_poly"), "ms"),
        "spectra.char_poly.us_per_call": (per_call_us(tracer.total["spectra.char_poly"], "spectra.char_poly"), "us"),
        "spectra.poly_cache_hit_ratio": (1 - misses / lcp if lcp else 0.0, "ratio"),
        "spectra.siv_oracle.calls": (oracle, "count"),
        "spectra.siv_oracle.self_ms": (self_ms("spectra.siv_oracle"), "ms"),
        "spectra.siv_oracle.self_us_per_call": (per_call_us(tracer.self_time["spectra.siv_oracle"], "spectra.siv_oracle"), "us"),
        "spectra.verify_shift_identity.calls": (calls["spectra.verify_shift_identity"], "count"),
        "spectra.verify_shift_identity.self_ms": (self_ms("spectra.verify_shift_identity"), "ms"),
        "polynomials.intpoly_allocs": (counts["polynomials.IntPoly.__post_init__"], "count"),
        "spectra.signed_laplacian.calls": (calls["spectra.signed_laplacian"], "count"),
        "spectra.signed_laplacian.self_ms": (self_ms("spectra.signed_laplacian"), "ms"),
        "spectra.laplacian_char_poly.calls": (lcp, "count"),
        "spectra.integer_spectrum.calls": (calls["spectra.integer_spectrum"], "count"),
        "spectra.integer_spectrum.self_ms": (self_ms("spectra.integer_spectrum"), "ms"),
        "sivcheck.classify.calls": (calls["sivcheck.classify"], "count"),
        "sivcheck.classify.self_ms": (self_ms("sivcheck.classify"), "ms"),
        "sivcheck.classify.us_per_call": (per_call_us(tracer.total["sivcheck.classify"], "sivcheck.classify"), "us"),
        "sivcheck.check_type2.calls": (calls["sivcheck.check_type2"], "count"),
        "graphs.add_edge.calls": (calls["graphs.SignedGraph.add_edge"], "count"),
        "graphs.switch_at.calls": (calls["graphs.switch_at"], "count"),
        "graphs.make_centered.calls": (calls["graphs.make_centered"], "count"),
        "graphs.copies_per_instance": (counts["graphs.instance_copies"] / oracle if oracle else 0.0, "copies/instance"),
        "completion.plan_completion.calls": (calls["completion.plan_completion"], "count"),
        "completion.plan_completion.self_ms": (self_ms("completion.plan_completion"), "ms"),
        "completion.is_sigma_completable.calls": (calls["completion.is_sigma_completable"], "count"),
        "completion.is_sigma_completable.self_ms": (self_ms("completion.is_sigma_completable"), "ms"),
        "completion.x_set.calls": (calls["completion.x_set"], "count"),
        "completion.y_set.calls": (calls["completion.y_set"], "count"),
        "completion.plan_steps": (tracer.child_calls[("completion.plan_completion", "spectra.siv_oracle")], "count"),
        "enumeration.graphs": (counts["enumeration.iter_signed_graphs.items"] + calls["enumeration.random_signed_graph"], "count"),
        "enumeration.self_ms": (self_ms(*enum_names), "ms"),
        "fileio.load.calls": (calls["fileio.load_sg"] + calls["fileio.load_sk"], "count"),
        "fileio.load.self_ms": (self_ms("fileio.load_sg", "fileio.load_sk"), "ms"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }


def coverage_problems(expected: dict[str, int], layers: dict) -> list[str]:
    return [
        f"traced {key} = {layers[key][0]}, expected {want}"
        for key, want in expected.items()
        if layers[key][0] != want
    ]


def run_traced(cli, workload: Workload, queries: list[Query], spans_path: Path):
    subset = [queries[i % len(queries)] for i in range(workload.trace_queries)]
    # A warm-up pass, then each query untraced and traced back to back, so
    # the overhead compares warm calls made close together in time.
    warmup = closed_loop(cli, subset, count=len(subset))
    tracer = tracing.Tracer()
    plain, traced = [], []
    for query in subset:
        plain += closed_loop(cli, [query], count=1)
        undo = tracing.install(tracer)
        try:
            traced += closed_loop(cli, [query], count=1)
        finally:
            tracing.restore(undo)
    overhead_ms = 1000 * (sum(r.seconds for r in traced) - sum(r.seconds for r in plain))
    failures = check_all(warmup) + check_all(plain) + check_all(traced)
    layers = layer_metrics(tracer, overhead_ms)
    coverage = []
    if not failures:
        coverage = coverage_problems(workload.expected([r.out for r in traced]), layers)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps({"fields": ["id", "parent", "root", "name", "start", "end"], "spans": tracer.kept}),
        encoding="utf-8",
    )
    return warmup + plain + traced, failures, coverage, layers


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "sivkit" / "__init__.py").is_file():
        print(f"error: no sivkit source under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[name]
    directory = WORK / f"{name}-{seed}-inputs"
    try:
        cli, queries, files, setup_time = setup(workload, seed, directory)
        inputs.write_files(files)
        first_call_s = time.perf_counter() - SCRIPT_START
        coverage: list[str] = []
        if trace:
            spans_path = WORK / f"spans-{name}-{seed}.json"
            results, failures, coverage, metrics = run_traced(cli, workload, queries, spans_path)
            info = {"spans_file": str(spans_path.relative_to(ROOT))}
        else:
            # The set-up is repeated between equal slices of the timed loop,
            # so its median does not hang on one moment's machine speed, and
            # each repeat starts from a collected heap, so it does not pay
            # for the garbage of the calls before it.
            setup_times = [setup_time]
            results = []
            for _ in range(SETUP_REPEATS - 1):
                results += closed_loop(cli, queries, seconds=seconds / (SETUP_REPEATS - 1), start=len(results))
                gc.collect()
                setup_times.append(setup(workload, seed, directory)[3])
            # Finish the last pass over the cases, so each case weighs the same.
            if short := -len(results) % len(queries):
                results += closed_loop(cli, queries, count=short, start=len(results))
            failures = check_all(results)
            metrics, info = end_to_end(results, setup_times)
            if not failures and name.startswith("sweep-"):
                instances = sum(json.loads(r.out)["instances"] for r in results)
                info["instances_per_s"] = instances / sum(r.seconds for r in results)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    info.update(
        workload=name,
        seed=seed,
        first_call_s=first_call_s,
        failed_ratio=len(failures) / len(results),
        coverage_problems=coverage,
    )
    for line in failures[:20] + coverage:
        print(f"FAIL {line}", file=sys.stderr)
    print("info " + json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not failures and not coverage,
                "attempted": len(results),
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            if proc.returncode or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            info, result = json.loads(lines[-2][len("info "):]), json.loads(lines[-1])
            status |= not result["correct"]
            print(f"== {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_ratio={info['failed_ratio']}")
            for key, metric in result["metrics"].items():
                print(f"  {key:45s} {metric['value']:14.4f} {metric['unit']}")
            if not trace:
                print(f"  query_cost_tail is p{info['tail_percentile']:.1f} of {info['queries']} queries "
                      f"({info['tail_samples_beyond']} beyond); reference task p50 {info['reference_ms_p50']:.3f} ms")
                for key, unit in (("queries_per_s", "1/s"), ("query_ms_p50", "ms"), ("query_ms_tail", "ms"),
                                  ("instances_per_s", "1/s")):
                    if key in info:
                        print(f"  {key:45s} {info[key]:14.4f} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
