"""Reproduce the ROADMAP "Recent" baselines in one traced process.

    python3 perfbench/baselines.py

Runs `enumerate --n-limit 5` (exhaustive), `spectrum` on a signed K14 and
`plan` toward a 14-vertex target, first untraced for their wall times and
then traced for the per-layer figures, and prints one JSON object.  The
exhaustive sweep takes a few minutes.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from functools import partial

import checks
import inputs
import run
import tracing


SEED = 1


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.fresh_import()
    rng = random.Random(f"baselines/{SEED}")
    k14 = inputs.dense_graph(rng, 14, 1.0)
    start, target = inputs.plan_case(rng, 14)
    directory = run.WORK / f"baselines-{SEED}"
    k14_path, g_path, t_path = directory / "k14.sg", directory / "g.sg", directory / "t.sk"
    inputs.write_files({k14_path: inputs.sg_text(k14), g_path: inputs.sg_text(start), t_path: inputs.sk_text(target)})
    queries = {
        "enumerate_n5": (run.Query(["enumerate", "--n-limit", "5", "--workers", "1", "--json"],
                                   partial(checks.check_exhaustive, 5)), 1),
        "spectrum_k14": (run.Query(["spectrum", str(k14_path), "--json"], partial(checks.check_spectrum, k14)), 1),
        "plan_n14": (run.Query(["plan", str(g_path), str(t_path)], partial(checks.check_plan, start, target)), 5),
    }
    report: dict = {"seed": SEED, "plan_n14_missing_edges": len(target.edges - start.edges)}
    failures: list[str] = []
    tracers: dict[str, tracing.Tracer] = {}
    for name, (query, repeats) in queries.items():
        plain = run.closed_loop(cli, [query], count=repeats)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced = run.closed_loop(cli, [query], count=1)
        finally:
            tracing.restore(undo)
        failures += run.check_all(plain + traced)
        tracers[name] = tracer
        layers = run.layer_metrics(tracer, 0.0)
        untraced_s = statistics.median(r.seconds for r in plain)
        report[name] = {
            "untraced_s": untraced_s,
            "traced_s": traced[0].seconds,
            "trace_overhead_s": traced[0].seconds - untraced_s,
            "layers": {k: v for k, (v, _) in layers.items() if v},
        }
    sweep = tracers["enumerate_n5"]

    def us(tracer: tracing.Tracer, name: str, times) -> float:
        return 1e6 * times[name] / tracer.calls[name]

    # ROADMAP value next to the value measured here, same units.
    report["roadmap"] = {
        "char_poly_us_per_graph_n5": (186, us(sweep, "spectra.char_poly", sweep.total)),
        "classify_us_per_instance_n5": (79, us(sweep, "sivcheck.classify", sweep.total)),
        "siv_oracle_us_per_instance_n5": (107, us(sweep, "spectra.siv_oracle", sweep.total)),
        "spectrum_k14_s": (9.1, report["spectrum_k14"]["untraced_s"]),
        "plan_n14_s": (0.26, report["plan_n14"]["untraced_s"]),
    }
    report["failures"] = failures
    print(json.dumps(report, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
