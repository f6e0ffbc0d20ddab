"""Self-tests for the benchmark: run with `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import json
import sys

import pytest

import checks
import inputs
import run
import tracing

sys.path.insert(0, str(run.SRC))

from sivkit import cli  # noqa: E402
from sivkit.completion import SignedComplete, is_sigma_completable, y_set  # noqa: E402
from sivkit.graphs import EVEN, SignedGraph  # noqa: E402
from sivkit.sivcheck import classify  # noqa: E402


def made(make, seed: int, directory) -> list[run.Query]:
    """The queries of one set-up, with their input files written."""
    queries, files = make(seed, directory)
    inputs.write_files(files)
    return queries


def snapshot(queries: list[run.Query], directory) -> tuple:
    """Argument lists (paths made relative) and the bytes of every input file."""
    files = {p.name: p.read_bytes() for p in sorted(directory.glob("*"))}
    argv = [[a.replace(str(directory), "") for a in q.argv] for q in queries]
    return argv, files


@pytest.mark.parametrize("make", [run.make_plan, run.make_spectrum, run.make_sampled])
def test_same_seed_gives_byte_identical_inputs(make, tmp_path):
    first = snapshot(made(make, 7, tmp_path / "a"), tmp_path / "a")
    assert snapshot(made(make, 7, tmp_path / "b"), tmp_path / "b") == first
    assert snapshot(made(make, 8, tmp_path / "c"), tmp_path / "c") != first


def test_plan_cases_are_completable_and_cover_the_balanced_edge():
    cases = inputs.plan_cases(3, len(inputs.PLAN_ORDERS))
    for start, target in cases:
        g = SignedGraph(start.n, start.edges, start.odd)
        t = SignedComplete(target.n, target.odd)
        assert target.edges == frozenset(inputs.pairs(target.n))
        assert 16 <= len(target.edges - start.edges) or start.n == 15
        assert is_sigma_completable(g, t)
        assert bool(y_set(t)) == (start.n == 15)


def test_corrupted_outputs_count_as_failed(tmp_path):
    queries = made(run.make_plan, 2, tmp_path / "plan")[:1] + made(run.make_spectrum, 2, tmp_path / "spec")[:1]
    queries += made(run.make_sampled, 2, tmp_path)[:1] + made(run.make_exhaustive, 2, tmp_path)
    good = run.closed_loop(cli, queries, count=len(queries))
    assert run.check_all(good) == []

    plan, spectrum, sampled, exhaustive = (r.out for r in good)
    steps = plan.splitlines()
    first = json.loads(steps[0])
    wrong_kind = dict(first, kind="type2", s=1, p=0) if first["kind"] == "type1" else dict(first, kind="type1", **{"lambda": 0})
    spec = json.loads(spectrum)
    spec["char_poly"][0] += 1
    tally = json.loads(sampled)
    tally["instances"] += 2
    tally["none"] += 2
    pinned = json.loads(exhaustive)
    pinned["type1"], pinned["type2"] = pinned["type2"], pinned["type1"]
    corrupted = [
        "\n".join(steps[1:]) + "\n",                      # a step dropped
        "\n".join(steps[:-1] + steps[-1:] * 2) + "\n",    # a step repeated
        "\n".join([json.dumps(wrong_kind)] + steps[1:]) + "\n",
        json.dumps(spec) + "\n",
        json.dumps(tally) + "\n",
        json.dumps(pinned) + "\n",
    ]
    owners = [0, 0, 0, 1, 2, 3]
    bad = [run.Result(i, queries[i], 0.1, 0, out, 0.01) for i, out in zip(owners, corrupted)]
    bad.append(run.Result(1, queries[1], 0.1, 1, spectrum, 0.01))  # non-zero exit code
    bad.append(run.Result(1, queries[1], 0.1, "Traceback ...", "", 0.01))  # raised
    garbled = json.loads(spectrum)
    garbled["char_poly"][0] = "x"  # makes the check itself raise
    bad.append(run.Result(1, queries[1], 0.1, 0, json.dumps(garbled), 0.01))
    bad.append(bad[3])  # a repeated wrong output fails every time
    assert len(run.check_all(bad)) == len(bad)
    assert run.check_all(good + good) == []


def test_spectrum_check_rejects_a_missed_integer_root():
    g = inputs.Graph(3, frozenset({(1, 2), (2, 3)}), frozenset())
    # Path P3: spectrum {0, 1, 3}; claim "non-integral" with residual x - 1.
    poly = [0, 3, -4, 1]
    out = json.dumps({"char_poly": poly, "spectrum": "non-integral", "residual": [-1, 1]})
    assert checks.check_spectrum(g, 0, out)
    ok = json.dumps({"char_poly": poly, "spectrum": [0, 1, 3]})
    assert checks.check_spectrum(g, 0, ok) == []


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_synthetic_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds a recursive a [2, 3]) and c [5, 6].
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("a")
    tracer.exit()
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    assert tracer.calls == {"a": 2, "b": 1, "c": 1}
    assert tracer.self_time["b"] == 2
    assert tracer.self_time["c"] == 1
    assert tracer.self_time["a"] == (10 - 3 - 1) + 1
    assert tracer.total["a"] == 11
    assert tracer.child_calls == {("a", "b"): 1, ("b", "a"): 1, ("a", "c"): 1}
    by_id = {span[0]: span for span in tracer.kept}
    inner_a = next(s for s in tracer.kept if s[3] == "a" and s[4] == 2)
    assert by_id[inner_a[1]][3] == "b"
    assert {span[2] for span in tracer.kept} == {1}  # one root for the request


def test_install_covers_every_binding_and_restore_undoes_it():
    g = SignedGraph.of(4, [(1, 2, EVEN), (2, 3, EVEN), (3, 4, "odd")])
    originals = (cli.classify, classify, SignedGraph.add_edge)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        cli.classify(g, 1, 3, EVEN)
        sys.modules["sivkit.sivcheck"].classify(g, 1, 4, EVEN)
        g.add_edge(1, 3, EVEN)
    finally:
        tracing.restore(undo)
    assert tracer.calls["sivcheck.classify"] == 2
    assert tracer.calls["graphs.SignedGraph.add_edge"] == 1
    assert tracer.counts["graphs.SignedGraph.__post_init__"] >= 1
    assert (cli.classify, sys.modules["sivkit.sivcheck"].classify, SignedGraph.add_edge) == originals


def test_tail_leaves_ten_samples_beyond():
    p, value, beyond = run.tail([float(i) for i in range(100)])
    assert (p, value, beyond) == (90.0, 89.0, 10)
    assert run.tail([1.0, 2.0, 3.0])[0] == 50.0


def test_costs_are_latencies_over_the_reference_time():
    q = run.Query([], lambda rc, out: [])
    # (latency, reference): the host is twice as slow for the last two calls.
    pairs = [(0.2, 0.01), (0.3, 0.01), (0.4, 0.02), (0.6, 0.02)]
    results = [run.Result(i % 2, q, t, 0, "", ref) for i, (t, ref) in enumerate(pairs)]
    metrics, info = run.end_to_end(results, [1.0, 3.0, 2.0])
    assert metrics["query_cost_p50"][0] == pytest.approx(25.0)
    assert metrics["query_cost_mean"][0] == pytest.approx(1.5 / 0.06)
    assert metrics["setup_s"][0] == 2.0
    assert info["query_ms_p50"] == pytest.approx(350.0)
