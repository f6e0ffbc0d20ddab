import io
import json
import os
import pickle
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sivkit
from sivkit import EVEN, ODD, SignedComplete, SignedGraph, SivVerdict, dumps_sg, dumps_sk, switch_at
from sivkit import cli, completion, spectra
from sivkit.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from sivkit.enumeration import cross_check, iter_signed_graphs
from sivkit.fileio import MAX_VERTICES


def write_sg(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(dumps_sg(g))
    return str(path)


def write_sk(tmp_path, name, t):
    path = tmp_path / name
    path.write_text(dumps_sk(t))
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    return write_sg(tmp_path, "k3.sg", SignedGraph.complete(3))


class TestSpectrum:
    def test_k3(self, k3_file, capsys):
        assert main(["spectrum", k3_file]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "x^3-6x^2+9x; spectrum 0,3,3"

    def test_k2_odd(self, tmp_path, capsys):
        path = write_sg(tmp_path, "k2.sg", SignedGraph.of(2, [(1, 2, "odd")]))
        assert main(["spectrum", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "x^2-2x; spectrum 0,2"

    def test_p4_non_integral(self, tmp_path, capsys):
        g = SignedGraph.all_even(4, [(1, 2), (2, 3), (3, 4)])
        path = write_sg(tmp_path, "p4.sg", g)
        assert main(["spectrum", path]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out.endswith("non-integral")

    def test_json_mode(self, k3_file, capsys):
        assert main(["spectrum", k3_file, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"char_poly": [0, 9, -6, 1], "spectrum": [0, 3, 3]}

    def test_json_non_integral(self, tmp_path, capsys):
        g = SignedGraph.all_even(4, [(1, 2), (2, 3), (3, 4)])
        path = write_sg(tmp_path, "p4.sg", g)
        main(["spectrum", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["spectrum"] == "non-integral"
        assert payload["residual"] == [2, -4, 1]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.sg"
        path.write_text("n 2\ne 1 2 %\n")
        assert main(["spectrum", str(path)]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["spectrum", str(tmp_path / "nope.sg")]) == EXIT_USAGE

    def test_switched_k16(self, tmp_path, capsys):
        # p = x (x - 16)^15: dividing up to sqrt(16^15) would take 2^30 steps
        path = write_sg(tmp_path, "k16.sg", switch_at(SignedGraph.complete(16), {1, 4, 5, 9, 16}))
        assert main(["spectrum", path, "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["spectrum"] == [0] + [16] * 15


class TestCheckSiv:
    def test_type1(self, tmp_path, capsys):
        g = SignedGraph.all_even(3, [(1, 2), (2, 3)])
        path = write_sg(tmp_path, "p3.sg", g)
        assert main(["check-siv", path, "1", "3", "--parity", "even"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "type1"
        assert payload["lambda"] == 1
        assert payload["oracle"] == "agree"

    def test_type2(self, tmp_path, capsys):
        g = SignedGraph.of(3, [(1, 2, EVEN)])
        path = write_sg(tmp_path, "g.sg", g)
        assert main(["check-siv", path, "1", "3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "type2"
        assert (payload["s"], payload["p"]) == (2, 0)
        assert payload["oracle"] == "agree"

    def test_none(self, tmp_path, capsys, monkeypatch):
        # a none verdict has nothing to re-check, so no polynomial is formed
        monkeypatch.setattr(cli, "laplacian_char_poly", None)  # a call raises TypeError
        g = SignedGraph.all_even(4, [(1, 2), (2, 3), (3, 4)])
        path = write_sg(tmp_path, "p4.sg", g)
        assert main(["check-siv", path, "1", "4"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "none"

    def test_adjacent_pair_is_usage_error(self, k3_file, capsys):
        assert main(["check-siv", k3_file, "1", "2"]) == EXIT_USAGE


class TestXY:
    def test_k4_one_odd(self, tmp_path, capsys):
        path = write_sk(tmp_path, "t.sk", SignedComplete.of(4, [(1, 2)]))
        assert main(["xy", path]) == EXIT_OK
        assert capsys.readouterr().out == "X: 3-4\nY: (none)\n"

    def test_json(self, tmp_path, capsys):
        path = write_sk(tmp_path, "t.sk", SignedComplete.of(4, [(1, 2)]))
        main(["xy", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"X": [[3, 4]], "Y": []}

    def test_k7_balanced_edge(self, tmp_path, capsys):
        odd = [(2, u) for u in range(3, 8)] + [(3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
        path = write_sk(tmp_path, "t.sk", SignedComplete.of(7, odd))
        main(["xy", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["Y"] == [[1, 2]]


class TestDecompose:
    def test_k4_one_odd(self, tmp_path, capsys):
        path = write_sk(tmp_path, "t.sk", SignedComplete.of(4, [(1, 2)]))
        assert main(["decompose", path, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3
        assert payload["parts"] == [[1], [2], [3, 4]]
        assert payload["quotient_odd"] == [[1, 2]]


class TestCompletableAndPlan:
    def test_completable_true(self, tmp_path, capsys):
        t = SignedComplete.of(4, [(1, 2)])
        g = SignedGraph.complete(t.n, t.odd).remove_edge(3, 4)
        gpath = write_sg(tmp_path, "g.sg", g)
        tpath = write_sk(tmp_path, "t.sk", t)
        assert main(["completable", gpath, tpath]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "true"

    def test_plan_single_step(self, tmp_path, capsys):
        t = SignedComplete.of(4, [(1, 2)])
        g = SignedGraph.complete(t.n, t.odd).remove_edge(3, 4)
        gpath = write_sg(tmp_path, "g.sg", g)
        tpath = write_sk(tmp_path, "t.sk", t)
        assert main(["plan", gpath, tpath]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        step = json.loads(lines[0])
        assert step["edge"] == [3, 4]
        assert step["parity"] == "even"
        assert step["kind"] == "type1"

    def test_plan_not_completable(self, tmp_path, capsys):
        t = SignedComplete.of(4, [(1, 2)])
        g = SignedGraph.complete(t.n, t.odd).remove_edge(1, 3)
        gpath = write_sg(tmp_path, "g.sg", g)
        tpath = write_sk(tmp_path, "t.sk", t)
        assert main(["plan", gpath, tpath]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "not completable"

    def test_plan_decides_once(self, tmp_path, capsys, monkeypatch):
        # one plan reads the completability decision once: the triangle-parity
        # sets once each, and the boolean wrapper not at all
        calls = {"x_set": 0, "y_set": 0, "is_sigma_completable": 0}

        def counting(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(completion, name, counting(name, getattr(completion, name)))
        monkeypatch.setattr(cli, "is_sigma_completable", completion.is_sigma_completable)
        # a signed K7 whose balanced all-odd edge 12 is missing
        odd = [(2, u) for u in range(3, 8)] + [(3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
        t = SignedComplete.of(7, odd)
        gpath = write_sg(tmp_path, "g.sg", SignedGraph.complete(t.n, t.odd).remove_edge(1, 2))
        tpath = write_sk(tmp_path, "t.sk", t)
        assert main(["plan", gpath, tpath]) == EXIT_OK
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["edge"] == [1, 2]
        assert calls == {"x_set": 1, "y_set": 1, "is_sigma_completable": 0}


class TestInternalFailures:
    """An internal invariant failure exits 2 with a one-line message."""

    def test_failed_plan_step(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(completion, "siv_oracle", lambda *args: SivVerdict("none"))
        t = SignedComplete.of(4, [(1, 2)])
        gpath = write_sg(tmp_path, "g.sg", SignedGraph.complete(t.n, t.odd).remove_edge(3, 4))
        tpath = write_sk(tmp_path, "t.sk", t)
        assert main(["plan", gpath, tpath]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: planned addition of (3, 4) is not an integral step\n"

    def test_plan_step_verdict_the_polynomial_refutes(self, tmp_path, capsys, monkeypatch):
        # The second of three steps gets a type-1 verdict whose lam is no
        # eigenvalue of its graph, so x - lam does not divide the carried
        # polynomial: the re-check fails, an internal invariant (exit 2).
        oracle = completion.siv_oracle
        calls = []

        def one_false_step(*args):
            calls.append(args)
            return SivVerdict("type1", lam=100) if len(calls) == 2 else oracle(*args)

        monkeypatch.setattr(completion, "siv_oracle", one_false_step)
        gpath = write_sg(tmp_path, "g.sg", SignedGraph.all_even(4, [(1, 2), (1, 3), (1, 4)]))
        tpath = write_sk(tmp_path, "t.sk", SignedComplete.of(4))
        assert main(["plan", gpath, tpath]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert len(calls) == 2
        assert captured.out == ""
        assert captured.err == "error: the type1 verdict's factor does not divide the polynomial\n"

    def test_carried_polynomial_left_unmoved(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(completion, "polynomial_after", lambda p, verdict: p)
        t = SignedComplete.of(4, [(1, 2)])
        gpath = write_sg(tmp_path, "g.sg", SignedGraph.complete(t.n, t.odd).remove_edge(3, 4))
        tpath = write_sk(tmp_path, "t.sk", t)
        assert main(["plan", gpath, tpath]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the polynomial carried through the plan is not the target's\n"

    def test_tampered_decomposition(self, tmp_path, capsys, monkeypatch):
        # the end check reads the target's polynomial off its quotient; a
        # first part that loses a vertex gives another polynomial
        decompose = completion._decompose

        def dropping_a_vertex(t, x_edges):
            deco = decompose(t, x_edges)
            return replace(deco, parts=(deco.parts[0][1:],) + deco.parts[1:])

        monkeypatch.setattr(completion, "_decompose", dropping_a_vertex)
        gpath = write_sg(tmp_path, "g.sg", SignedGraph.all_even(4, [(1, 2), (1, 3), (1, 4)]))
        tpath = write_sk(tmp_path, "t.sk", SignedComplete.of(4))
        assert main(["plan", gpath, tpath]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the polynomial carried through the plan is not the target's\n"

    def test_mixed_cross_parities_in_decompose(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(completion, "x_set", lambda t: frozenset({(1, 2)}))
        path = write_sk(tmp_path, "t.sk", SignedComplete.of(4, [(1, 3)]))
        assert main(["decompose", path]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_failed_certificate_recheck(self, tmp_path, capsys, monkeypatch):
        # check-siv re-checks a positive verdict against two polynomials
        # computed from scratch
        monkeypatch.setattr(cli, "verify_shift_identity", lambda *args: False)
        path = write_sg(tmp_path, "p3.sg", SignedGraph.all_even(3, [(1, 2), (2, 3)]))
        assert main(["check-siv", path, "1", "3"]) == EXIT_VIOLATION
        assert capsys.readouterr().err == "error: type1 certificate failed to verify\n"


_JUNK_LINE = st.one_of(
    st.builds("e {} {} {}".format, st.integers(-1, 10), st.integers(-1, 10),
              st.sampled_from(["+", "-", "*", ""])),
    st.builds("odd {} {}".format, st.integers(-1, 10), st.integers(-1, 10)),
    st.builds("n {}".format, st.integers(-1, 10)),
    st.lists(st.sampled_from(["n", "e", "odd", "+", "-", "#", "x", "0", "1.5", "9" * 30]),
             max_size=5).map(" ".join),
)


@st.composite
def junked(draw, lines: list[str]) -> bytes:
    """The file's lines with up to two of them replaced or inserted from a
    token grammar, or raw bytes instead."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.binary(max_size=64))
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines)))
        junk = draw(_JUNK_LINE)
        if i < len(lines) and draw(st.booleans()):
            lines[i] = junk
        else:
            lines.insert(i, junk)
    return "\n".join(lines).encode()


@st.composite
def cli_case(draw) -> tuple[bytes, bytes, list[str]]:
    """A `.sg` and a `.sk` file on at most 9 vertices, near-valid, and the
    arguments of one command that reads them ({sg} and {sk} mark the paths).
    The start's signs mostly agree with the target's, so some plans run."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    subsets = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    odd, edges = draw(subsets), draw(subsets)
    flipped = {draw(st.sampled_from(pairs))} if pairs and draw(st.booleans()) else set()
    sg = draw(junked([f"n {n}"] + [
        f"e {u} {v} {'-' if ((u, v) in odd) != ((u, v) in flipped) else '+'}"
        for u, v in sorted(edges)
    ]))
    sk = draw(junked([f"n {n}"] + [f"odd {u} {v}" for u, v in sorted(odd)]))
    json_flag = ["--json"] if draw(st.booleans()) else []
    command = draw(st.sampled_from(["spectrum", "check-siv", "xy", "decompose", "completable", "plan"]))
    if command == "spectrum":
        argv = ["spectrum", "{sg}", *json_flag]
    elif command == "check-siv":
        v, w = draw(st.integers(-1, 10)), draw(st.integers(-1, 10))
        argv = ["check-siv", "{sg}", str(v), str(w), "--parity", draw(st.sampled_from([EVEN, ODD]))]
    elif command in ("xy", "decompose"):
        argv = [command, "{sk}", *json_flag]
    elif command == "completable":
        argv = ["completable", "{sg}", "{sk}", *json_flag]
    else:
        argv = ["plan", "{sg}", "{sk}"]
    return sg, sk, argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=1000, deadline=None)
@given(case=cli_case())
def test_fuzzed_files_exit_0_or_1_with_a_message(fuzz_dir, case):
    """Whatever the input files hold, a command finishes with exit 0, or with
    exit 1 and a message on stderr; it never raises."""
    sg, sk, argv = case
    paths = {"sg": fuzz_dir / "g.sg", "sk": fuzz_dir / "t.sk"}
    paths["sg"].write_bytes(sg)
    paths["sk"].write_bytes(sk)
    argv = [arg.format(**paths) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error: ")


class TestVertexCap:
    """Inputs and sampled sweeps above MAX_VERTICES are refused with exit 1."""

    def test_spectrum_at_and_above_the_cap(self, tmp_path, capsys):
        n = MAX_VERTICES
        path = write_sg(tmp_path, "k.sg", SignedGraph.complete(n))
        assert main(["spectrum", path, "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["spectrum"] == [0] + [n] * (n - 1)
        path = write_sg(tmp_path, "big.sg", SignedGraph.complete(n + 1))
        assert main(["spectrum", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 1: vertex count {n + 1} exceeds the limit of {n}\n"

    def test_xy_at_and_above_the_cap(self, tmp_path, capsys):
        assert main(["xy", write_sk(tmp_path, "t.sk", SignedComplete.of(MAX_VERTICES))]) == EXIT_OK
        capsys.readouterr()
        big = write_sk(tmp_path, "big.sk", SignedComplete.of(MAX_VERTICES + 1))
        assert main(["xy", big]) == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err

    def test_sampled_n_limit(self, capsys):
        args = ["enumerate", "--samples", "1", "--json", "--n-limit"]
        assert main(args + [str(MAX_VERTICES)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["mismatches"] == 0
        assert main(args + [str(MAX_VERTICES + 1)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: n-limit must be at most {MAX_VERTICES}\n"


class TestUsageErrors:
    """Argument errors exit 1 with the usage on stderr; --help still exits 0."""

    def test_bad_int(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--n-limit", "abc"])
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: sivkit enumerate")
        assert "error: argument --n-limit: invalid int value: 'abc'" in captured.err

    def test_missing_positional(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["spectrum"])
        assert info.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: sivkit spectrum")
        assert "the following arguments are required: graph" in err

    @pytest.mark.parametrize("argv", [["--help"], ["enumerate", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: sivkit")


@pytest.mark.parametrize("module", ["sivkit", "sivkit.cli"])
def test_python_m_runs_the_cli(module, k3_file, tmp_path):
    src = str(Path(sivkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    done = run("spectrum", k3_file)
    assert (done.returncode, done.stdout) == (EXIT_OK, "x^3-6x^2+9x; spectrum 0,3,3\n")
    done = run("spectrum", str(tmp_path / "missing.sg"))
    assert done.returncode == EXIT_USAGE
    assert (done.stdout, done.stderr[:7]) == ("", "error: ")


class TestEnumerate:
    def test_exhaustive_n3(self, capsys):
        assert main(["enumerate", "--n-limit", "3", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["mismatches"] == 0
        assert payload["graphs"] == 3**3  # 27 signed graphs on 3 vertices
        assert payload["instances"] == payload["type1"] + payload["type2"] + payload["none"]

    def test_sampled_is_deterministic(self, capsys):
        args = ["enumerate", "--n-limit", "6", "--samples", "40", "--seed", "7", "--json"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        ("n_limit", "samples", "seed", "instances", "type1", "type2", "none"),
        [
            (8, 8, 0, 246, 1, 0, 245),
            (8, 8, 1, 204, 0, 0, 204),
            (8, 8, 2, 230, 0, 0, 230),
            (7, 60, 11, 1242, 11, 13, 1218),
        ],
    )
    def test_sampled_json_is_pinned(
        self, capsys, n_limit, samples, seed, instances, type1, type2, none
    ):
        args = ["enumerate", "--n-limit", str(n_limit), "--samples", str(samples),
                "--seed", str(seed), "--json"]
        assert main(args) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {
            "n": n_limit, "mode": "samples", "samples": samples, "seed": seed,
            "canonical": False, "graphs": samples, "instances": instances,
            "type1": type1, "type2": type2, "none": none, "mismatches": 0,
        }

    def test_one_polynomial_per_graph_with_a_positive_verdict(self, capsys, monkeypatch):
        # the sweep forms g's polynomial to re-check g's positive verdicts,
        # once, and a graph with none forms no polynomial; the re-check only
        # divides, so no polynomial after an addition is multiplied out
        positive = {
            g for g in iter_signed_graphs(4) if any(o.kind != "none" for *_, o in cross_check(g))
        }
        polys = []
        products = []
        laplacian_char_poly = spectra.laplacian_char_poly
        mul_coeffs = spectra._mul_coeffs

        def counting(g):
            polys.append(g)
            return laplacian_char_poly(g)

        def counting_products(*args):
            products.append(args)
            return mul_coeffs(*args)

        monkeypatch.setattr(spectra, "laplacian_char_poly", counting)
        monkeypatch.setattr(spectra, "_mul_coeffs", counting_products)
        assert main(["enumerate", "--n-limit", "4", "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["mismatches"] == 0
        assert len(polys) == len(set(polys))
        assert set(polys) == positive
        assert 0 < len(positive) < 3**6 - 2**6  # less the complete graphs
        assert products == []

    def test_sweep_refutes_a_verdict_the_polynomial_does_not_have(self, capsys, monkeypatch):
        # one positive oracle verdict whose lam is no eigenvalue of its
        # graph: x - lam does not divide g's polynomial, an internal
        # invariant failure (exit 2)
        oracle = spectra.siv_oracle
        calls = []

        def one_false_verdict(*args):
            calls.append(args)
            return SivVerdict("type1", lam=100) if len(calls) == 5 else oracle(*args)

        monkeypatch.setattr(spectra, "siv_oracle", one_false_verdict)
        assert main(["enumerate", "--n-limit", "3"]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert len(calls) == 5
        assert captured.out == ""
        assert captured.err == "error: the type1 verdict's factor does not divide the polynomial\n"

    def test_canonical_reduces_graph_count(self, capsys):
        main(["enumerate", "--n-limit", "3", "--json"])
        full = json.loads(capsys.readouterr().out)
        main(["enumerate", "--n-limit", "3", "--canonical", "--json"])
        canon = json.loads(capsys.readouterr().out)
        assert canon["graphs"] < full["graphs"]
        assert canon["mismatches"] == 0

    def test_exhaustive_n4_full_agreement(self, capsys):
        assert main(["enumerate", "--n-limit", "4", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["graphs"] == 3**6
        assert payload["instances"] == 2916
        assert payload["mismatches"] == 0

    def test_worker_pool_matches_sequential(self, capsys):
        assert main(["enumerate", "--n-limit", "3", "--json"]) == EXIT_OK
        sequential = capsys.readouterr().out
        assert main(["enumerate", "--n-limit", "3", "--workers", "2", "--json"]) == EXIT_OK
        assert capsys.readouterr().out == sequential

    def test_one_worker_holds_one_graph_at_a_time(self, capsys, monkeypatch):
        # the sweep reads the graphs as they are made, so the first graph,
        # and the encodings cross_check cached on it, is freed long before
        # the last is tallied
        first, alive = [], []

        def watched(g):
            if first:
                alive.append(first[0]() is not None)
            else:
                first.append(weakref.ref(g))
            return cross_check(g)

        monkeypatch.setattr(cli, "cross_check", watched)
        assert main(["enumerate", "--n-limit", "3", "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["graphs"] == 27
        assert len(alive) == 26 and not alive[-1]

    def test_negative_samples_refused(self, capsys):
        assert main(["enumerate", "--n-limit", "4", "--samples", "-3", "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samples must be at least 0\n"

    @pytest.mark.parametrize(
        ("argv", "cores", "pool_size"),
        [
            (["--n-limit", "3", "--workers", "1000"], 4, 4),  # bounded by the cores
            (["--n-limit", "3", "--workers", "3"], 64, 3),  # by the workers asked for
            (["--n-limit", "5", "--samples", "2", "--workers", "8"], 64, 2),  # by the graphs
            (["--n-limit", "3", "--workers", "4"], 1, None),  # one core: no pool at all
            # every worker de-duplicates the whole sweep and keeps its share
            (["--n-limit", "4", "--canonical", "--workers", "3"], 64, 3),
        ],
    )
    def test_pool_size_is_bounded(self, argv, cores, pool_size, capsys, monkeypatch):
        import multiprocessing

        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks):
                # one task per worker, each a few numbers and flags: no
                # graph is listed or pickled
                assert len(tasks) == sizes[-1]
                assert all(len(pickle.dumps(task)) < 100 for task in tasks)
                return [func(task) for task in tasks]

        assert main(["enumerate", "--json", *argv[:-2]]) == EXIT_OK
        sequential = capsys.readouterr().out
        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert main(["enumerate", "--json", *argv]) == EXIT_OK
        assert sizes == ([pool_size] if pool_size else [])
        assert capsys.readouterr().out == sequential

    def test_exhaustive_limit_guard(self, capsys):
        # n = 6 alone is 3^15 graphs and 143.5M instances, too many to sweep
        for n_limit in ("6", "7", "8", "9"):
            assert main(["enumerate", "--n-limit", n_limit]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: exhaustive enumeration needs 1 <= n-limit <= 5\n"
        assert main(["enumerate", "--n-limit", "4", "--workers", "0"]) == EXIT_USAGE

    def test_human_summary(self, capsys):
        assert main(["enumerate", "--n-limit", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mismatches=0" in out
