import pytest

from sivkit import (
    EVEN,
    ODD,
    ParseError,
    SignedComplete,
    SignedGraph,
    dumps_sg,
    dumps_sk,
    load_sg,
    load_sk,
    parse_sg,
    parse_sk,
)
from sivkit.fileio import MAX_VERTICES


SAMPLE_SG = """\
# a 3-vertex path with one odd edge
n 3
e 1 2 -
e 2 3 +
"""


class TestParseSg:
    def test_basic(self):
        g = parse_sg(SAMPLE_SG)
        assert g == SignedGraph.of(3, [(1, 2, ODD), (2, 3, EVEN)])

    def test_comments_and_blank_lines(self):
        text = "\n# header\n\nn 2\n\n# middle\ne 1 2 +\n\n"
        assert parse_sg(text) == SignedGraph.of(2, [(1, 2, EVEN)])

    def test_edgeless(self):
        assert parse_sg("n 1\n") == SignedGraph(1, frozenset(), frozenset())

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_sg("e 1 2 +\n")

    def test_duplicate_edge_reports_line(self):
        text = "n 3\ne 1 2 +\ne 2 1 -\n"
        with pytest.raises(ParseError) as info:
            parse_sg(text)
        assert info.value.line == 3
        assert "duplicate" in str(info.value)

    def test_loop_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_sg("n 3\ne 2 2 +\n")
        assert info.value.line == 2

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_sg("n 3\ne 1 4 +\n")

    def test_bad_parity_token(self):
        with pytest.raises(ParseError):
            parse_sg("n 3\ne 1 2 x\n")

    def test_bad_directive(self):
        with pytest.raises(ParseError):
            parse_sg("n 3\nedge 1 2 +\n")

    def test_bad_count(self):
        with pytest.raises(ParseError):
            parse_sg("n zero\n")
        with pytest.raises(ParseError):
            parse_sg("n 0\n")

    def test_roundtrip(self):
        g = SignedGraph.of(4, [(1, 2, ODD), (2, 3, EVEN), (1, 4, ODD)])
        assert parse_sg(dumps_sg(g)) == g


class TestParseSk:
    def test_basic(self):
        t = parse_sk("n 4\nodd 1 2\n")
        assert t == SignedComplete.of(4, [(1, 2)])

    def test_all_even(self):
        assert parse_sk("n 5\n") == SignedComplete.of(5)

    def test_duplicate_pair(self):
        with pytest.raises(ParseError) as info:
            parse_sk("n 4\nodd 1 2\nodd 2 1\n")
        assert info.value.line == 3

    def test_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_sk("n 4\nodd 3 3\n")

    def test_bad_directive(self):
        with pytest.raises(ParseError):
            parse_sk("n 4\ne 1 2 +\n")

    def test_roundtrip(self):
        t = SignedComplete.of(5, [(1, 2), (3, 5)])
        assert parse_sk(dumps_sk(t)) == t


@pytest.mark.parametrize("parse", [parse_sg, parse_sk])
class TestVertexCap:
    def test_at_the_cap(self, parse):
        assert parse(f"n {MAX_VERTICES}\n").n == MAX_VERTICES

    def test_above_the_cap(self, parse):
        with pytest.raises(ParseError) as info:
            parse(f"# too large\nn {MAX_VERTICES + 1}\n")
        assert info.value.line == 2


class TestLoadFromDisk:
    def test_load_sg(self, tmp_path):
        path = tmp_path / "graph.sg"
        path.write_text(SAMPLE_SG)
        assert load_sg(path) == SignedGraph.of(3, [(1, 2, ODD), (2, 3, EVEN)])

    def test_load_sk(self, tmp_path):
        path = tmp_path / "target.sk"
        path.write_text("n 4\nodd 1 2\n")
        assert load_sk(path) == SignedComplete.of(4, [(1, 2)])
