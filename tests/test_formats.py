import pytest
from hypothesis import given, settings, strategies as st

from rbkernel import formats
from rbkernel.generators import gen_grid, gen_matching, gen_random_planar
from rbkernel.graph import GraphError, Instance, RBGraph
from rbkernel.kernelizer import RULE_TAGS, KernelTrace, kernelize, lift_solution
from rbkernel.planar import is_planar

from helpers import format_plane


class TestInstanceRoundTrip:
    def test_generated_instances_round_trip_exactly(self):
        for inst in (gen_grid(3, 4), gen_matching(5), gen_random_planar(15, 0.7, 2)):
            again = formats.parse_instance(formats.format_instance(inst))
            assert again.graph == inst.graph
            assert again.k == inst.k

    def test_seed_line_round_trips(self):
        inst = gen_random_planar(12, 0.5, 9)
        text = formats.format_instance(inst)
        assert "g seed" in text
        again = formats.parse_instance(text)
        assert again.meta["seed"] == 9
        assert again.meta["algo"] == inst.meta["algo"]

    def test_noncanonical_ids_get_origid_map(self):
        g = RBGraph.from_parts([4, 9], [12], [(4, 12), (9, 12)])
        text = formats.format_instance(Instance(g, 1))
        assert "c origid" in text
        again = formats.parse_instance(text)
        assert again.meta["origid"] == {1: 4, 2: 9, 3: 12}
        assert len(again.graph.blue) == 2

    def test_empty_instance(self):
        inst = Instance(RBGraph(), 0)
        again = formats.parse_instance(formats.format_instance(inst))
        assert again.graph.n_vertices == 0 and again.k == 0

    def test_reds_below_blues_round_trip(self):
        g = RBGraph.from_parts([5, 6], [1, 2], [(5, 1), (6, 2), (5, 2)])
        text = formats.format_instance(Instance(g, 1))
        assert [line for line in text.splitlines() if line[0] == "e"] == \
            ["e 1 3", "e 1 4", "e 2 4"]
        again = formats.parse_instance(text)
        origid = again.meta["origid"]
        assert {(origid[b], origid[r]) for b in again.graph.blue
                for r in again.graph.adj[b]} == {(5, 1), (6, 2), (5, 2)}

    @pytest.mark.parametrize("u, v", [(1, 2), (3, 4)])
    def test_same_color_edge_refused(self, u, v):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 4)])
        g.adj[u].add(v)
        g.adj[v].add(u)
        with pytest.raises(GraphError):
            formats.format_instance(Instance(g, 1))


class TestParseErrors:
    def check(self, text, line_no):
        with pytest.raises(formats.ParseError) as err:
            formats.parse_instance(text)
        assert err.value.line_no == line_no

    def test_bad_header(self):
        self.check("p rbds 1 1\n", 1)

    def test_duplicate_header(self):
        self.check("p rbds 1 1 1\np rbds 1 1 1\n", 2)

    def test_edge_before_header(self):
        self.check("e 1 2\np rbds 1 1 1\n", 1)

    def test_duplicate_edge(self):
        self.check("p rbds 1 1 1\ne 1 2\ne 1 2\n", 3)

    def test_wrong_side(self):
        self.check("p rbds 1 1 1\ne 2 1\n", 2)

    def test_out_of_range(self):
        self.check("p rbds 1 1 1\ne 1 3\n", 2)

    def test_negative_budget(self):
        self.check("p rbds 1 1 -1\n", 1)

    def test_missing_header(self):
        self.check("c nothing here\n", 0)

    def test_junk_line(self):
        self.check("p rbds 1 1 1\nq what\n", 2)

    @pytest.mark.parametrize("fields", [
        "removed=[1:b:(3,,4)]\tadded=[]\twitness=(1,2)",
        "removed=[1:b:(,3)]\tadded=[]\twitness=(1,2)",
        "removed=[]\tadded=[]\twitness=(1,,2)",
        "removed=[]\tadded=[]\twitness=(1,2,)",
        "removed=[1:q:(3)]\tadded=[]\twitness=(1,2)",
        "removed=[1::(3)]\tadded=[]\twitness=(1,2)",
        "removed=[1:b:((3))]\tadded=[]\twitness=(1,2)",
        "removed=[1:b:3]\tadded=[]\twitness=(1,2)",
        "removed=[[1:b:(3)]]\tadded=[]\twitness=(1,2)",
        "removed=1:b:(3)\tadded=[]\twitness=(1,2)",
        "removed=[]\tadded=[5:((1,2))]\twitness=(1,2)",
        "removed=[]\tadded=[5:(1,,2)]\twitness=(1,2)",
        "removed=[]\tadded=[]\twitness=((1,2))",
        "removed=[]\tadded=[]\twitness=1,2",
        "removed=[]\tadded=[]\twitness=(+1,2)",
        "removed=[]\tadded=[]\twitness=(1_0,2)",
        "removed=[]\tadded=[]\twitness=(-1,2)",
        "removed=[]\tadded=[]\twitness=(\u0661,2)",
        "removed=[+1:b:(3)]\tadded=[]\twitness=(1,2)",
        "removed=[1:b:(+3)]\tadded=[]\twitness=(1,2)",
        "removed=[]\tadded=[1_0:(1,2)]\twitness=(1,2)",
        "k_delta=+0\tremoved=[]\tadded=[]\twitness=(1,2)",
        "k_delta=1_0\tremoved=[]\tadded=[]\twitness=(1,2)",
        "k_delta=--1\tremoved=[]\tadded=[]\twitness=(1,2)",
        "k_delta=-\tremoved=[]\tadded=[]\twitness=(1,2)",
    ])
    def test_malformed_trace_record(self, fields):
        if not fields.startswith("k_delta="):
            fields = "k_delta=0\t" + fields
        with pytest.raises(formats.ParseError) as err:
            formats.parse_trace("c\nr\tR1\t%s\n" % fields)
        assert err.value.line_no == 2


class TestSolutionFormat:
    def test_round_trip(self):
        text = formats.format_solution({3, 1, 7})
        assert text == "s 1 3 7\n"
        assert formats.parse_solution(text) == {1, 3, 7}

    def test_empty(self):
        assert formats.parse_solution(formats.format_solution(set())) == set()

    def test_garbage(self):
        with pytest.raises(formats.ParseError):
            formats.parse_solution("x 1 2\n")

    @pytest.mark.parametrize("text", ["s +1 2\n", "s 1_0\n", "s \u0661\n", "s -1\n"])
    def test_ids_must_be_ascii_digits(self, text):
        with pytest.raises(formats.ParseError):
            formats.parse_solution(text)


class TestTraceFormat:
    def run_trace(self):
        inst = gen_matching(3)
        res = kernelize(Instance(inst.graph, 2))
        if res.trace is None:
            raise AssertionError
        return res.trace

    def test_round_trip(self):
        inst = gen_grid(3, 3)
        res = kernelize(inst)
        trace = res.trace
        again = formats.parse_trace(formats.format_trace(trace))
        assert again.records == trace.records
        assert again.fingerprint == trace.fingerprint

    def test_case2_record_round_trips(self):
        from rbkernel.kernelizer import Match, apply_rule, KernelTrace
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (1, 4), (2, 3), (2, 4)])
        _, rec = apply_rule(g, 1, Match("R4-case2", (1, 2), frozenset({3, 4})))
        trace = KernelTrace([rec])
        again = formats.parse_trace(formats.format_trace(trace))
        assert again.records == [rec]
        assert again.records[0].added == ((5, (1, 2)),)

    def test_unknown_tag_rejected(self):
        with pytest.raises(formats.ParseError) as err:
            formats.parse_trace("r\tR9\tk_delta=0\tremoved=[]\tadded=[]\twitness=(1)\n")
        assert err.value.line_no == 1

    @pytest.mark.parametrize("line", [
        "c fingerprint v=x e=3 sha=0123456789abcdef",
        "c fingerprint n=4 e=3 sha=0123456789abcdef",
        "c fingerprint v=4 e=3 digest=0123456789abcdef",
        "c fingerprint v=4 e=3 sha=0123456789abcdeg",
        "c fingerprint v=4 e=3",
    ])
    def test_malformed_fingerprint_rejected(self, line):
        with pytest.raises(formats.ParseError) as err:
            formats.parse_trace("r\tR1\tk_delta=0\tremoved=[1:b:(3)]\tadded=[]\twitness=(1,2)\n"
                                + line + "\n")
        assert err.value.line_no == 2


class TestParserHygiene:
    def test_only_parse_errors_escape(self):
        # Garbage input of any shape must surface as ParseError, never as a
        # stray ValueError/KeyError from field conversion.
        import random
        rng = random.Random(1)
        tokens = ["p", "rbds", "plane", "e", "c", "g", "seed", "v", "r", "s",
                  "1", "2", "-3", "0", "x", ":", "(", ")", "[]", "k_delta=",
                  "1:b:(2)", "nan", "v 1:", "removed=[", "witness=(a)", "k_delta=z"]
        for _ in range(3000):
            text = "\n".join(
                " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 7)))
                for _ in range(rng.randint(0, 6)))
            for fn in (formats.parse_instance, formats.parse_trace, formats.parse_plane):
                try:
                    fn(text)
                except formats.ParseError:
                    pass


_TRACE_HEADS = ["c fingerprint", "c", "r R1", "r R4-case2", "r R9", "r", "x"]
_TRACE_TOKENS = ["fingerprint", "v=1", "e=x", "sha=0123456789abcdef", "R1", "k_delta=-1",
                 "k_delta=z", "removed=[1:b:(2,3)]", "removed=[1:b]", "added=[5:(1,2)]",
                 "added=[:(", "witness=(1,2)", "witness=(a)", "=", "[]"]


@st.composite
def trace_like_texts(draw):
    """Lines of trace tokens behind a line head, and well-formed records
    whose witness may not fit the tag, mixed with raw text, so the line
    dispatch, the field parsers and the witness check see malformed input."""
    line = st.builds(lambda head, rest: " ".join([head] + rest),
                     st.sampled_from(_TRACE_HEADS),
                     st.lists(st.sampled_from(_TRACE_TOKENS), max_size=5))
    record = st.builds(
        lambda tag, ids: "r\t%s\tk_delta=0\tremoved=[]\tadded=[]\twitness=(%s)"
        % (tag, ",".join(map(str, ids))),
        st.sampled_from(RULE_TAGS), st.lists(st.integers(0, 9), max_size=3))
    return "\n".join(draw(st.lists(st.one_of(line, record, st.text(max_size=40)),
                                   max_size=6)))


class TestTraceFuzz:
    @given(st.one_of(st.text(), trace_like_texts()))
    @settings(max_examples=300, deadline=None)
    def test_trace_or_parse_error(self, text):
        try:
            trace = formats.parse_trace(text)
        except formats.ParseError:
            return
        assert isinstance(trace, KernelTrace)
        lift_solution(trace, set())


class TestPlaneFormat:
    def test_round_trip(self):
        res = is_planar(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        pg = res.embedding
        again = formats.parse_plane(format_plane(pg))
        assert again.rotation == pg.rotation

    def test_header_mismatch(self):
        with pytest.raises(formats.ParseError):
            formats.parse_plane("p plane 2 5\nv 1: 2\nv 2: 1\n")

    def test_asymmetric_rejected(self):
        with pytest.raises(formats.ParseError):
            formats.parse_plane("p plane 2 1\nv 1: 2\nv 2:\n")
