import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rbkernel import formats
from rbkernel.generators import gen_grid, gen_matching, gen_random_planar
from rbkernel.graph import GraphError, Instance, RBGraph
from rbkernel.kernelizer import RULE_TAGS, KernelTrace, kernelize, lift_solution
from rbkernel.planar import is_planar

from helpers import format_plane

# More digits than int() converts from text.
LONG_ID = "1" * 5000


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

    @pytest.mark.parametrize("header", ["p rbds 999999999999999999 0 0",
                                        "p rbds %d 1 0" % formats.MAX_VERTICES])
    def test_oversized_header_refused_in_constant_memory(self, header):
        tracemalloc.start()
        try:
            self.check(header + "\n", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_junk_line(self):
        self.check("p rbds 1 1 1\nq what\n", 2)

    @pytest.mark.parametrize("text, line_no", [
        ("p rbds 10 5 +1\n", 1),
        ("p rbds 10 5 1\ne 1_0 13\n", 2),
        ("p rbds 10 5 1\ne +3 \u0661\u0661\n", 2),
        ("p rbds 10 5 1\ne 3 \u0661\u0661\n", 2),
        ("p rbds 10 5 1\ng seed planar +7\n", 2),
    ])
    def test_ids_must_be_ascii_digits(self, text, line_no):
        self.check(text, line_no)

    @pytest.mark.parametrize("parse, text, line_no", [
        (formats.parse_instance, "p rbds %s 1 1\n" % LONG_ID, 1),
        (formats.parse_instance, "p rbds 1 1 1\ne %s 2\n" % LONG_ID, 2),
        (formats.parse_instance, "p rbds 1 1 1\ne 1 %s\n" % LONG_ID, 2),
        (formats.parse_instance, "p rbds 1 1 1\ng seed planar -%s\n" % LONG_ID, 2),
        (formats.parse_plane, "p plane 2 %s\n" % LONG_ID, 1),
        (formats.parse_plane, "p plane 2 1\nv %s: 2\n" % LONG_ID, 2),
        (formats.parse_plane, "p plane 2 1\nv 1: %s\n" % LONG_ID, 2),
        (formats.parse_solution, "c\ns 1 %s\n" % LONG_ID, 2),
        (formats.parse_trace, "r R3 k_delta=-%s removed=[] added=[] witness=(1)\n" % LONG_ID, 1),
        (formats.parse_trace, "r R3 k_delta=0 removed=[] added=[] witness=(%s)\n" % LONG_ID, 1),
        (formats.parse_trace,
         "r R3 k_delta=0 removed=[1:b:(%s)] added=[] witness=(1)\n" % LONG_ID, 1),
        (formats.parse_trace, "c fingerprint v=%s e=0 sha=0123456789abcdef\n" % LONG_ID, 1),
        (formats.parse_trace, "r R3 k_delta=-%s witness=(1)\n" % LONG_ID, 1),
        (formats.parse_trace, "r R3 k_delta=0 witness=(%s)\n" % LONG_ID, 1),
        (formats.parse_trace, "r R4-case2 k_delta=0 witness=(1,2) added=%s\n" % LONG_ID, 1),
    ])
    def test_long_id_is_parse_error(self, parse, text, line_no):
        # int() refuses more than 4,300 digits with a ValueError of its own.
        with pytest.raises(formats.ParseError) as err:
            parse(text)
        assert err.value.line_no == line_no

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
        "removed=[-1:b:(3)]\tadded=[]\twitness=(1,2)",
        "removed=[]\tadded=[1_0:(1,2)]\twitness=(1,2)",
        "k_delta=+0\tremoved=[]\tadded=[]\twitness=(1,2)",
        "k_delta=1_0\tremoved=[]\tadded=[]\twitness=(1,2)",
        "k_delta=--1\tremoved=[]\tadded=[]\twitness=(1,2)",
        "k_delta=-\tremoved=[]\tadded=[]\twitness=(1,2)",
        "k_delta=0\tadded=[]\tremoved=[]\twitness=(1,2)",
        "k_delta=0\twitness=(1,2)\tremoved=[]\tadded=[]",
        "removed=[]\tadded=[]\twitness=(1,2)\tnote=x",
    ])
    def test_malformed_trace_record(self, fields):
        # Records of the older format, which listed removed=[..] and
        # added=[..], are refused, malformed or not, by a message that names
        # the format change.
        if not fields.startswith("k_delta="):
            fields = "k_delta=0\t" + fields
        with pytest.raises(formats.ParseError) as err:
            formats.parse_trace("c\nr\tR1\t%s\n" % fields)
        assert err.value.line_no == 2
        assert "old trace format" in str(err.value)

    @pytest.mark.parametrize("record", [
        "R1\tk_delta=0\twitness=(1,,2)",
        "R1\tk_delta=0\twitness=(1,2,)",
        "R1\tk_delta=0\twitness=(,1,2)",
        "R1\tk_delta=0\twitness=((1,2))",
        "R1\tk_delta=0\twitness=1,2",
        "R1\tk_delta=0\twitness=[1,2]",
        "R1\tk_delta=0\twitness=(1 2)",
        "R1\tk_delta=0\twitness=(1;2)",
        "R1\tk_delta=0\twitness=(+1,2)",
        "R1\tk_delta=0\twitness=(1_0,2)",
        "R1\tk_delta=0\twitness=(-1,2)",
        "R1\tk_delta=0\twitness=(\u0661,2)",
        "R1\tk_delta=0\twitness=(1)",
        "R3\tk_delta=-1\twitness=(1,2)",
        "R9\tk_delta=0\twitness=(1)",
        "R1\tk_delta=+0\twitness=(1,2)",
        "R1\tk_delta=1_0\twitness=(1,2)",
        "R1\tk_delta=--1\twitness=(1,2)",
        "R1\tk_delta=-\twitness=(1,2)",
        "R1\tk_delta=\twitness=(1,2)",
        "R1\twitness=(1,2)\tk_delta=0",
        "R1\tk_delta=0",
        "R1\twitness=(1,2)",
        "R1\tk_delta=0witness=(1,2)",
        "R1\tk_delta=0\twitness=(1,2)\tnote=x",
        "R1\tk_delta=0\twitness=(1,2)\tadded=5",
        "R4-case2\tk_delta=0\twitness=(1,2)",
        "R4-case2\tk_delta=0\twitness=(1,2)\tadded=",
        "R4-case2\tk_delta=0\twitness=(1,2)\tadded=+5",
        "R4-case2\tk_delta=0\twitness=(1,2)\tadded=-5",
        "R4-case2\tk_delta=0\twitness=(1,2)\tadded=(5)",
        "R4-case2\tk_delta=0\twitness=(1,2)\tadded=5,6",
        "R4-case2\tk_delta=0\twitness=(1,2)\tadded=5\tadded=6",
        "R4-case2\tk_delta=0\tadded=5\twitness=(1,2)",
    ])
    def test_malformed_compact_record(self, record):
        with pytest.raises(formats.ParseError) as err:
            formats.parse_trace("c\nr\t%s\n" % record)
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

    def test_comments_around_the_one_s_line(self):
        assert formats.parse_solution("c a\n\n  s 2 1\nc b\n") == {1, 2}

    @pytest.mark.parametrize("text, line_no", [
        ("s 1 2\njunk line\ns 9\n", 2),
        ("s 1 2\ns 9\n", 2),
        ("c\ns 1\n\ns\n", 4),
        ("s 1\nx\n", 2),
    ])
    def test_only_one_s_line_and_comments(self, text, line_no):
        with pytest.raises(formats.ParseError) as err:
            formats.parse_solution(text)
        assert err.value.line_no == line_no


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
        _, rec, _ = apply_rule(g, 1, Match("R4-case2", (1, 2)))
        trace = KernelTrace([rec])
        text = formats.format_trace(trace)
        assert text == "r\tR4-case2\tk_delta=0\twitness=(1,2)\tadded=5\n"
        again = formats.parse_trace(text)
        assert again.records == [rec]
        assert again.records[0].added == 5

    def test_old_format_names_the_change(self):
        old = ("c fingerprint v=4 e=4 sha=0123456789abcdef\n"
               "r\tR4-case2\tk_delta=0\tremoved=[3:r:(1,2);4:r:(1,2)]\tadded=[5:(1,2)]"
               "\twitness=(1,2)\n")
        with pytest.raises(formats.ParseError) as err:
            formats.parse_trace(old)
        assert err.value.line_no == 2 and "old trace format" in str(err.value)

    def test_every_tag_round_trips(self):
        # Pair-rule witnesses, a grid, and a graph with same-color edges and
        # an isolated red fire every tag between them, R4-case2 added ids
        # and Sanitize-edge among them.
        from helpers import alternating_cycle
        from test_rules import rule4_case2_witness, rule4_case3_witness
        unsanitized = RBGraph.from_parts([1, 2], [3, 4, 5], [(1, 3), (2, 3), (2, 4)])
        for u, v in ((1, 2), (3, 4)):
            unsanitized.adj[u].add(v)
            unsanitized.adj[v].add(u)
        tags = set()
        for g in (unsanitized, rule4_case2_witness(), rule4_case3_witness(),
                  rule4_case3_witness(swap_vw=True), gen_grid(5, 5).graph, alternating_cycle(6)):
            for k in range(len(g.blue) + 1):
                trace = kernelize(Instance(g.copy(), k)).trace
                again = formats.parse_trace(formats.format_trace(trace))
                assert again.records == trace.records
                assert again.fingerprint == trace.fingerprint
                tags.update(rec.tag for rec in trace.records)
        assert tags == set(RULE_TAGS)

    def test_unknown_tag_rejected(self):
        with pytest.raises(formats.ParseError) as err:
            formats.parse_trace("r\tR9\tk_delta=0\twitness=(1)\n")
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
            formats.parse_trace("r\tR1\tk_delta=0\twitness=(1,2)\n" + line + "\n")
        assert err.value.line_no == 2


class TestParserHygiene:
    def test_only_parse_errors_escape(self):
        # Garbage input of any shape must surface as ParseError, never as a
        # stray ValueError/KeyError from field conversion.
        import random
        rng = random.Random(1)
        tokens = ["p", "rbds", "plane", "e", "c", "g", "seed", "v", "r", "s",
                  "1", "2", "-3", "0", "x", ":", "(", ")", "[]", "k_delta=",
                  "1:b:(2)", "nan", "v 1:", "removed=[", "witness=(a)", "k_delta=z",
                  "witness=(1,2)", "added=5", "added=x", "R4-case2",
                  "+1", "1_0", "\u0661", LONG_ID]
        for _ in range(3000):
            text = "\n".join(
                " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 7)))
                for _ in range(rng.randint(0, 6)))
            for fn in (formats.parse_instance, formats.parse_trace, formats.parse_plane,
                       formats.parse_solution):
                try:
                    fn(text)
                except formats.ParseError:
                    pass


_TRACE_HEADS = ["c fingerprint", "c", "r R1", "r R4-case2", "r R9", "r", "x"]
_TRACE_TOKENS = ["fingerprint", "v=1", "e=x", "sha=0123456789abcdef", "R1", "k_delta=-1",
                 "k_delta=z", "removed=[1:b:(2,3)]", "removed=[1:b]", "added=[5:(1,2)]",
                 "added=[:(", "added=5", "added=", "witness=(1,2)", "witness=(a)", "=", "[]"]


@st.composite
def trace_like_texts(draw):
    """Lines of trace tokens behind a line head, and well-formed records
    whose witness may not fit the tag, mixed with raw text, so the line
    dispatch, the field parsers and the witness check see malformed input."""
    line = st.builds(lambda head, rest: " ".join([head] + rest),
                     st.sampled_from(_TRACE_HEADS),
                     st.lists(st.sampled_from(_TRACE_TOKENS), max_size=5))
    record = st.builds(
        lambda tag, ids, added: "r\t%s\tk_delta=0\twitness=(%s)%s"
        % (tag, ",".join(map(str, ids)), "" if added is None else "\tadded=%d" % added),
        st.sampled_from(RULE_TAGS), st.lists(st.integers(0, 9), max_size=3),
        st.none() | st.integers(0, 9))
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

    @pytest.mark.parametrize("text, line_no", [
        ("p plane +2 1\nv 1: 2\nv 2: 1\n", 1),
        ("p plane 2 1\nv +1: 2\nv 2: 1\n", 2),
        ("p plane 2 1\nv 1: 2\nv 2: 0_1\n", 3),
        ("p plane 2 1\nv 1: 2\nv 2: \u0661\n", 3),
    ])
    def test_ids_must_be_ascii_digits(self, text, line_no):
        with pytest.raises(formats.ParseError) as err:
            formats.parse_plane(text)
        assert err.value.line_no == line_no

    def test_asymmetric_rejected(self):
        with pytest.raises(formats.ParseError):
            formats.parse_plane("p plane 2 1\nv 1: 2\nv 2:\n")
