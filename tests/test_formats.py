import random
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from rbkernel import formats
from rbkernel.generators import gen_grid, gen_matching, gen_random_planar
from rbkernel.graph import GraphError, Instance, RBGraph
from rbkernel.kernelizer import (R1, R3, R4_CASE, RULE_TAGS, WITNESS_LEN, KernelTrace,
                                 RuleApplication, apply_rule, kernelize, lift_solution)
from rbkernel.planar import is_planar

from helpers import (format_plane, reference_format_instance, reference_format_trace,
                     reference_parse_instance, reference_parse_trace)

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


class TestWriterRefusals:
    """format_instance refuses, with ValueError, each value its reader
    would refuse or misread, and writes the last value the reader takes."""

    EDGE = RBGraph.from_parts([1], [2], [(1, 2)])

    @pytest.mark.parametrize("k", [-1, 10 ** 18])
    def test_budget(self, k):
        with pytest.raises(ValueError, match="non-negative.*18 digits"):
            formats.format_instance(Instance(self.EDGE, k))

    def test_vertex_count(self, monkeypatch):
        monkeypatch.setattr(formats, "MAX_VERTICES", 1)
        with pytest.raises(ValueError, match="more than the 1"):
            formats.format_instance(Instance(self.EDGE, 1))

    @pytest.mark.parametrize("blues, reds", [([5], [10 ** 18]), ([10 ** 19], [2])])
    def test_original_id(self, blues, reds):
        g = RBGraph.from_parts(blues, reds, [(blues[0], reds[0])])
        with pytest.raises(ValueError, match="18 digits"):
            formats.format_instance(Instance(g, 1))

    @pytest.mark.parametrize("seed", [10 ** 18, -10 ** 18])
    def test_seed(self, seed):
        with pytest.raises(ValueError, match="18 digits"):
            formats.format_instance(Instance(self.EDGE, 1, {"algo": "a", "seed": seed}))

    @pytest.mark.parametrize("algo", ["", "a b", "a\tb", "a\u2028", 7])
    def test_algo_id(self, algo):
        with pytest.raises(ValueError, match="algo id"):
            formats.format_instance(Instance(self.EDGE, 1, {"algo": algo, "seed": 1}))

    @pytest.mark.parametrize("comment", ["a\nb", "a\r", "\x1c", "a\u2029b"])
    def test_comment(self, comment):
        with pytest.raises(ValueError, match="line break"):
            formats.format_instance(Instance(self.EDGE, 1), ["fine", comment])

    @pytest.mark.parametrize("comment", ["origid 1 5", " origid\t1 5 ", "origid\xa01 1",
                                         "origid 000000000000000001 999999999999999999"])
    def test_comment_that_reads_back_as_a_map_entry(self, comment):
        # Written verbatim, the line would read back as 'c origid <label> <id>'
        # and rename blue 1 under in_original_ids.
        with pytest.raises(ValueError, match="c origid map entry"):
            formats.format_instance(Instance(self.EDGE, 1), ["fine", comment])

    @pytest.mark.parametrize("comment", ["origid 1", "origid 1 5 6", "origid x 5", "origid -1 5",
                                         "origid 1 1000000000000000000", "origid \u0661 5",
                                         "c origid 1 5", "Origid 1 5"])
    def test_comment_that_only_looks_like_a_map_entry(self, comment):
        back = formats.parse_instance(formats.format_instance(Instance(self.EDGE, 1), [comment]))
        assert "origid" not in back.meta and formats.in_original_ids(back) == self.EDGE

    def test_values_at_the_limits_round_trip(self):
        top = 10 ** 18 - 1
        g = RBGraph.from_parts([0], [top], [(0, top)])
        for seed in (top, -top):
            inst = Instance(g, top, {"algo": "a", "seed": seed})
            back = formats.parse_instance(formats.format_instance(inst, ["a\tb \x1f"]))
            assert (back.k, back.meta["seed"]) == (top, seed)
            assert formats.in_original_ids(back) == g


def _seed_line(meta):
    return (meta["algo"], meta["seed"]) if "algo" in meta and "seed" in meta else None


def _reads_back_as(text, inst):
    try:
        back = formats.parse_instance(text)
        return (back.k == inst.k and _seed_line(back.meta) == _seed_line(inst.meta)
                and formats.in_original_ids(back) == inst.graph)
    except (ValueError, GraphError):
        return False


@st.composite
def instances_near_the_limits(draw):
    """Instances in file layout or with ids up to 10^20, possibly with an
    empty color, and budgets, g seed lines and comments on either side of
    what the reader takes, comments that read as a 'c origid' map entry
    included."""
    nb, nr = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        ids = list(range(1, nb + nr + 1))
    else:
        ids = draw(st.lists(st.integers(0, 30) | st.integers(0, 10 ** 20),
                            min_size=nb + nr, max_size=nb + nr, unique=True))
    blues, reds = ids[:nb], ids[nb:]
    pairs = [(b, r) for b in blues for r in reds]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    near = st.integers(0, 9) | st.integers(-10 ** 19, 10 ** 19)
    meta = {}
    if draw(st.booleans()):
        meta = {"algo": draw(st.sampled_from(["planar", "a b", ""]) | st.text(max_size=4)),
                "seed": draw(near)}
    origid = st.sampled_from(["origid 1 2", "origid\t1 1", " origid 2 99 ", "origid 1 2 3"])
    comments = draw(st.lists(st.text() | origid, max_size=2))
    return Instance(RBGraph.from_parts(blues, reds, edges), draw(near), meta), comments


class TestWriterReadsBack:
    @given(instances_near_the_limits())
    @settings(max_examples=300, deadline=None)
    def test_writes_only_what_it_reads_back(self, case):
        inst, comments = case
        try:
            text = formats.format_instance(inst, comments)
        except ValueError:
            # Refused: unchecked, the same lines would not read back, or a
            # comment would break into two lines or read as a map entry.
            lines = ["c %s" % c for c in comments]
            breaks = any(line.splitlines() != [line] for line in lines)
            maps = any("origid" in reference_parse_instance(line + "\np rbds 0 0 0\n").meta
                       for line in lines if not breaks)
            assert (breaks or maps
                    or not _reads_back_as(reference_format_instance(inst, comments), inst))
            return
        assert _reads_back_as(text, inst)


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

    def test_short_text_makes_no_label_table(self):
        # One edge line under a header of 10^5 vertices is read line by
        # line: the read holds the adjacency sets and the color sets, about
        # 1.25 times the sets alone, where a label table would take 1.55.
        def peak(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        n = 100_000
        text = "p rbds %d %d 1\ne 1 %d\n" % (n // 2, n // 2, n // 2 + 1)
        assert formats.parse_instance(text).graph.adj[1] == {n // 2 + 1}
        sets = peak(lambda: {v: set() for v in range(1, n + 1)})
        assert peak(lambda: formats.parse_instance(text)) < 1.4 * sets

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


def assert_reads_as_reference(text):
    """``parse_instance`` returns what the line-by-line reference reader
    returns, meta and next free id included, or raises its error."""
    try:
        want = reference_parse_instance(text)
    except formats.ParseError as err:
        with pytest.raises(formats.ParseError) as got:
            formats.parse_instance(text)
        assert (str(got.value), got.value.line_no) == (str(err), err.line_no)
        return
    got = formats.parse_instance(text)
    assert got == want
    assert got.meta == want.meta
    assert got.graph._next_id == want.graph._next_id
    # == ignores order, but kernelize's probes read it: the keys of adj and
    # each adjacency set iterate as the reference's do.
    assert list(got.graph.adj) == list(want.graph.adj)
    assert all(list(got.graph.adj[v]) == list(want.graph.adj[v]) for v in want.graph.adj)


# Every line end str.splitlines knows besides "\n".
_LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def instance_texts(draw):
    """Instance files: runs of well-formed edge lines, with blanks, tabs,
    blank lines, comments, ``c origid`` and ``g seed`` lines between them,
    every line end str.splitlines knows, maybe no final line end, and at
    most one corrupted line at a random position.  In half of them every
    line is in the writer's layout: no leading blank and one space between
    fields."""
    nb, nr = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    last = nb + nr
    tidy = draw(st.booleans())

    def line(*fields):
        pads = st.just("") if tidy else st.sampled_from(["", " ", "\t", " \t "])
        seps = st.just(" ") if tidy else st.sampled_from([" ", "\t", "  ", " \t"])
        out = draw(pads) + fields[0]
        for f in fields[1:]:
            out += draw(seps) + f
        return out + draw(pads)

    pairs = [(b, r) for b in range(1, nb + 1) for r in range(nb + 1, last + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [line("e", str(b), str(r)) for b, r in edges]
    extras = st.one_of(
        st.just(""), st.sampled_from([" ", "\t", " \t"]),
        st.sampled_from(["c", "c free text", "c origid 1", "c e 1 2"]),
        st.builds(lambda a, b: line("c", "origid", str(a), str(b)),
                  st.integers(0, 20), st.integers(0, 10 ** 18 - 1)),
        st.builds(lambda seed: line("g", "seed", "planar", str(seed)), st.integers(-99, 99)))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(extras))
    lines.insert(draw(st.integers(0, min(2, len(lines)))),
                 line("p", "rbds", str(nb), str(nr), str(draw(st.integers(0, 9)))))
    corrupt = draw(st.sampled_from([None, "digit", "long", "range", "duplicate", "early"]))
    if corrupt == "duplicate" and lines:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    elif corrupt == "early":
        lines.insert(0, line("e", "1", str(nb + 1)))
    elif corrupt is not None:
        bad = {"digit": ["\u0661", "\uff11", "1\u0662"],
               "long": ["1" * 19, "0" * 18 + "1"],
               "range": ["0", str(nb + 1), str(last + 1), "999"]}[corrupt]
        b, r = (str(draw(st.integers(1, max(nb, 1)))), str(draw(st.integers(nb + 1, last + 1))))
        if draw(st.booleans()):
            b = draw(st.sampled_from(bad))
        else:
            r = draw(st.sampled_from(bad))
        lines.insert(draw(st.integers(0, len(lines))), line("e", b, r))
    ends = st.sampled_from(["\n"] * len(_LINE_ENDS) + _LINE_ENDS)
    text = "".join(text + draw(ends) for text in lines)
    if text and draw(st.booleans()):
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    return text


def chunk_first_lines(lines, end, first, count):
    """The indices of the first lines of ``count`` chunks in a row that the
    readers cut from ``lines``, each ended by ``end``, from line ``first``
    on: each chunk runs to the last line end within ``formats._CHUNK_CHARS``
    characters of its start."""
    text = end.join(lines) + end
    pos = len(end.join(lines[:first] + [""]))
    starts = []
    for _ in range(count):
        starts.append(text.count("\n", 0, pos))
        pos = text.rfind("\n", pos, pos + formats._CHUNK_CHARS) + 1
    return starts


class TestReaderMatchesReference:
    @given(instance_texts())
    @settings(max_examples=500, deadline=None)
    def test_same_instance_or_same_error(self, text):
        assert_reads_as_reference(text)

    @given(instance_texts())
    @settings(max_examples=300, deadline=None)
    def test_same_in_chunks_of_two_lines(self, text):
        # Twelve characters hold two edge lines of one-digit ids, "e 1 5\n".
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_CHUNK_CHARS", 12)
            assert_reads_as_reference(text)

    @given(st.text(alphabet="ep c\n\r\t 0123456789\u0661\x0b\x85"))
    @settings(max_examples=300, deadline=None)
    def test_same_on_raw_text(self, text):
        assert_reads_as_reference("p rbds 3 3 1\n" + text)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("bad", [None, "e 7 9", "e 5 1001", "e 0 1001", "e 1 1001",
                                     "e 1 \u0661", "e 1\x1f1001"])
    @pytest.mark.parametrize("chunk, at", [(0, 0), (0, 1), (1, -1), (1, 0), (2, 5)])
    def test_runs_longer_than_the_cap(self, end, bad, chunk, at):
        # Edge runs of several chunks: a bad or duplicate line anywhere in
        # them, at a cut included, is reported on its own line.  The bad line
        # goes in ``at`` lines from the start of the chunk-th edge chunk.
        nb = 1000
        lines = ["p rbds %d %d 1" % (nb, nb), "c origid 1 5"]
        lines += ["e %d %d" % (b, nb + r) for b in range(1, nb + 1) for r in (b, b % nb + 1, 7)
                  if r != 7 or b > 7]
        starts = chunk_first_lines(lines, end, 2, 3)
        assert starts[0] == 2 and starts[2] + 5 < len(lines)
        if bad is not None:
            lines.insert(starts[chunk] + at, bad)
        assert_reads_as_reference(end.join(lines) + end)

    def test_adjacency_sets_iterate_in_file_order(self):
        # 9 and 1, and 25 and 17, share a slot of an eight-slot set table, so
        # the set's iteration order is the order the file names them in.
        text = "p rbds 16 16 0\ne 9 17\ne 1 25\ne 1 17\n"
        assert_reads_as_reference(text)
        adj = formats.parse_instance(text).graph.adj
        assert (list(adj[17]), list(adj[1])) == ([9, 1], [25, 17])

    @pytest.mark.parametrize("line", ["e 1%s4" % end for end in _LINE_ENDS] + ["e1 2 5", "ex 1 4"])
    def test_odd_line_inside_a_chunk(self, line):
        # "e 1<end>4" splits into the three fields of an edge line, but
        # str.splitlines ends a line inside it; "e1" and "ex" are not tags.
        assert_reads_as_reference("p rbds 3 3 1\ne 2 5\n%s\ne 3 6\n" % line)

    @pytest.mark.parametrize("comment", ["c note 2 6", "c origid 2", "c origid 2 6 7",
                                         "c origid 2 x", "c origid 2 +6", "c origid 2 " + "1" * 19])
    def test_free_comment_inside_an_origid_chunk(self, comment):
        assert_reads_as_reference("c origid 1 5\n%s\nc origid 3 7\np rbds 1 1 0\ne 1 2\n" % comment)

    @pytest.mark.parametrize("case", ["duplicate", "bad 3000", "bad 0999", "bad \u0661\u0661\u0661",
                                      "crlf", "no final end", "comment", "origid"])
    def test_files_longer_than_one_chunk(self, case):
        # Edge lines of ten characters, so a chunk holds `per` of them and
        # the second chunk starts at line 2 + per, after the header.
        nb = 1000
        edges = ["e %d %d" % (b, nb + r) for b in range(100, 1000) for r in (b, b + 1)]
        end = "\r\n" if case == "crlf" else "\n"
        per = formats._CHUNK_CHARS // len(edges[0] + end)
        assert len(edges) > 3 * per
        if case == "duplicate":
            edges.insert(per + 5, edges[3])
        elif case.startswith("bad"):
            # As long as the line it displaces, so it starts the second chunk.
            edges.insert(per, "e 100 " + case[4:].rjust(4, "1"))
        elif case == "comment":
            edges.insert(per // 2, "c between two runs")
        lines = ["p rbds %d %d 1" % (nb, nb)] + edges
        if case == "origid":
            lines[1:1] = ["c origid %d %d" % (v, 5000 + v) for v in range(1, 2 * nb + 1)]
        text = end.join(lines) + ("" if case == "no final end" else end)
        assert_reads_as_reference(text)

    def test_crlf_and_tab_lines_are_read_in_chunks(self, monkeypatch):
        # Only the header and the free comment go through the line checks.
        read = []

        def counted(text, pos):
            read.append(text[pos])
            return line.match(text, pos)

        line = formats._LINE
        monkeypatch.setattr(formats, "_LINE", types.SimpleNamespace(match=counted))
        text = ("p rbds 2 2 0\r\nc origid 1 9\r\nc origid 2 8\r\n"
                "e 1\t3\r\ne 2 4 \r\nc note\ne 1  4\n")
        assert formats.parse_instance(text).graph.adj == {1: {3, 4}, 2: {4}, 3: {1}, 4: {2, 1}}
        assert read == ["p", "c"]


@st.composite
def writable_instances(draw):
    """Instances the writer takes: ids in file layout or not, with removals,
    added reds past every id, possibly an empty color, comments and a seed."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    nb, nr = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    ids = (list(range(1, nb + nr + 1)) if draw(st.booleans())
           else rng.sample(range(1, 4 * (nb + nr) + 2), nb + nr))
    blues, reds = ids[:nb], ids[nb:]
    p = rng.random()
    g = RBGraph.from_parts(blues, reds, [(b, r) for b in blues for r in reds if rng.random() < p])
    for v in rng.sample(ids, draw(st.integers(0, len(ids)))):
        g.remove_vertex(v)
    for _ in range(draw(st.integers(0, 2))):
        g.add_red_vertex(rng.sample(sorted(g.blue), min(2, len(g.blue))))
    meta = {"algo": "planar", "seed": draw(st.integers(-5, 5))} if draw(st.booleans()) else {}
    comments = draw(st.lists(st.sampled_from(["", "note", "origid 1 2"]), max_size=2))
    return Instance(g, draw(st.integers(0, 9)), meta), comments


class TestWriterMatchesReference:
    @given(writable_instances())
    @settings(max_examples=300, deadline=None)
    def test_same_bytes(self, case):
        inst, comments = case
        if "origid 1 2" in comments:
            # The reader would take that comment as a map entry.
            with pytest.raises(ValueError, match="c origid map entry"):
                formats.format_instance(inst, comments)
            return
        text = formats.format_instance(inst, comments)
        assert text == reference_format_instance(inst, comments)
        assert_reads_as_reference(text)

    @pytest.mark.parametrize("blues, reds", [([1, 2], [3, 4]), ([7, 3], [9, 1, 5])])
    @pytest.mark.parametrize("same", ["blue", "red"])
    def test_same_color_edge_same_error(self, blues, reds, same):
        g = RBGraph.from_parts(blues, reds, [(b, r) for b in blues for r in reds[1:]])
        u, v = (blues if same == "blue" else reds)[:2]
        g.adj[u].add(v)
        g.adj[v].add(u)
        with pytest.raises(GraphError) as want:
            reference_format_instance(Instance(g, 1))
        with pytest.raises(GraphError) as got:
            formats.format_instance(Instance(g, 1))
        assert str(got.value) == str(want.value)


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
        from rbkernel.kernelizer import apply_rule, KernelTrace
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (1, 4), (2, 3), (2, 4)])
        rec = apply_rule(g, ("R4-case2", (1, 2)))
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
        # and Sanitize-edge among them.  kernelize, apply_rule and both of
        # parse_trace's paths (runs, and R4-case2's added= lines one by one)
        # must build four-field RuleApplications: tuple.__new__ checks no
        # field count, and tuple equality cannot tell a plain tuple from one.
        from helpers import alternating_cycle
        from test_rules import rule4_case2_witness, rule4_case3_witness

        def real(records):
            return all(type(rec) is RuleApplication and len(rec) == 4 for rec in records)

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
                replay = g.copy()
                applied = [apply_rule(replay, rec[:2]) for rec in trace.records]
                assert again.records == applied == trace.records
                assert again.fingerprint == trace.fingerprint
                assert real(trace.records) and real(applied) and real(again.records)
                tags.update(rec.tag for rec in trace.records)
        assert tags == set(RULE_TAGS)
        text = ("r\tR1\tk_delta=0\twitness=(1,2)\nr\tR3\tk_delta=-1\twitness=(3)\n"
                "r\tR4-case2\tk_delta=0\twitness=(1,2)\tadded=5\n")
        assert formats._RECORD_RUN.match(text).end() == text.index("r\tR4-case2")
        again = formats.parse_trace(text).records
        assert again == [(R1, (1, 2), 0, None), (R3, (3,), -1, None), (R4_CASE[2], (1, 2), 0, 5)]
        assert real(again)

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
        # A trace names one instance: a later fingerprint may not override it.
        "c fingerprint v=1 e=0 sha=0123456789abcdef\nc fingerprint v=9 e=9 sha=fedcba9876543210",
    ])
    def test_malformed_fingerprint_rejected(self, line):
        with pytest.raises(formats.ParseError) as err:
            formats.parse_trace("r\tR1\tk_delta=0\twitness=(1,2)\n" + line + "\n")
        assert err.value.line_no == 2 + line.count("\n")


def assert_trace_reads_as_reference(text):
    """``parse_trace`` returns the records and fingerprint that the
    line-by-line reference reader returns, or raises its error."""
    try:
        want = reference_parse_trace(text)
    except formats.ParseError as err:
        with pytest.raises(formats.ParseError) as got:
            formats.parse_trace(text)
        assert (str(got.value), got.value.line_no) == (str(err), err.line_no)
        return
    got = formats.parse_trace(text)
    assert (got.records, got.fingerprint) == (want.records, want.fingerprint)


_FINGERPRINT_LINE = "c fingerprint v=4 e=3 sha=0123456789abcdef"


def _record_line(tag, delta, ids, added=None, sep="\t"):
    fields = ["r", tag, "k_delta=" + delta, "witness=(%s)" % ",".join(ids)]
    return sep.join(fields + ([] if added is None else ["added=" + added]))


@st.composite
def trace_texts(draw):
    """Trace files: records of every tag with witnesses of its length, R4
    case 2 with ``added=<id>``, ``k_delta=-0`` and 18-digit ids, blanks and
    tabs around and between fields, blank lines, comments and fingerprint
    lines between records, every line end str.splitlines knows, maybe no
    final line end, and at most one corrupted line at a random position."""
    ids = st.one_of(st.integers(0, 99).map(str), st.just("9" * 18), st.just("0" * 18))

    def pad(line):
        pads = st.sampled_from(["", " ", "\t", " \t "])
        return draw(pads) + line + draw(pads)

    def record(tag, n=None, added=None):
        n = WITNESS_LEN[tag] if n is None else n
        if added is None and tag == R4_CASE[2]:
            added = draw(ids)
        return pad(_record_line(tag, draw(st.sampled_from(["0", "-0", "-1", "-2", "3"])),
                                [draw(ids) for _ in range(n)], added,
                                draw(st.sampled_from([" ", "\t", "  ", " \t"]))))

    lines = [record(tag) for tag in draw(st.lists(st.sampled_from(RULE_TAGS), max_size=12))]
    extras = st.one_of(st.just(""), st.sampled_from([" ", "\t", "c", "c free text", "c r R1",
                                                     _FINGERPRINT_LINE]))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), pad(draw(extras)))
    if draw(st.booleans()):
        lines.insert(0, _FINGERPRINT_LINE)
    corrupt = draw(st.none() | st.sampled_from(["long", "size", "added", "no-added", "tag", "old",
                                                "digit", "delta"]))
    if corrupt is not None:
        tag = draw(st.sampled_from(RULE_TAGS))
        n = WITNESS_LEN[tag]
        bad = {"long": lambda: _record_line(tag, "0", ["1" * 19] + ["1"] * (n - 1)),
               "size": lambda: record(tag, n=draw(st.sampled_from([0, 1, 2, 3]))),
               "added": lambda: record(tag, added=draw(st.sampled_from(["5", ""]))),
               "no-added": lambda: _record_line(R4_CASE[2], "0", ["1", "2"]),
               "tag": lambda: _record_line("R9", "0", ["1"]),
               "old": lambda: _record_line(tag, "0", ["1"] * n, "[5:(1,2)]"),
               "digit": lambda: _record_line(tag, "0", ["\u0661"] * n),
               "delta": lambda: _record_line(tag, draw(st.sampled_from(["+1", "--1", ""])),
                                             ["1"] * n)}[corrupt]()
        lines.insert(draw(st.integers(0, len(lines))), bad)
    ends = st.sampled_from(["\n"] * len(_LINE_ENDS) + _LINE_ENDS)
    text = "".join(line + draw(ends) for line in lines)
    if text and draw(st.booleans()):
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    return text


class TestTraceReaderMatchesReference:
    @given(trace_texts())
    @settings(max_examples=500, deadline=None)
    def test_same_trace_or_same_error(self, text):
        assert_trace_reads_as_reference(text)

    @given(st.text(alphabet="rR1 3k_delta=witness(),-0\n\r\t\u0661\x0b\x85"))
    @settings(max_examples=300, deadline=None)
    def test_same_on_raw_text(self, text):
        assert_trace_reads_as_reference("r R1 k_delta=0 witness=(1,2)\n" + text)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("bad", [
        None, "r R1 k_delta=0 witness=(1)", "r R1 k_delta=0 witness=(1,%s)" % ("1" * 19),
        "r R4-case2 k_delta=0 witness=(1,2) added=", "r R4-case2 k_delta=0 witness=(1,2)",
        "r R3 k_delta=-1 witness=(7) added=5",
        "r R2 k_delta=0 witness=(1,2) removed=[1:r]", _FINGERPRINT_LINE])
    @pytest.mark.parametrize("chunk, at", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 5)])
    def test_runs_longer_than_the_cap(self, end, bad, chunk, at):
        # Record runs past the cap are read a chunk at a time; a bad line, or
        # a second fingerprint, anywhere in them, at a cut included, is
        # reported on its own line, and a case-2 record between them is read
        # on its own.  The bad line goes in ``at`` lines from the start of
        # the chunk-th run.
        lines = [_FINGERPRINT_LINE]
        for i in range(1, 700):
            tag = R4_CASE[2] if i == 650 else RULE_TAGS[i % 3]
            lines.append(_record_line(tag, str(-(i % 3)),
                                      [str(i + j) for j in range(WITNESS_LEN[tag])],
                                      str(i) if tag == R4_CASE[2] else None))
        starts = chunk_first_lines(lines, end, 1, 3)
        assert starts[0] == 1 and starts[2] + 5 < 650
        if bad is not None:
            lines.insert(starts[chunk] + at, bad)
        assert_trace_reads_as_reference(end.join(lines) + end)

    def test_crlf_and_tab_lines_are_read_in_runs(self):
        text = ("r\tR1\tk_delta=0\twitness=(1,2)\r\n r R3 k_delta=-1 witness=(3) \r\n"
                "r\tR4-case2\tk_delta=0\twitness=(1,2)\tadded=5\n")
        assert formats._RECORD_RUN.match(text).end() == text.index("r\tR4-case2")

    def test_long_trace_is_read_in_runs(self, monkeypatch):
        # parse_trace reads every record line after the fingerprint in bulk,
        # each run up to the last line end within _CHUNK_CHARS of its start.
        trace = kernelize(gen_random_planar(1000, 0.7, 0)).trace
        assert R4_CASE[2] not in {rec.tag for rec in trace.records}
        text = formats.format_trace(trace)
        assert len(text) > 2 * formats._CHUNK_CHARS
        runs = []

        def match(text, *span):
            m = run.match(text, *span)
            runs.append((span[0], m and m.end()))
            return m

        run = formats._RECORD_RUN
        monkeypatch.setattr(formats, "_RECORD_RUN", types.SimpleNamespace(match=match))
        assert formats.parse_trace(text).records == trace.records
        pos, cuts = text.index("\n") + 1, [(0, None)]
        while pos < len(text):
            cuts.append((pos, text.rfind("\n", pos, pos + formats._CHUNK_CHARS) + 1))
            pos = cuts[-1][1]
        assert runs == cuts


@st.composite
def kernel_traces(draw):
    """Traces of records of every tag with a witness of its length,
    ``k_delta`` 0, -1 or -2, ids of one to 18 digits and R4 case 2 with
    ``added=<id>``, with or without a fingerprint; the empty trace among
    them."""
    ids = st.one_of(st.integers(0, 99), st.integers(0, 10**18 - 1), st.just(10**18 - 1))
    records = []
    for tag in draw(st.lists(st.sampled_from(RULE_TAGS), max_size=12)):
        witness = tuple(draw(ids) for _ in range(WITNESS_LEN[tag]))
        added = draw(ids) if tag == R4_CASE[2] else None
        records.append(RuleApplication(tag, witness, draw(st.sampled_from([0, -1, -2])), added))
    digests = st.text("0123456789abcdef", min_size=16, max_size=16)
    fingerprint = draw(st.none() | st.tuples(ids, ids, digests).map("v=%d e=%d sha=%s".__mod__))
    return KernelTrace(records, fingerprint)


class TestTraceWriterMatchesReference:
    @given(kernel_traces())
    @example(KernelTrace())
    @example(KernelTrace([], "v=4 e=3 sha=0123456789abcdef"))
    # One tag and witness length with two budget drops.
    @example(KernelTrace([RuleApplication(R3, (1,), -1, None), RuleApplication(R3, (2,), 0, None)]))
    @settings(max_examples=500, deadline=None)
    def test_same_bytes(self, trace):
        text = formats.format_trace(trace)
        assert text == reference_format_trace(trace)
        again = formats.parse_trace(text)
        assert (again.records, again.fingerprint) == (trace.records, trace.fingerprint)

    def test_kernelized_traces(self):
        # Real traces: a grid's R1-R3 records and R4 case 2's added= record.
        from test_rules import rule4_case2_witness
        for g in (gen_grid(6, 6).graph, rule4_case2_witness()):
            for k in range(len(g.blue) + 1):
                trace = kernelize(Instance(g.copy(), k)).trace
                assert formats.format_trace(trace) == reference_format_trace(trace)


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
