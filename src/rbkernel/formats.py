"""Text formats: instances, solutions, traces, and rotation systems.

Instance files (.rbds) are DIMACS-flavored::

    c free-form comment
    p rbds <nB> <nR> <k>
    g seed <algo-id> <seed>
    e <blue-id> <red-id>

Blue ids are 1..nB, red ids nB+1..nB+nR, one edge per line, duplicates
rejected.  Graphs whose live ids do not already follow that layout are
relabeled on output, in id order within each color; the original ids are
kept in ``c origid`` comments, and ``in_original_ids`` gives the graph
back under them, so solutions on the written file can be mapped back (the
kernelize/solve/lift pipeline relies on this).  The writer refuses with
``ValueError`` whatever the reader would refuse or misread.  Lines end
where ``str.splitlines`` ends them.  Both readers take the lines the writer
writes in bulk, up to the last line end within ``_CHUNK_CHARS`` characters
at a time, and every other line, and every chunk that fails a check, line
by line; so every error comes from the line checks and names its line.

Trace files hold a fingerprint of the instance they were cut from and
one record per rule application, in order::

    c fingerprint v=<n> e=<m> sha=<16 hex digits>
    r <tag> k_delta=<d> witness=(<id>,...)
    r R4-case2 k_delta=0 witness=(<v>,<w>) added=<id>

A record carries what a checking replay needs to re-derive the step from
the graph it reaches, and no removed vertex: the replay takes those from
the graph.  Only R4 case 2 adds a vertex, so only its record names one.  A
line of the older format, which listed ``removed=[..]`` and ``added=[..]``,
is a parse error that says so.

Every id, count and budget in the four formats (instance, plane, solution
and trace files) is one to ``_ID_DIGITS`` = 18 ASCII digits: ``int`` alone
would also take a sign, ``_`` and other scripts' digits, and the cap keeps
it below its digit limit.  Only a trace's ``k_delta`` and the ``g seed``
value may start with ``-``.
"""

from __future__ import annotations

import re

from .graph import GraphError, Instance, RBGraph
from .kernelizer import R4_CASE, WITNESS_LEN, Fingerprint, KernelTrace, RuleApplication
from .planar import PlaneGraph


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


def _tokens(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        yield i, line


# The most digits an id, count or budget may have; _ID is the rule as a regex.
_ID_DIGITS = 18
_ID = "[0-9]{1,%d}" % _ID_DIGITS
# One past the largest id, count or budget a file may hold.
_ID_LIMIT = 10**_ID_DIGITS


def _is_id(text: str) -> bool:
    """The ``_ID`` rule with str methods, which take half the time of a match."""
    return text.isascii() and text.isdigit() and len(text) <= _ID_DIGITS


def _is_origid(parts: list) -> bool:
    """Whether the fields of a ``c`` line are a ``c origid <label> <id>`` map
    entry rather than a free-form comment."""
    return len(parts) == 4 and parts[1] == "origid" and _is_id(parts[2]) and _is_id(parts[3])


# -- instances -----------------------------------------------------------------

# The most vertices an instance header may declare.  The reader allocates an
# adjacency set for each before it reads an edge, and a label for each at
# its first chunk of edge lines if the text is long enough to name each one,
# so the cap bounds the memory a header can claim.
MAX_VERTICES = 1_000_000


def check_vertex_count(n: int) -> None:
    """Refuse an instance of more vertices than the reader takes."""
    if n > MAX_VERTICES:
        raise ValueError("%d vertices, more than the %d an instance file may declare"
                         % (n, MAX_VERTICES))


def check_seed(seed: int) -> None:
    """Refuse a ``g seed`` value the reader refuses."""
    if not -_ID_LIMIT < seed < _ID_LIMIT:
        raise ValueError("seed %d has more than %d digits" % (seed, _ID_DIGITS))


# Where str.splitlines ends a line: "\r\n" is one line end.
_LINE = re.compile(r"([^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)"
                   r"(?:\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029])?")

# An instance chunk runs from its first line to the first line that starts
# with another tag, or to the last line end within _CHUNK_CHARS characters.
# The cap bounds what either reader holds at once: the chunk and its fields,
# and for a trace the regex engine's backtracking state, which grows with
# the lines one match takes.
_CHUNK_CHARS = 4096
_EDGE_CHUNK_END = re.compile(r"\n(?!e)")
_ORIGID_CHUNK_END = re.compile(r"\n(?!c)")


def _chunk(text: str, pos: int, chunk_end, width: int):
    """Cut the chunk of lines at ``pos`` and split it.  Returns the chunk's
    end, and its fields if every line ends in "\\n" or "\\r\\n", where
    ``str.splitlines`` ends it too, and the chunk splits into ``width``
    fields a line in all; otherwise None in their place."""
    end = text.rfind("\n", pos, pos + _CHUNK_CHARS) + 1
    if not end:
        return pos, None
    cut = chunk_end.search(text, pos, end - 1)
    if cut is not None:
        end = cut.end()
    chunk = text[pos:end]
    if (not chunk.isascii() or "\x0b" in chunk or "\x0c" in chunk or "\x1c" in chunk
            or "\x1d" in chunk or "\x1e" in chunk
            or "\r" in chunk and chunk.count("\r") != chunk.count("\r\n")):
        return end, None
    fields = chunk.split()
    if len(fields) != width * chunk.count("\n"):
        return end, None
    return end, fields


def parse_instance(text: str) -> Instance:
    """Read an instance in one pass over the text.  Lines in the writer's
    layout are taken a chunk at a time (``_chunk``).  A chunk of edge lines
    is read in bulk when it is ``e <id> <id>`` line after line, each id found
    in a table from label to id for 1..nB+nR (which refuses leading zeros,
    other digits and ids out of range at once) and every blue below every
    red.  The table is made only if the text after the header has at least
    nB+nR characters, which a file whose every vertex has an edge has, each
    edge line naming two ids in six characters or more; a shorter text is
    read line by line.  Then each edge goes straight into the adjacency sets
    allocated at the header, which also catch duplicate edges.  A chunk of
    ``c origid <id> <id>`` lines is read in bulk the same way."""
    header = None
    meta: dict = {}
    origid: dict[int, int] = {}
    adj: dict[int, set[int]] = {}
    labels = None  # label -> id for 1..nB+nR, made at the first chunk of edge lines
    nb = last = 0
    pos = i = 0  # where the next line starts, and the number of the last line read
    lines_from = 0  # lines before this point are read line by line
    # Every line of a chunk starts with its tag, "e" or "c", and a chunk is
    # taken only if no field but a tag starts with that letter: so a tag at
    # every width-th field, and width fields a line in all, mean width
    # fields on every line.
    while pos < len(text):
        if pos >= lines_from:
            if text[pos] == "e" and header is not None:
                lines_from, fields = _chunk(text, pos, _EDGE_CHUNK_END, 3)
                if fields is not None and fields[::3].count("e") * 3 == len(fields):
                    if labels is None:
                        labels = dict(zip(map(str, adj), adj))
                    try:
                        bs = list(map(labels.__getitem__, fields[1::3]))
                        rs = list(map(labels.__getitem__, fields[2::3]))
                    except KeyError:
                        bs = None
                    if bs is not None and max(bs) <= nb < min(rs):
                        edges = zip(bs, rs)
                        for b, r in edges:
                            reds = adj[b]
                            if r in reds:
                                # The edges left unread say which line of the chunk this is.
                                raise ParseError(i + len(bs) - sum(1 for _ in edges),
                                                 "duplicate edge (%d, %d)" % (b, r))
                            reds.add(r)
                            adj[r].add(b)
                        i += len(bs)
                        pos = lines_from
                        continue
            elif text.startswith("c origid ", pos):
                lines_from, fields = _chunk(text, pos, _ORIGID_CHUNK_END, 4)
                n = len(fields) // 4 if fields is not None else 0
                if n and fields[::4].count("c") == fields[1::4].count("origid") == n:
                    ids = fields[2::4] + fields[3::4]
                    if "".join(ids).isdigit() and max(map(len, ids)) <= _ID_DIGITS:
                        origid.update(zip(map(int, fields[2::4]), map(int, fields[3::4])))
                        i += n
                        pos = lines_from
                        continue
        m = _LINE.match(text, pos)
        pos = m.end()
        i += 1
        line = m[1]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "e":
            if header is None:
                raise ParseError(i, "edge before header")
            if len(parts) != 3:
                raise ParseError(i, "expected 'e <blue-id> <red-id>'")
            b, r = parts[1], parts[2]
            if not (line.isascii() and _is_id(b) and _is_id(r)):
                raise ParseError(i, "edge endpoints must be ids of ASCII digits")
            b, r = int(b), int(r)
            if not 1 <= b <= nb:
                raise ParseError(i, "%d is not a blue id (1..%d)" % (b, nb))
            if not nb < r <= last:
                raise ParseError(i, "%d is not a red id (%d..%d)" % (r, nb + 1, last))
            reds = adj[b]
            if r in reds:
                raise ParseError(i, "duplicate edge (%d, %d)" % (b, r))
            reds.add(r)
            adj[r].add(b)
            continue
        if kind == "c":
            # Otherwise a free-form comment that merely looks like a map.
            if _is_origid(parts):
                origid[int(parts[2])] = int(parts[3])
            continue
        if kind == "p":
            if header is not None:
                raise ParseError(i, "duplicate header")
            if len(parts) != 5 or parts[1] != "rbds":
                raise ParseError(i, "expected 'p rbds <nB> <nR> <k>'")
            if not all(map(_is_id, parts[2:])):
                raise ParseError(i, "header fields must be counts of ASCII digits")
            nb, nr, k = map(int, parts[2:])
            if nb + nr > MAX_VERTICES:
                raise ParseError(i, "header declares %d vertices, more than %d"
                                 % (nb + nr, MAX_VERTICES))
            header = (nb, nr, k)
            last = nb + nr
            adj = {v: set() for v in range(1, last + 1)}
            if len(text) - pos < last:  # too short for a label table
                lines_from = len(text)
            continue
        if kind == "g":
            if len(parts) != 4 or parts[1] != "seed":
                raise ParseError(i, "expected 'g seed <algo-id> <seed>'")
            if not _is_id(parts[3].removeprefix("-")):
                raise ParseError(i, "seed must be ASCII digits after an optional '-'")
            meta["algo"] = parts[2]
            meta["seed"] = int(parts[3])
            continue
        raise ParseError(i, "unrecognized line %r" % line.strip())
    if header is None:
        raise ParseError(0, "missing 'p rbds' header")
    # Every id and edge was checked above.
    g = RBGraph._trusted(set(range(1, nb + 1)), set(range(nb + 1, last + 1)), adj, last + 1)
    if origid:
        meta["origid"] = origid
    return Instance(g, header[2], meta)


def format_instance(inst: Instance, comments=()) -> str:
    """Render an instance in file layout, relabeling if its ids stray from
    blues 1..nB / reds nB+1..nB+nR and recording the map as comments.
    Labels follow id order within each color, so a blue's reds sorted by
    id are sorted by label too: edges are written blue first, by blue label
    and then red label, from label strings made once per vertex.  The
    layout has no same-color edges, so a graph with one is refused.

    Before it writes an edge, it refuses with ``ValueError`` what the
    reader would refuse or misread: more than ``MAX_VERTICES`` vertices, a
    budget outside 0..10^18-1, a ``g seed`` line whose algo id is not one
    blank-free token or whose seed has more than 18 digits, a comment with
    a line break or one that reads back as a ``c origid`` map entry, and on
    a relabeled graph an original id of more than 18 digits, which its
    ``c origid`` line would not give back."""
    g = inst.graph
    adj = g.adj
    meta = inst.meta
    nb, nr = len(g.blue), len(g.red)
    check_vertex_count(nb + nr)
    if not 0 <= inst.k < _ID_LIMIT:
        raise ValueError("budget %d must be non-negative, of at most %d digits"
                         % (inst.k, _ID_DIGITS))
    seeded = "algo" in meta and "seed" in meta
    if seeded:
        algo = meta["algo"]
        if not (isinstance(algo, str) and algo.split() == [algo]):
            raise ValueError("algo id %r is not one token without blanks" % (algo,))
        check_seed(meta["seed"])
    blues, reds = sorted(g.blue), sorted(g.red)
    canonical = blues == list(range(1, nb + 1)) and reds == list(range(nb + 1, nb + nr + 1))
    if not canonical and (top := max(blues[-1:] + reds[-1:])) >= _ID_LIMIT:
        raise ValueError("id %d has more than %d digits, too many for a c origid line"
                         % (top, _ID_DIGITS))
    lines = ["c %s" % c for c in comments]
    for line in lines:
        if line.splitlines() != [line]:
            raise ValueError("comment %r holds a line break" % line[2:])
        if _is_origid(line.split()):
            raise ValueError("comment %r would read back as a c origid map entry" % line[2:])
    lines.append("p rbds %d %d %d" % (nb, nr, inst.k))
    if seeded:
        lines.append("g seed %s %d" % (algo, meta["seed"]))
    labels = list(map(str, range(1, nb + nr + 1)))
    if not canonical:
        lines += ["c origid " + label + " " + str(v) for label, v in zip(labels, blues + reds)]
    red_label = dict(zip(reds, labels[nb:]))
    try:
        for label, b in zip(labels, blues):
            nbrs = adj[b]
            if nbrs:
                head = "e " + label + " "
                lines.append(head + ("\n" + head).join(map(red_label.__getitem__, sorted(nbrs))))
    except KeyError:
        raise GraphError("blue %d has a blue neighbor; sanitize first" % b) from None
    # The edges at the blues are all at reds, so more at the reds is a red-red edge.
    if sum(map(len, map(adj.__getitem__, blues))) != sum(map(len, map(adj.__getitem__, reds))):
        raise GraphError("the graph has red-red edges; sanitize first")
    return "\n".join(lines) + "\n"


def in_original_ids(inst: Instance) -> RBGraph:
    """The instance's graph under the ids its ``c origid`` comments give
    back: the inverse of ``format_instance``'s relabeling.  Raises
    ``GraphError`` if two labels name one id."""
    origid = inst.meta.get("origid", {})
    g = inst.graph
    return RBGraph.from_parts([origid.get(v, v) for v in g.blue],
                              [origid.get(v, v) for v in g.red],
                              [(origid.get(u, u), origid.get(v, v)) for u, v in g.edges()])


# -- solutions ------------------------------------------------------------------


def parse_solution(text: str) -> set[int]:
    """The ids of the file's one ``s`` line; besides it only comments."""
    chosen = None
    for i, line in _tokens(text):
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] != "s":
            raise ParseError(i, "expected 's <id> <id> ...'")
        if chosen is not None:
            raise ParseError(i, "second 's' line")
        if not all(map(_is_id, parts[1:])):
            raise ParseError(i, "solution ids must be ASCII digits")
        chosen = set(map(int, parts[1:]))
    if chosen is None:
        raise ParseError(0, "missing 's' line")
    return chosen


def format_solution(chosen) -> str:
    return "s" + "".join(" %d" % v for v in sorted(chosen)) + "\n"


# -- traces ---------------------------------------------------------------------


def format_fingerprint(fp: Fingerprint) -> str:
    """The fields of a trace's ``c fingerprint`` line."""
    return "v=%d e=%d sha=%s" % (fp.n_vertices, fp.n_edges, fp.digest)


def format_trace(trace: KernelTrace) -> str:
    """One application per line, fields tab-separated in this order; the
    parser takes any whitespace between fields, but no other order.  A
    record's line is its witness, a tuple as in every record the library
    builds, put into a ``%`` template of everything else up to
    ``witness=(..)``, made once per tag, ``k_delta`` and witness length,
    with ``added=<id>`` appended for the records that name one."""
    lines = []
    if trace.fingerprint is not None:
        lines.append("c fingerprint " + format_fingerprint(trace.fingerprint))
    heads: dict = {}
    for tag, witness, delta, added in trace.records:
        key = tag, delta, len(witness)
        head = heads.get(key)
        if head is None:
            head = heads[key] = "r\t%s\tk_delta=%d\twitness=(%s)" % (
                tag, delta, ",".join(["%s"] * len(witness)))
        line = head % witness
        lines.append(line if added is None else "%s\tadded=%d" % (line, added))
    return "\n".join(lines) + "\n"


# The record line of format_trace, field by field.  A match leaves only
# conversions that cannot fail.
_IDS = r"\((?:%s(?:,%s)*)?\)" % (_ID, _ID)
_RECORD = re.compile(r"r\s+(\S+)\s+k_delta=(-?%s)\s+witness=(%s)(?:\s+added=(%s))?"
                     % (_ID, _IDS, _ID))
_FINGERPRINT = re.compile(r"c\s+fingerprint\s+v=(%s)\s+e=(%s)\s+sha=([0-9a-f]{16})" % (_ID, _ID))


def _tagged(n: int) -> str:
    """The tag and fields of a record whose tag takes a witness of n ids."""
    tags = [t for t, size in WITNESS_LEN.items() if size == n and t != R4_CASE[2]]
    return r"(?:%s)[ \t]+k_delta=-?%s[ \t]+witness=\(%s\)" % (
        "|".join(map(re.escape, tags)), _ID, ",".join([_ID] * n))


# The witness lengths that _RUN_FIELDS captures id by id, so records of them
# may come in runs; a record of another length is read line by line.
_RUN_LENGTHS = sorted({n for n in WITNESS_LEN.values() if n in (1, 2)})

# Runs of record lines that the line-by-line checks accept as they stand:
# each tag with a witness of its length, fields apart by blanks and tabs,
# each line ended by "\n" or "\r\n".  R4 case 2 records, which end in
# added=, are read line by line.  parse_trace matches a run only up to the
# last line end within _CHUNK_CHARS of its start.
_RECORD_RUN = re.compile(r"(?:[ \t]*r[ \t]+(?:%s)[ \t]*\r?\n)+"
                         % "|".join(map(_tagged, _RUN_LENGTHS)))
# The tag, k_delta and witness ids of each record of a run, the second id
# empty for a witness of one.
_RUN_FIELDS = re.compile(r"r[ \t]+(\S+)[ \t]+k_delta=(\S+)[ \t]+witness=\((%s)(?:,(%s))?\)"
                         % (_ID, _ID))


def parse_trace(text: str) -> KernelTrace:
    """Read a trace in one pass over the text.  A run of well-formed record
    lines without ``added=`` is read in bulk, one match and one ``findall``
    that captures each field, ids included, so a record takes only ``int``
    calls and one ``RuleApplication._make``; every other line is read on its
    own, so each error names its line."""
    trace = KernelTrace()
    records = trace.records
    make = RuleApplication._make
    pos = i = 0  # where the next line starts, and the number of the last line read
    while pos < len(text):
        run = _RECORD_RUN.match(text, pos, text.rfind("\n", pos, pos + _CHUNK_CHARS) + 1)
        if run is not None:
            found = _RUN_FIELDS.findall(run[0])
            records += [make((tag, (int(v), int(w)) if w else (int(v),), int(delta), None))
                        for tag, delta, v, w in found]
            i += len(found)
            pos = run.end()
            continue
        m = _LINE.match(text, pos)
        pos = m.end()
        i += 1
        line = m[1].strip()
        if not line:
            continue
        m = _RECORD.fullmatch(line)
        if m is None:
            parts = line.split(None, 2)
            if parts[0] != "c":
                if "removed=" in line or "added=[" in line:
                    raise ParseError(i, "a record of the old trace format: records no longer "
                                        "list removed=[..] and added=[..]; kernelize the "
                                        "instance again to write this format")
                raise ParseError(i, "expected 'r <tag> k_delta=.. witness=(..)', "
                                    "then 'added=<id>' for %s" % R4_CASE[2])
            if len(parts) > 1 and parts[1] == "fingerprint":
                fp = _FINGERPRINT.fullmatch(line)
                if fp is None:
                    raise ParseError(i, "expected 'c fingerprint v=<n> e=<m> sha=<16 hex digits>'")
                if trace.fingerprint is not None:
                    raise ParseError(i, "second 'c fingerprint' line")
                trace.fingerprint = Fingerprint(int(fp[1]), int(fp[2]), fp[3])
            continue
        tag, delta, ids, added = m.groups()
        size = WITNESS_LEN.get(tag)
        if size is None:
            raise ParseError(i, "unknown rule tag %r" % tag)
        witness = tuple(map(int, ids[1:-1].split(","))) if len(ids) > 2 else ()
        if len(witness) != size:
            raise ParseError(i, "%s needs a witness of %d vertices, got %d"
                             % (tag, size, len(witness)))
        if (added is None) == (tag == R4_CASE[2]):
            raise ParseError(i, "%s records and no others end with 'added=<id>'" % R4_CASE[2])
        records.append(make((tag, witness, int(delta), None if added is None else int(added))))
    return trace


# -- rotation systems -------------------------------------------------------------


def parse_plane(text: str) -> PlaneGraph:
    header = None
    rotation: dict[int, list[int]] = {}
    for i, line in _tokens(text):
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] == "p":
            if header is not None:
                raise ParseError(i, "duplicate header")
            if len(parts) != 4 or parts[1] != "plane":
                raise ParseError(i, "expected 'p plane <n> <m>'")
            if not all(map(_is_id, parts[2:])):
                raise ParseError(i, "header fields must be counts of ASCII digits")
            header = tuple(map(int, parts[2:]))
            continue
        if parts[0] == "v":
            if header is None:
                raise ParseError(i, "vertex line before header")
            if len(parts) < 2 or not parts[1].endswith(":"):
                raise ParseError(i, "expected 'v <id>: <nbr> <nbr> ...'")
            ids = [parts[1][:-1], *parts[2:]]
            if not all(map(_is_id, ids)):
                raise ParseError(i, "vertex ids must be ASCII digits")
            vid, *nbrs = map(int, ids)
            if vid in rotation:
                raise ParseError(i, "duplicate rotation for vertex %d" % vid)
            rotation[vid] = nbrs
            continue
        raise ParseError(i, "unrecognized line %r" % line)
    if header is None:
        raise ParseError(0, "missing 'p plane' header")
    n, m = header
    if len(rotation) != n:
        raise ParseError(0, "header says %d vertices, got %d rotation lines" % (n, len(rotation)))
    try:
        pg = PlaneGraph(rotation)
    except GraphError as exc:
        raise ParseError(0, "invalid rotation system: %s" % exc) from None
    if pg.n_edges != m:
        raise ParseError(0, "header says %d edges, rotations define %d" % (m, pg.n_edges))
    return pg

