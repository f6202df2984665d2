"""Text formats: instances, solutions, traces, and rotation systems.

Instance files (.rbds) are DIMACS-flavored::

    c free-form comment
    p rbds <nB> <nR> <k>
    g seed <algo-id> <seed>
    e <blue-id> <red-id>

Blue ids are 1..nB, red ids nB+1..nB+nR, one edge per line, duplicates
rejected.  Graphs whose live ids do not already follow that layout are
relabeled on output; the original ids are kept in ``c origid`` comments so
solutions on the written file can be mapped back (the kernelize/solve/lift
pipeline relies on this).
"""

from __future__ import annotations

import re

from .graph import BLUE, RED, GraphError, Instance, RBGraph
from .kernelizer import WITNESS_LEN, Fingerprint, KernelTrace, RuleApplication
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


def _id(text: str) -> int:
    """An id of ASCII digits; ``int`` alone takes signs, ``_`` and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("expected ASCII digits, got %r" % text)
    return int(text)


# -- instances -----------------------------------------------------------------


def parse_instance(text: str) -> Instance:
    """Read an instance in one pass: each line is split once, and each edge
    goes straight into the adjacency sets allocated at the header, which
    also catch duplicate edges."""
    header = None
    meta: dict = {}
    origid: dict[int, int] = {}
    adj: dict[int, set[int]] = {}
    nb = last = 0
    for i, line in _tokens(text):
        parts = line.split()
        kind = parts[0]
        if kind == "e":
            if header is None:
                raise ParseError(i, "edge before header")
            if len(parts) != 3:
                raise ParseError(i, "expected 'e <blue-id> <red-id>'")
            try:
                b, r = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(i, "edge endpoints must be integers") from None
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
            if len(parts) == 4 and parts[1] == "origid":
                try:
                    origid[int(parts[2])] = int(parts[3])
                except ValueError:
                    pass  # free-form comment that merely looks like a map
            continue
        if kind == "p":
            if header is not None:
                raise ParseError(i, "duplicate header")
            if len(parts) != 5 or parts[1] != "rbds":
                raise ParseError(i, "expected 'p rbds <nB> <nR> <k>'")
            try:
                nb, nr, k = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise ParseError(i, "header fields must be integers") from None
            if nb < 0 or nr < 0:
                raise ParseError(i, "vertex counts must be non-negative")
            if k < 0:
                raise ParseError(i, "budget must be non-negative")
            header = (nb, nr, k)
            last = nb + nr
            adj = {v: set() for v in range(1, last + 1)}
            continue
        if kind == "g":
            if len(parts) != 4 or parts[1] != "seed":
                raise ParseError(i, "expected 'g seed <algo-id> <seed>'")
            meta["algo"] = parts[2]
            try:
                meta["seed"] = int(parts[3])
            except ValueError:
                raise ParseError(i, "seed must be an integer") from None
            continue
        raise ParseError(i, "unrecognized line %r" % line)
    if header is None:
        raise ParseError(0, "missing 'p rbds' header")
    # Built as RBGraph.copy does: every id and edge was checked above.
    g = RBGraph.__new__(RBGraph)
    g.blue = set(range(1, nb + 1))
    g.red = set(range(nb + 1, last + 1))
    g.adj = adj
    g._next_id = last + 1
    if origid:
        meta["origid"] = origid
    return Instance(g, header[2], meta)


def format_instance(inst: Instance, comments=()) -> str:
    """Render an instance in file layout, relabeling if its ids stray from
    blues 1..nB / reds nB+1..nB+nR and recording the map as comments.
    Edges are written blue first, by blue label and then red label; the
    layout has no same-color edges, so a graph with one is refused."""
    g = inst.graph
    adj = g.adj
    nb, nr = len(g.blue), len(g.red)
    blues, reds = sorted(g.blue), sorted(g.red)
    canonical = blues == list(range(1, nb + 1)) and reds == list(range(nb + 1, nb + nr + 1))
    label = {v: i + 1 for i, v in enumerate(blues)}
    label.update({v: nb + 1 + i for i, v in enumerate(reds)})
    lines = ["c %s" % c for c in comments]
    lines.append("p rbds %d %d %d" % (nb, nr, inst.k))
    if "algo" in inst.meta and "seed" in inst.meta:
        lines.append("g seed %s %d" % (inst.meta["algo"], inst.meta["seed"]))
    if not canonical:
        lines += ["c origid %d %d" % (label[v], v) for v in blues + reds]
    written = 0
    for b in blues:
        nbrs = adj[b]
        if not nbrs <= g.red:
            raise GraphError("blue %d has a blue neighbor; sanitize first" % b)
        head = "e %d " % label[b]
        lines += [head + str(r) for r in sorted(map(label.__getitem__, nbrs))]
        written += len(nbrs)
    if written != g.n_edges:
        raise GraphError("the graph has red-red edges; sanitize first")
    return "\n".join(lines) + "\n"


# -- solutions ------------------------------------------------------------------


def parse_solution(text: str) -> set[int]:
    for i, line in _tokens(text):
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] != "s":
            raise ParseError(i, "expected 's <id> <id> ...'")
        try:
            return {_id(x) for x in parts[1:]}
        except ValueError:
            raise ParseError(i, "solution ids must be ASCII digits") from None
    raise ParseError(0, "missing 's' line")


def format_solution(chosen) -> str:
    return "s" + "".join(" %d" % v for v in sorted(chosen)) + "\n"


# -- traces ---------------------------------------------------------------------


def _fmt_removed(removed) -> str:
    return ";".join("%d:%s:(%s)" % (v, c, ",".join(map(str, ns))) for v, c, ns in removed)


def _fmt_added(added) -> str:
    return ";".join("%d:(%s)" % (v, ",".join(map(str, ns))) for v, ns in added)


def format_trace(trace: KernelTrace) -> str:
    """One application per line, fields tab-separated; the parser accepts
    any whitespace between fields."""
    lines = []
    if trace.fingerprint is not None:
        fp = trace.fingerprint
        lines.append("c fingerprint v=%d e=%d sha=%s" % (fp.n_vertices, fp.n_edges, fp.digest))
    for rec in trace.records:
        lines.append("\t".join(
            ("r", rec.tag, "k_delta=%d" % rec.delta_k,
             "removed=[%s]" % _fmt_removed(rec.removed),
             "added=[%s]" % _fmt_added(rec.added),
             "witness=(%s)" % ",".join(map(str, rec.witness)))))
    return "\n".join(lines) + "\n"


def _ids(field: str) -> tuple:
    """The ids of a list such as ``(3,4)``."""
    if field[:1] != "(" or field[-1:] != ")":
        raise ValueError("expected (<id>,<id>,...), got %r" % field)
    body = field[1:-1]
    if body and not (body.isascii() and body.replace(",", "").isdigit()):
        raise ValueError("expected ids of ASCII digits, got %r" % field)
    return tuple(map(int, body.split(","))) if body else ()


def _items(field: str) -> list:
    """The items of a list such as ``[a;b]``."""
    if field[:1] != "[" or field[-1:] != "]":
        raise ValueError("expected [...], got %r" % field)
    body = field[1:-1]
    return body.split(";") if body else []


def _parse_removed(field: str) -> tuple:
    out = []
    for item in _items(field):
        try:
            vid, color, ns = item.split(":")
            if color != BLUE and color != RED:
                raise ValueError(color)
            out.append((_id(vid), color, _ids(ns)))
        except ValueError:
            raise ValueError("bad removed-vertex record %r" % item) from None
    return tuple(out)


def _parse_added(field: str) -> tuple:
    out = []
    for item in _items(field):
        try:
            vid, ns = item.split(":")
            out.append((_id(vid), _ids(ns)))
        except ValueError:
            raise ValueError("bad added-vertex record %r" % item) from None
    return tuple(out)


# Counts are capped at 18 digits so int() never meets its digit limit.
_FINGERPRINT = re.compile(
    r"c\s+fingerprint\s+v=([0-9]{1,18})\s+e=([0-9]{1,18})\s+sha=([0-9a-f]{16})")


def parse_trace(text: str) -> KernelTrace:
    trace = KernelTrace()
    for i, line in _tokens(text):
        parts = line.split()
        if parts[0] == "c":
            if len(parts) > 1 and parts[1] == "fingerprint":
                fp = _FINGERPRINT.fullmatch(line)
                if fp is None:
                    raise ParseError(i, "expected 'c fingerprint v=<n> e=<m> sha=<16 hex digits>'")
                trace.fingerprint = Fingerprint(int(fp[1]), int(fp[2]), fp[3])
            continue
        if parts[0] != "r" or len(parts) != 6:
            raise ParseError(i, "expected 'r <tag> k_delta=.. removed=[..] added=[..] witness=(..)'")
        tag = parts[1]
        if tag not in WITNESS_LEN:
            raise ParseError(i, "unknown rule tag %r" % tag)
        fields = {}
        for part in parts[2:]:
            key, _, val = part.partition("=")
            fields[key] = val
        try:
            delta = fields["k_delta"]
            delta = -_id(delta[1:]) if delta[:1] == "-" else _id(delta)
            removed = _parse_removed(fields["removed"])
            added = _parse_added(fields["added"])
            witness = _ids(fields["witness"])
        except KeyError as exc:
            raise ParseError(i, "missing field %s" % exc) from None
        except ValueError as exc:
            raise ParseError(i, "bad field value: %s" % exc) from None
        if len(witness) != WITNESS_LEN[tag]:
            raise ParseError(i, "%s needs a witness of %d vertices, got %d"
                             % (tag, WITNESS_LEN[tag], len(witness)))
        trace.records.append(RuleApplication(tag, removed, added, witness, delta))
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
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError(i, "header fields must be integers") from None
            continue
        if parts[0] == "v":
            if header is None:
                raise ParseError(i, "vertex line before header")
            if len(parts) < 2 or not parts[1].endswith(":"):
                raise ParseError(i, "expected 'v <id>: <nbr> <nbr> ...'")
            try:
                vid = int(parts[1][:-1])
                nbrs = [int(x) for x in parts[2:]]
            except ValueError:
                raise ParseError(i, "vertex ids must be integers") from None
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
    except Exception as exc:
        raise ParseError(0, "invalid rotation system: %s" % exc) from None
    if pg.n_edges != m:
        raise ParseError(0, "header says %d edges, rotations define %d" % (m, pg.n_edges))
    return pg

