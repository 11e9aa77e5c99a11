"""The output text of the CLI: paths, listings and DOT, made in pieces.

One rule sizes every piece: it holds as many units, rows of a listing,
vertices or edge indices of a path, entries of `cf`, slopes of
`exceptional`, cells of a DOT triangle, as _BYTES_PER_WRITE holds at
the _size of the largest unit, and one at least (per_write).  A short
range of fan members, at most _SHORT and not integers, is made a member
at a time and sized by its widest text, so that it costs what its
members cost; a longer one, or a range of integers, is sized from the
bit lengths of its end members and made in % operations over its runs
(format_members); the rule holds for both.
One rule joins pieces: the ASCII texts of `cf`, `exceptional` and
`sweep` and the invisible edges of a DOT triangle are joined as they
come and cut into writes of exactly _BYTES_PER_WRITE characters, each
cut from the pending texts and the head of the text that fills it
(_joined), so an answer that fits in one write is one; an answer of
`cf` of at most one write's worth of entries is one join.  Paths and
the cells of a DOT triangle are written a piece at a time.  Listings
write per_write rows at a time instead:
such a write is one join over runs of rows, with no text made per row,
where a cut at a character would copy each byte once more, and their
rows may hold the arrow →, two bytes a character.  So no write keeps
more than _BYTES_PER_WRITE bytes in its string, besides one unit: half
of glibc's default mmap threshold (128 KiB), so that the string and its
UTF-8 copy are not mapped afresh for every write.  No text is made per
row where rows share their parts: a listing row is P's text and a
suffix, the verdict of `classify` or the edges from 1/n on in the text
of `enumerate r`, and each run of rows with one suffix is joined with
the suffix in the separator (listing).  The library does not import
this module; only the CLI does.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from collections.abc import Iterator
from functools import lru_cache, partial

from .slopes import Slope, _text
from .paths import blocks
from .tori import ShuffleClass, feature_column
from .atlas import Fillability, TrianglePosition, cell_tallies, n_of

_BYTES_PER_WRITE = 1 << 16

# format_members makes a range of at most this many fractions a member
# at a time (its docstring gives the measured crossover)
_SHORT = 8

# the fan of inf, (pivot, base) as (den, num): its members 0 + k*inf are the integers k
_INTEGERS = (0, 1), (1, 0)

# the s + 1 texts of a signed block of s edges are kept where they hold
# at most this many characters, and made when read where they hold more:
# a bound on memory, chosen from the size of the input, not on a write
_KEPT_CHARS = 1 << 22

_DOT_COLORS = {
    "Stein": "palegreen",
    "StrongNotExact": "lightcoral",
    "StrongSteinConditional": "khaki",
    "NotCoveredByPaper": "lightgray",
}


# one encoder for every call: json.dumps with separators builds a new one each time
_json = json.JSONEncoder(separators=(",", ":")).encode


def _size(text: str) -> int:
    """The bytes that CPython keeps text in, but for the header: one per
    character of an ASCII text, two per character of a text that holds
    the arrow →.  Its UTF-8 copy, three bytes to an arrow, is no larger
    than one and a half times that."""
    return len(text) * (1 if text.isascii() else 2)


def per_write(unit: str) -> int:
    """Units to a write, none larger than unit: as many as
    _BYTES_PER_WRITE holds at its _size, one at least."""
    return max(1, _BYTES_PER_WRITE // _size(unit))


def _fill(template: str, spec: str, columns: list) -> str:
    """template once for each member, spec in place of each "%s",
    joined, and filled in one % operation: each spec of member i takes
    the i-th number of every column."""
    width, size = template.count("%s") * len(columns), len(columns[0])
    args = columns[0]
    if width > 1:
        args = [0] * (width * size)
        for i in range(width):
            args[i::width] = columns[i % len(columns)]
    return (template.replace("%s", spec) * size) % tuple(args)


def format_members(template: str, pivot, base, lo: int, hi: int) -> Iterator[str]:
    """template % (t, ..., t) for the text t of each member base +
    k*pivot, k = lo..hi-1, of a fan, per_write of the widest member to a
    text.  A range of at most _SHORT members is made a member at a time
    and sized by its widest text, but on the fan of inf, the integers.
    A longer one, or a range of integers, is sized before it is made: a
    member's num and den are linear in k, so they are largest in
    absolute value at an end member, and the bits of those, at most
    0.30103 decimal digits a bit and one more digit for each of the two,
    a "/" and a sign bound the text of every member; then each text is
    made in at most three % operations (_format_members).  At 8 members
    the two ways cost about the same, in one process on Python 3.11 and a
    shared 2-vCPU Xeon: 5.2 against 6.1 µs on the fan of 1/3, 5.4 against
    4.9 µs on the fan of 0; fewer members cost less a member at a time,
    down to 2.2 against 4.0 µs for one member of the fan of 0.  The
    integers are one % operation, which costs less from about 4 members
    on: 3.2 against 4.3 µs at 8."""
    (pd, pn), (ud, un) = pivot, base
    if pd and hi - lo <= _SHORT:
        texts = [template.replace("%s", _text(ud + k * pd, un + k * pn)) for k in range(lo, hi)]
        step = per_write(max(texts, key=len, default=template))
        for a in range(0, len(texts), step):
            yield "".join(texts[a : a + step])
        return
    bits = (max(abs(un + lo * pn), abs(un + (hi - 1) * pn)).bit_length()
            + max(abs(ud + lo * pd), abs(ud + (hi - 1) * pd)).bit_length())
    step = per_write(template.replace("%s", "x" * (bits * 30103 // 100000 + 4)))
    for a in range(lo, hi, step):
        yield _format_members(template, pivot, base, a, min(a + step, hi))


def _format_members(template: str, pivot, base, lo: int, hi: int) -> str:
    """template % (t, ..., t) for the text t of each member base +
    k*pivot, k = lo..hi-1, of a fan, joined.  The denominators d are
    linear in k, so the members fall in at most three runs, each made in
    one % operation: fractions with |d| > 1, whose d have one sign, then
    the members with |d| <= 1, the integers n*d and inf, made one by one,
    then fractions again.  The run with |d| <= 1 is at most three members, or, on the
    fan of inf (pd == 0, so d = ud = +-1), the whole block."""
    (pd, pn), (ud, un) = pivot, base
    if not pd:
        return _fill(template, "%d", [range(ud * (un + lo * pn), ud * (un + hi * pn), ud * pn)])
    sign = 1 if pd > 0 else -1
    # |ud + k*pd| <= 1 exactly where a <= k < b
    a = min(max(lo, -((1 + sign * ud) // (sign * pd))), hi)
    b = max(min(hi, (1 - sign * ud) // (sign * pd) + 1), a)
    mid = "".join(template.replace("%s", _text(ud + k * pd, un + k * pn)) for k in range(a, b))
    return _fractions(template, pivot, base, lo, a) + mid + _fractions(template, pivot, base, b, hi)


def _fractions(template: str, pivot, base, lo: int, hi: int) -> str:
    """_format_members on members k = lo..hi-1 whose denominators exceed
    1 in absolute value and share a sign: fractions n/d after a change of
    sign.  On the fan of 0 (pn == 0) every n is the same, +-1, since
    cross(base, pivot) = -un*pd = 1, and the template holds it."""
    if lo == hi:
        return ""
    (pd, pn), (ud, un) = pivot, base
    sign = 1 if ud + lo * pd > 0 else -1
    dens = range(sign * (ud + lo * pd), sign * (ud + hi * pd), sign * pd)
    if not pn:
        return _fill(template, "%d/%%d" % (sign * un), [dens])
    return _fill(template, "%d/%d", [range(sign * (un + lo * pn), sign * (un + hi * pn), sign * pn), dens])


# the start, each inner vertex and the end of a path, per format; the
# text holds the arrow →, two bytes a character (_size)
_PATH_TEMPLATES = {
    "text": ("%s", " → %s", " → %s"),
    "json": ('{"vertices":["%s"', ',"%s"', ',"%s"],"blocks":'),
    "dot": ('digraph farey_path {\n  rankdir=LR;\n  node [shape=ellipse];\n  "%s" -> "',
            '%s";\n  "%s" -> "', '%s";\n}'),
}


def path_text(path, fmt: str) -> Iterator[str]:
    """The text of the path in pieces, with no newline at the end: text,
    the vertices joined by arrows; json, {"vertices": [...], "blocks":
    [[1], [2, 3, 4]]}, with one-based edge indices; or dot.  The inner
    vertices are members of the fans of the blocks, and the edge indices
    members of the fan of inf (format_members)."""
    start, template, end = _PATH_TEMPLATES[fmt]
    yield start % path.start
    vectors = path.block_vectors
    for j, (pivot, base, m) in enumerate(vectors):
        # the last member of all is the end
        yield from format_members(template, pivot, base, 1, m + 1 if j < len(vectors) - 1 else m)
    yield end % path.end
    if fmt == "json":
        e = 1
        for size in blocks(path).sizes:
            yield ("],[%d" if e > 1 else "[[%d") % e
            yield from format_members(",%s", *_INTEGERS, e + 1, e + size)
            e += size
        yield "]]}"


def cf_text(fmt: str, x: Slope, runs) -> Iterator[str]:
    """The text of `cf x` from the runs (entry, count) that cf_runs
    yields, read once, [a0,...,an] or {"x": ..., "entries": [...]}: an
    answer of at most step = per_write(",2") entries is made in one join,
    a string product per run; a longer one is made a piece at a time, a
    piece one entry, or step entries of a run of 2s, one string product;
    every run of more than one entry is a run of 2s.  The step + 1 runs
    read ahead to tell the two apart are about as many as the pieces
    that _joined keeps pending for one write.  The one join costs less
    at every length, in one process on Python 3.11 and a shared 2-vCPU
    Xeon: 1.2 against 2.3 µs at 1 run, 2.4 against 6.7 µs at 8, 20
    against 66 µs at 100, in text."""
    step = per_write(",2")
    head, tail = ('{"x":"%s","entries":[' % x, "]}\n") if fmt == "json" else ("[", "]\n")
    first = list(itertools.islice(runs, step + 1))  # reads the first run: a bad x raises before any output
    if sum(count for _, count in first) <= step:
        return _joined([head + "".join([",%d" % entry * count for entry, count in first])[1:] + tail])
    pieces = (",%d" % entry * min(step, count - a) for entry, count in itertools.chain(first, runs)
              for a in range(0, count, step))
    return _joined(itertools.chain((head, next(pieces)[1:]), pieces, (tail,)))


def exceptional_text(fmt: str, obj: dict, pivot, base, ranges) -> Iterator[str]:
    """The text of `exceptional`, the fan members base + j*pivot over
    ranges in turn (format_members): space-separated, or obj with them
    as its last key."""
    head, template, tail = ((_json(obj)[:-1] + ',"exceptional":[', ',"%s"', "]}\n") if fmt == "json"
                            else ("", " %s", "\n"))
    pieces = (piece for r in ranges if r for piece in format_members(template, pivot, base, r.start, r.stop))
    return _joined(itertools.chain((head, next(pieces, " ")[1:]), pieces, (tail,)))


def emit_dot_triangle(r: Slope) -> Iterator[str]:
    """DOT text of r's verdict triangle in pieces, one % operation for
    each piece of a run of cells in one position (format_members on the
    integers), and no newline at the end; r is checked before the first
    piece."""
    n = n_of(r)
    styles = {}  # label text and colour of a cell, per position
    for pos, found in cell_tallies(r).items():
        counts = sorted((status.value, cnt) for status, cnt in found.items())
        color = _DOT_COLORS[counts[0][0]] if len(counts) == 1 else "orange"
        styles[pos] = ("\\n".join("%s %d" % sc for sc in counts), color)
    yield 'digraph classification_triangle {\n  label="surgery coefficient %s";' % r
    yield "\n  node [shape=box, style=filled];"
    node = '\n  "k%d_l%%s" [label="k=%d l=%%s\\n%s", fillcolor="%s"];'
    for k, lo, hi, pos in TrianglePosition.runs(n):
        yield from format_members(node % ((k, k) + styles[pos]), *_INTEGERS, lo, hi)
    for k in range(1, n + 1):
        yield "\n  { rank=same;"
        yield from format_members(' "k%d_l%%s";' % k, *_INTEGERS, 0, n - k + 1)
        yield " }"
    yield from _joined('\n  "k%d_l0" -> "k%d_l0" [style=invis];' % (k, k + 1) for k in range(1, n))
    yield "\n}"


_SWEEP_COLUMNS = ["total"] + [status.json_key for status in Fillability]


def sweep_text(fmt: str, tallies) -> Iterator[str]:
    """The text of `sweep` from its pairs (r, tallies of r by the keys of
    _SWEEP_COLUMNS), read as they come: a JSON array of objects, or TSV
    rows under a header."""
    if fmt == "json":
        rows = (("," if i else "") + _json({"r": str(r), **obj}) for i, (r, obj) in enumerate(tallies))
        return _joined(itertools.chain(["["], rows, ["]\n"]))
    rows = ("\t".join([str(r)] + [str(obj.get(c, 0)) for c in _SWEEP_COLUMNS]) + "\n" for r, obj in tallies)
    return _joined(itertools.chain(["r\t%s\n" % "\t".join(_SWEEP_COLUMNS)], rows))


def _joined(texts) -> Iterator[str]:
    """ASCII texts joined as they come and cut into writes of exactly
    _BYTES_PER_WRITE characters, then one write of the rest, if any: a
    write is the pending texts and the head of the text that fills it,
    and the rest of that text is pending."""
    out, size = [], 0
    for text in texts:
        a, size = 0, size + len(text)  # text[a:] is not written yet
        while size >= _BYTES_PER_WRITE:
            b, size = len(text) - size + _BYTES_PER_WRITE, size - _BYTES_PER_WRITE
            out.append(text[a:b])
            yield "".join(out)
            out, a = [], b
        if size:  # text[a:] is pending, "" if text is; none is if a write ended at its end
            out.append(text[a:])
    if size:
        yield "".join(out)


class ClassTexts:
    """The texts of the shuffle classes on a path, in the order of
    all_minus_counts, kept as a product of two lists: the class with
    index p * len(last) + c has the text heads[p] + last[c], where heads
    holds the texts of the minus counts on the signed blocks before a
    split and last those of the counts on the blocks after it.  Either
    factor may be a _Made, whose texts are made when read."""

    __slots__ = ("heads", "last")

    def __init__(self, heads: list[str], last: list[str]):
        self.heads, self.last = heads, last

    def __len__(self) -> int:
        return len(self.heads) * len(self.last)

    @property
    def longest(self) -> str:
        """A longest text, the last one: the text of a minus count is no
        shorter than those of smaller counts."""
        return self.heads[-1] + self.last[-1]

    def groups(self, a: int, b: int) -> Iterator[tuple[str, list[str]]]:
        """The classes a..b-1, a < b, as (heads[p], the slice of last
        that follows it), p ascending: sep.join of the classes is sep.join
        of head + (sep + head).join(texts), one text per head."""
        width = len(self.last)
        for p in range(a // width, -(-b // width)):
            yield self.heads[p], self.last[max(a - p * width, 0) : b - p * width]


class _Made:
    """A sequence of size texts whose text i is make(i), made when read:
    a sequence too long to keep."""

    __slots__ = ("size", "make")

    def __init__(self, size: int, make):
        self.size, self.make = size, make

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self.make, range(self.size)[i]))
        return self.make(range(self.size)[i])  # raises IndexError as a list would


def minus_texts(path, end: str = "", first: str = ",") -> ClassTexts:
    """first + "c_1,...,c_m" + end for the minus counts c of every class
    on the path (end alone on a path with no signed block), in the order
    of all_minus_counts: with end "]}", the end of the text of
    P.to_json() after its first minus count."""
    sizes = path.signed_blocks.sizes
    seps = [first] + [","] * (len(sizes) - 1)
    return _class_texts("", [["%s%d" % (sep, c) for c in range(size + 1)]
                             for sep, size in zip(seps, sizes)], end)


def decorated_texts(path, end: str = "") -> ClassTexts:
    """str(P) + end for every class P on the path, in the order of
    all_minus_counts, with no class built.  The canonical decorated path
    carries c minus signs at the clockwise end of a block with minus
    count c, so the text of count c on a block of s edges is
    plus[:cuts[s - c]] + minus[cuts[s - c]:] (_signed_run).  The s + 1
    texts of a block are kept as a list, or, where that would hold more
    than _KEPT_CHARS characters, a _Made that cuts each text when it is
    read, so that memory does not grow with the square of a long block."""
    vs, pieces = list(path._texts()), []
    for r in path.signed_blocks._ranges():  # signed edge e ends at vertex e + 1
        plus, minus, cuts = _signed_run(vs[r.start + 1 : r.stop + 1])
        block = _Made(len(cuts), partial(_signed_text, plus, minus, cuts))
        pieces.append(block if len(cuts) * len(plus) > _KEPT_CHARS else block[:])
    return _class_texts("%s → %s" % (vs[0], vs[1]), pieces, end)


def _signed_text(plus: str, minus: str, cuts: list[int], c: int) -> str:
    """The text of minus count c on a signed block (_signed_run)."""
    return plus[: cuts[~c]] + minus[cuts[~c] :]


def _signed_run(texts: list[str]) -> tuple[str, str, list[int]]:
    """The signed edges " →+ t" into the vertex texts t, joined, the
    same with every sign minus, and the offsets cuts[i] where the first i
    edges end in both: plus[:cuts[i]] + minus[cuts[i]:] signs the edges
    after the first i minus."""
    plus = "".join(" →+ " + t for t in texts)
    cuts = list(itertools.accumulate((len(" →+ ") + len(t) for t in texts), initial=0))
    return plus, plus.replace("→+", "→-"), cuts  # no slope text holds a +


def _class_texts(first: str, pieces: list, end: str) -> ClassTexts:
    """first + pieces[0][c_0] + ... + end for every choice of the c_j, the
    last index running fastest, as ClassTexts: one text is made per block
    and count, or per read where a block is a _Made, and the blocks are
    split where the longer of the two factors is shortest."""
    counts = list(itertools.accumulate(map(len, pieces), operator.mul, initial=1))
    split = min(range(len(counts)), key=lambda j: max(counts[j], counts[-1] // counts[j]))
    return ClassTexts(_products(first, pieces[:split]), _products("", pieces[split:] + [[end]]))


def _products(first: str, pieces: list) -> list[str] | _Made:
    """first extended block by block by every piece of each block, the
    last block's piece running fastest: a list, or, where a block is a
    _Made, a _Made whose texts are not kept either."""
    if not all(isinstance(block, list) for block in pieces):
        return _Made(math.prod(map(len, pieces)), partial(_product_text, first, pieces))
    texts = [first]
    for block in pieces:
        texts = [text + piece for text in texts for piece in block]
    return texts


def _product_text(first: str, pieces: list, i: int) -> str:
    """Text i of _products(first, pieces), from one piece of each block."""
    chosen = []
    for block in reversed(pieces):
        i, c = divmod(i, len(block))
        chosen.append(block[c])
    return first + "".join(reversed(chosen))


def _write_rows(runs, pre, post, groups, count: int, suffixes, longest: str, sep: str = "",
                ends=None) -> Iterator[str]:
    """Yield the rows of a listing, per_write of a row as long as the
    longest to a write.  runs yields (k, lo, hi, key) for the cells (k,
    l), lo <= l < hi, that share key; the first run is the cells (1, l),
    l < n, of a triangle, or the one cell (0, 0, 1, None) of a listing
    without k and l.  A cell holds count rows: row i is text i of P, read
    as groups(a, b) gives texts a..b-1 (ClassTexts.groups), or nothing
    where groups is None; then the suffix of its run, where suffixes(key)
    is (starts, texts) and rows starts[j]..starts[j+1]-1 end in texts[j].
    No row is longer than longest, which is ASCII exactly when they are.
    A row of cell (k, l) is pre % k, l (neither when pre is None), post,
    its text, then ends(k, l) if given; sep separates rows.  No text is
    made per row here: in a triangle whose cells fit in a write, P's texts
    are joined into one list once; each group of a run is one join, one
    repetition where P is None, with the suffix in its separator; and a
    run of one-row cells with no ends is one join over the numbers l,
    around the one row of its key."""
    # "".format(l) is empty, as l is written only with k; the first row drops sep
    label, skip = (str if pre is not None else "".format), len(sep)
    runs = iter(runs)
    first = next(runs)
    # a row as long as the longest: no k or l is longer than n, the hi of the first run
    step = room = per_write(sep + (pre % first[2] if pre is not None else "") + label(first[2] - 1) + post + longest)
    if groups is not None and pre is not None and count <= step:
        flat = [p + t for p, ts in groups(0, count) for t in ts]
        groups = lambda a, b: [("", flat[a:b])]

    def cell(h: str, e: str, key, a: int, b: int) -> list[str]:
        """h + row + e for rows a..b-1 of a cell of key, in pieces."""
        (starts, vs), pieces = suffixes(key), []
        j = bisect.bisect_right(starts, a) - 1
        while a < b:
            c, a, v = a, min(b, starts[j + 1]), vs[j] + e  # rows c..a-1 end in v
            j += 1
            if groups is None:
                pieces.append((h + v) * (a - c))
                continue
            for p, ts in groups(c, a):
                pieces += (h, p, (v + h + p).join(ts), v)
        return pieces

    pieces, labels, single = [], [], {}  # labels[l] is label(l), made once; single[key] the row of a one-row cell
    for k, lo, hi, key in itertools.chain([first], runs):
        start = sep + (pre % k if pre is not None else "")
        if count == 1 and ends is None and key not in single:
            single[key] = post + "".join(cell("", "", key, 0, 1))
        l, a = lo, 0  # the next row is row a of cell (k, l)
        while l < hi:
            if count == 1 and ends is None:
                stop, row = min(hi, l + room), single[key]
                labels += map(label, range(len(labels), stop))
                pieces += (start, (row + start).join(labels[l:stop]), row)
                l, room = stop, room - (stop - l)
            else:
                b = min(count, a + room)
                pieces += cell(start + label(l) + post, ends(k, l) if ends else "", key, a, b)
                room -= b - a
                l, a = (l + 1, 0) if b == count else (l, b)
            if skip:
                pieces[0], skip = pieces[0][skip:], 0
            if not room:
                yield "".join(pieces)
                pieces.clear()
                room = step
    yield "".join(pieces)


def _p_head(path) -> str:
    """The start of the JSON text of P.to_json() that every class on the
    path shares: its path, its blocks and the unsigned first block's
    minus count."""
    obj = ShuffleClass(path, (0,) * len(path.signed_blocks.sizes)).to_json()
    return '{"path":%s,"blocks":%s,"minus":[0' % (_json(obj["path"]), _json(obj["blocks"]))


def _reciprocal_tails(n: int):
    """ends(k, l) for the text of `enumerate r`: the edges 1/n -> ... -> 1/k
    that the decorated path of (k, l, P) appends to P, with l minus signs
    at the clockwise end, then the newline."""
    # the edges into 1/(n-1), ..., 1/1: the first n - j end at 1/j
    plus, minus, cuts = _signed_run([_text(j, 1) for j in range(n - 1, 0, -1)])
    return lambda k, l: plus[: cuts[n - k - l]] + minus[cuts[n - k - l] : cuts[n - k]] + "\n"


def listing(fmt: str, r: Slope, path, runs, s: Slope | None = None, verdicts=None) -> Iterator[str]:
    """The listing of `classify r` where verdicts is given, from
    structure_cells(r), else of `enumerate r` over the cells of runs,
    path running from r to 1/n, or of `enumerate r s` where s is given,
    one cell whose rows hold neither k nor l.  A row is P's text, then a
    suffix: in `classify`, P's minus counts in JSON and nothing of P
    otherwise, then the verdict, one suffix to a run of rows
    (_verdict_runs); in `enumerate`, P as JSON or its decorated path, the
    minus counts of P before it in the TSV of `enumerate r s`, glued into
    one text per row, and in the text of `enumerate r` the edges from 1/n
    on (ends).  A JSON array, whose row head holds the text that P's JSON
    shares on every class; TSV under a header; or text rows."""
    triangle, ends = s is None, None
    if verdicts is not None:
        P = minus_texts(path, "]}") if fmt == "json" else None
        count = sum(classes for _, classes in next(iter(verdicts.values())).values())  # phi
        found = _verdict_runs(fmt, path, verdicts, count)
        suffixes = found.__getitem__
        longest = (P.longest if P else "") + max((t for _, vs in found.values() for t in vs), key=len)
        columns = "position\tstatus\tcite\tnote"
    else:
        if fmt == "text" and triangle:
            ends = _reciprocal_tails(n_of(r))
        P = minus_texts(path, "]}}" if triangle else "]}") if fmt == "json" else decorated_texts(
            path, "" if ends else "\n")
        count, longest = len(P), P.longest + (ends(1, 0) if ends else "")
        suffixes, columns = lambda _: ((0, count), ("",)), "P" if triangle else "minus\tP"
    groups = P.groups if P else None
    if fmt == "tsv" and not triangle:
        minus = minus_texts(path, "\t", "")
        # the two split alike, so group i of each holds the same classes: glue their texts
        groups = lambda a, b: ((p, [t + q + u for t, u in zip(ts, us)])
                               for (p, ts), (q, us) in zip(minus.groups(a, b), P.groups(a, b), strict=True))
        longest = minus.longest + longest
    if not triangle:
        runs = [(0, 0, 1, None)]
    if fmt == "json":
        yield "["
        pre = '{"r":%s,"k":%%d,"l":' % _json(str(r)) if triangle else None
        post = (',"P":' if triangle else "") + _p_head(path)
    elif fmt == "tsv":
        yield "r\t%s\t%s\n" % ("k\tl" if triangle else "s", columns)
        pre, post = ("%s\t%%d\t" % r, "\t") if triangle else (None, "%s\t%s\t" % (r, s))
    else:
        pre, post = "k=%d l=" if triangle else None, " " if ends else ""
    yield from _write_rows(runs, pre, post, groups, count, suffixes, longest, "," if fmt == "json" else "", ends)
    if fmt == "json":
        yield "]\n"


@lru_cache(maxsize=256)  # about 15 to a listing; a note names n, so the cache is bounded
def _verdict_text(fmt: str, position, verdict) -> str:
    """The part of a classify row after P (after k and l in TSV, which
    has no P): position, status, cite, note."""
    tag, status, cite, note = position.tag, verdict.status.value, verdict.cite, verdict.note
    if fmt == "json":
        text = ',"position":%s,"status":%s,"cite":%s' % (_json(tag), _json(status), _json(cite))
        return text + (',"note":%s}' % _json(note) if note is not None else "}")
    if fmt == "tsv":
        return "%s\t%s\t%s\t%s\n" % (tag, status, cite or "", note or "")
    return " position=%s status=%s%s\n" % (tag, status, " cite=%s" % cite if cite else "")


def _verdict_runs(fmt: str, path, verdicts, phi: int) -> dict:
    """{position: (starts, texts)} for the phi rows of a cell of `classify
    r`: rows starts[i]..starts[i+1]-1 end in the verdict text texts[i],
    and starts ends at phi.  A verdict reads only P's features, so a position
    whose verdict does not vary with them is one run; else its runs are
    those of equal texts along feature_column, whose first and last
    classes are the uniform ones and which repeats [plus] + [mixed]*(L-1)
    + [minus] between them, so at most three runs to a repetition."""
    column, out = None, {}
    for position, vs in verdicts.items():
        found = {f: _verdict_text(fmt, position, verdict) for f, (verdict, _) in vs.items()}
        if len(set(found.values())) == 1:
            out[position] = (0, phi), tuple(found.values())[:1]
            continue
        column = column or feature_column(path)
        texts = list(map(found.__getitem__, column))
        starts = [0, *itertools.compress(range(1, len(texts)), map(operator.ne, texts[1:], texts)), len(texts)]
        out[position] = starts, list(map(texts.__getitem__, starts[:-1]))
    return out
