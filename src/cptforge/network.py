"""Graph-structured learning of conditional probability tables from count data.

File formats
------------
Every input file is UTF-8 and is split into lines by one rule, `_lines`:
a line ends at ``\n`` only, and a line that is all whitespace or whose
first other character is ``#`` is skipped.  An error in an input file,
such as a byte sequence that is not UTF-8, names the file and the line.
Every file is streamed: the graph and prior files a line at a time, the
count file in chunks of ``CHUNK_BYTES`` cut at line ends.  Each data line
is kept as one row of the joint `CountTable`, so the table's memory
follows the number of data lines.

Graph and prior lines are split into fields at runs of spaces and tabs
only, like the blanks of a CSV cell; a trailing ``\r`` is dropped.

Graph: plain text, one directive per line.  ``node <name> <arity>`` declares
a variable with outcomes 0..arity-1, the arity being ASCII digits from 1 to
``MAX_FAMILY_CELLS``; ``edge <parent> <child>`` adds a dependency.  The
edge relation must be acyclic, no family table (parent configurations x
arity) may exceed ``MAX_FAMILY_CELLS`` cells, and the family tables
together may not exceed ``MAX_NETWORK_CELLS`` cells.  A node name matches
``[A-Za-z_][A-Za-z0-9_.-]*`` and is not ``count``, so it names a file
inside the output directory and never the count column.

Counts: CSV with header ``var1,...,vark,count`` where the variable columns
are a permutation of the declared node names and the last column is
literally ``count``.  Each following row holds 0-based outcome indices
and a non-negative integer count; duplicate outcome rows are summed, so
ingestion does not depend on row order.  Every outcome and count cell is
optional blanks (spaces or tabs), ASCII digits ``[0-9]+``, optional
blanks: a sign, a quote, a decimal point, an underscore or a non-ASCII
digit is an error.  Counts may exceed 64 bits.  The header is split into
cells like a data line, at commas with the blanks stripped, so a quoted
name is an error too.  A chunk of data lines is parsed by one vectorised
byte kernel, `_bulk_rows`, which accepts exactly this grammar, a ``\r``
being a blank only directly before ``\n``: a chunk it accepts,
`_parse_line` accepts with the same values.  A chunk with skipped lines is
parsed again without them; a chunk it still refuses (say, with a count of
more than 18 digits) or that holds an outcome out of range goes through
`_parse_line`, which names the first bad line.

Priors (Bayesian mode): plain text, one line per node:
``<name> a1 a2 ... a<arity>`` with every pseudo-count ASCII digits and
>= 1.  The same vector is applied to every parent configuration of that
node; nodes not listed default to all ones.

Output: one CSV per node.  Parent outcome columns come first (in declared
edge order, row-major over parent configurations).  MLE mode then has
probability columns p0..p{m-1}; Bayesian mode has pseudo-count columns
a0..a{m-1} followed by posterior means mean0..mean{m-1}.  Probabilities
and means are rendered as reduced exact fractions ``a/b`` with b > 0.
Each table is written a row at a time, with ``\r\n`` line ends.

Learned tables: a `LearnedCPT` holds one ``(configs, arity)`` integer
array per family, the counts (MLE) or the prior plus the counts (Bayes);
`dists` and `posteriors` (rows as `HyperParams`, full-support multisets)
are views derived from it.

A family table larger than ``MAX_FAMILY_CELLS``, or family tables that
sum to more than ``MAX_NETWORK_CELLS``, are refused when the graph is
read, naming the edge (or node) that takes them over the cap, so no data
is read for them; a graph over both caps is refused for its family.
`CountTable.marginal_counts` refuses a variable set of more than
``MAX_FAMILY_CELLS`` cells before it is allocated.

Importing this module loads no numpy: each function that computes with
arrays imports it itself, so reading a graph or a prior loads none.
`verify` imports it only for its two learn-pipeline laws, which
`--suite all` runs in its forked child.
"""

from __future__ import annotations

import contextlib
import graphlib
import itertools
import operator
import os
import re
import reprlib
import shutil
import tempfile
from dataclasses import InitVar, dataclass, field
from math import gcd, inf, prod
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Mapping

from .finset import Multiset, integer_tuple

if TYPE_CHECKING:  # imported where used: `learn --mode mle` needs neither
    import numpy as np

    from .dirichlet import HyperParams
    from .dist import Dist

CHUNK_BYTES = 1 << 20
"""Bytes of data lines read per bulk step, then up to the next line end;
bounds the parser's working memory."""

MAX_FAMILY_CELLS = 1 << 24
"""Largest family table (parent configurations x arity) that is built."""

MAX_NETWORK_CELLS = 1 << 26
"""Largest sum of a graph's family tables, which `learn` holds at once."""

_NODE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")
MAX_NAME_BYTES = 255 - len(".csv")
"""Longest node name: its table is written as `<name>.csv`, and file
systems refuse names past 255 bytes."""

# A number (a data cell, an arity or a pseudo-count): blanks, digits,
# blanks.  The sign is matched only so that a negative value gets its own
# message; it is never accepted.
_CELL = re.compile(r"[ \t]*(-?[0-9]+)[ \t]*")

# Only lines made of these bytes are parsed in bulk; any other byte (a sign,
# a quote, '#', non-ASCII) needs the line-by-line parse.
_BULK_BYTES = b"0123456789, \t\r\n"

_BULK_DIGITS = 18
"""Longest cell the bulk parse reads: 10**18 - 1 is below 2**63."""

# A graph or prior line's fields are separated by runs of these blanks.
_FIELD_GAP = re.compile(r"[ \t]+")


class DataError(ValueError):
    """Invalid user-supplied graph, count, or prior data."""


@contextlib.contextmanager
def _in_file(path: str | Path):
    """Prefix the DataError raised in the block with the path of the file
    being read; an OSError, such as a missing file or a directory, is the
    DataError ``cannot read PATH: REASON``."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def _at(lineno: int | None) -> str:
    """The ``line N: `` prefix of an error message, empty when the line is unknown."""
    return "" if lineno is None else f"line {lineno}: "


def _lines(raws: Iterable[bytes], first: int = 1) -> Iterator[tuple[int, str]]:
    """The number (counted from `first`) and decoded text, without its
    ``\n``, of each line of `raws` that is neither blank nor a ``#`` comment.

    `raws` are lines split at ``\n`` only, as a binary file yields them.  A
    line that is not UTF-8 is a DataError naming it, even where it would be
    skipped.
    """
    for lineno, raw in enumerate(raws, start=first):
        try:
            text = raw.removesuffix(b"\n").decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"line {lineno}: not valid UTF-8") from None
        line = text.strip()
        if line and not line.startswith("#"):
            yield lineno, text


def _integer(text: str, lineno: int) -> int | None:
    """The number `text` holds under the `_CELL` grammar, or None if it holds none.

    More digits than ``int`` converts (``sys.get_int_max_str_digits()``)
    is a DataError naming the line.
    """
    match = _CELL.fullmatch(text)
    if match is None:
        return None
    try:
        return int(match[1])
    except ValueError:
        raise DataError(f"line {lineno}: a number of {len(match[1])} digits is too long") from None


def _fields(text: str) -> list[str]:
    """A graph or prior line's fields: split at spaces and tabs only, as
    the blanks of a CSV cell, after a trailing ``\\r`` is dropped."""
    return _FIELD_GAP.split(text.rstrip("\r").strip(" \t"))


def _name_error(name: str) -> str | None:
    """Why `name` cannot name a node, or None if it can."""
    if name == "count":
        return "node name 'count' is reserved for the count column"
    if not _NODE_NAME.fullmatch(name):
        return f"node name {reprlib.repr(name)} does not match [A-Za-z_][A-Za-z0-9_.-]*"
    if len(name) > MAX_NAME_BYTES:  # the name is ASCII: one byte a character
        return f"node name {reprlib.repr(name)} is longer than {MAX_NAME_BYTES} bytes"
    return None


@dataclass(frozen=True)
class GraphSpec:
    """A directed acyclic graph of named variables with finite arities.

    `lines`, the file line of each node and of each edge, makes errors name it.
    """

    nodes: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]
    lines: InitVar[tuple[tuple[int, ...], tuple[int, ...]] | None] = None
    _arity: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self, lines):
        object.__setattr__(self, "edges", tuple((str(p), str(c)) for p, c in self.edges))
        node_lines, edge_lines = lines or ((None,) * len(self.nodes), (None,) * len(self.edges))
        if not self.nodes:
            raise DataError("graph has no nodes: it needs a 'node <name> <arity>' line")
        arities: dict[str, int] = {}
        total = 0  # the family cells summed over the network
        crossed = None  # the first line that takes the sum over its cap
        for (n, a), lineno in zip(self.nodes, node_lines):
            n = str(n)
            if n in arities:
                raise DataError(f"{_at(lineno)}duplicate node {n}")
            if error := _name_error(n):
                raise DataError(_at(lineno) + error)
            try:
                a = operator.index(a)
            except TypeError:
                raise DataError(f"{_at(lineno)}node {n} has arity {a!r}, not an integer") from None
            if not 1 <= a <= MAX_FAMILY_CELLS:
                # Above the cap, the node's own table could never be built.
                raise DataError(f"{_at(lineno)}node {n} has arity {a} "
                                f"outside 1..{MAX_FAMILY_CELLS}")
            arities[n] = a
            total += a
            if crossed is None and total > MAX_NETWORK_CELLS:
                crossed = f"node {reprlib.repr(n)}", lineno, total
        object.__setattr__(self, "nodes", tuple(arities.items()))
        object.__setattr__(self, "_arity", arities)
        edge_line: dict[tuple[str, str], int | None] = {}
        cells = dict(arities)  # each family's table size, parents x arity
        over = None  # the first edge that takes a family over the cap
        for (p, c), lineno in zip(self.edges, edge_lines):
            if p not in arities or c not in arities:
                raise DataError(f"{_at(lineno)}edge {reprlib.repr(p)} -> {reprlib.repr(c)} "
                                "references an undeclared node")
            if (p, c) in edge_line:
                raise DataError(f"{_at(lineno)}duplicate edge {p} -> {c}")
            edge_line[p, c] = lineno
            total += cells[c] * (arities[p] - 1)
            cells[c] *= arities[p]
            if over is None and cells[c] > MAX_FAMILY_CELLS:
                over = c, lineno
            if crossed is None and total > MAX_NETWORK_CELLS:
                crossed = f"edge {reprlib.repr(p)} -> {reprlib.repr(c)}", lineno, total
        if over:
            c, lineno = over
            family = [p for p, child in self.edges if child == c] + [c]
            raise DataError(f"{_at(lineno)}family table over {', '.join(family)} needs "
                            f"{cells[c]} cells, more than the cap of {MAX_FAMILY_CELLS}")
        if crossed:
            what, lineno, cells_in_all = crossed
            raise DataError(f"{_at(lineno)}{what} takes the family tables to {cells_in_all} cells "
                            f"in all, more than the network cap of {MAX_NETWORK_CELLS}")
        deps = {n: [] for n in arities}
        for p, c in self.edges:
            deps[c].append(p)
        try:
            tuple(graphlib.TopologicalSorter(deps).static_order())
        except graphlib.CycleError as exc:
            # Each node of the reported cycle is a parent of the next one.
            cycle = exc.args[1]
            raise DataError(f"{_at(edge_line[cycle[0], cycle[1]])}graph has a directed "
                            f"cycle: {' -> '.join(cycle)}") from None

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.nodes)

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise DataError(f"unknown node {name}") from None

    def parents(self, name: str) -> tuple[str, ...]:
        """Parents of a node, in declared edge order."""
        return tuple(p for p, c in self.edges if c == name)

    @staticmethod
    def parse(raws: Iterable[bytes]) -> GraphSpec:
        """The graph a graph file's lines declare, read one at a time."""
        nodes: list[tuple[str, int]] = []
        edges: list[tuple[str, str]] = []
        node_lines: list[int] = []
        edge_lines: list[int] = []
        for lineno, text in _lines(raws):
            parts = _fields(text)
            if parts[0] == "node" and len(parts) == 3:
                arity = _integer(parts[2], lineno)
                if arity is None:
                    raise DataError(f"line {lineno}: arity {reprlib.repr(parts[2])} "
                                    "is not an integer")
                nodes.append((parts[1], arity))
                node_lines.append(lineno)
            elif parts[0] == "edge" and len(parts) == 3:
                edges.append((parts[1], parts[2]))
                edge_lines.append(lineno)
            else:
                raise DataError(f"line {lineno}: expected 'node <name> <arity>' or "
                                f"'edge <parent> <child>', got {reprlib.repr(text)}")
        return GraphSpec(tuple(nodes), tuple(edges), (tuple(node_lines), tuple(edge_lines)))

    @staticmethod
    def load(path: str | Path) -> GraphSpec:
        with _in_file(path), open(path, "rb") as fh:
            return GraphSpec.parse(fh)


def _outcome_dtype(arities: tuple[int, ...]) -> np.dtype:
    """The smallest unsigned integer type holding every outcome index."""
    import numpy as np

    return np.min_scalar_type(max(arities, default=1) - 1)


def _count_dtype(total: int) -> type:
    """The dtype of an array of non-negative integers whose exact grand total is
    `total`: int64 while the total is below 2**63, so that no sum of its cells
    can wrap, and Python ints (dtype object) beyond."""
    import numpy as np

    return np.int64 if total < 1 << 63 else object


def _sum_by_index(index: np.ndarray, counts: np.ndarray, size: int, total: int) -> np.ndarray:
    """``counts`` summed into ``size`` cells by ``index``, given their exact ``total``."""
    import numpy as np

    dtype = _count_dtype(total)
    out = np.zeros(size, dtype=dtype)
    np.add.at(out, index, counts.astype(dtype, copy=False))
    return out


@dataclass(frozen=True, eq=False)
class CountTable:
    """Joint counts over the graph's variables, in declared order.

    Row r of `outcomes` (shape ``(R, k)``, the smallest unsigned dtype that
    holds every outcome index) is an observed outcome tuple and
    ``counts[r]`` its count, of the dtype `_count_dtype` gives their total.
    `outcomes` is stored column-major, so each variable's column is
    contiguous.  A tuple may occur on several rows; only the summed counts
    matter, so equality compares `records`, the aggregated view.  An
    outcome or count that is not an integer, a negative count and an
    outcome outside ``0..arity-1`` are each a ValueError naming the value
    when the table is built, never truncated.
    """

    variables: tuple[str, ...]
    arities: tuple[int, ...]
    outcomes: np.ndarray
    counts: np.ndarray
    _total: int = field(init=False, repr=False)

    def __post_init__(self):
        import numpy as np

        shape = (len(self.counts), len(self.variables))
        if len(self.arities) != shape[1] or self.outcomes.shape != shape:
            raise ValueError(f"outcomes of shape {self.outcomes.shape} do not fit "
                             f"{shape[0]} counts over {shape[1]} variables")
        for noun, values in (("outcome", self.outcomes), ("count", self.counts)):
            if values.dtype.kind not in "iu":
                integer_tuple(values.ravel().tolist(), noun)
        if shape[0]:
            lows, highs = self.outcomes.min(axis=0).tolist(), self.outcomes.max(axis=0).tolist()
            for name, arity, low, high in zip(self.variables, self.arities, lows, highs):
                if low < 0 or high >= arity:
                    raise ValueError(f"outcome {low if low < 0 else high} for {name} "
                                     f"outside 0..{arity - 1}")
            if self.counts[i := np.argmin(self.counts)] < 0:
                raise ValueError(f"negative count {self.counts[i]} at index {i}")
        total = sum(self.counts.tolist())
        object.__setattr__(self, "outcomes",
                           np.asfortranarray(self.outcomes, dtype=_outcome_dtype(self.arities)))
        object.__setattr__(self, "counts", self.counts.astype(_count_dtype(total), copy=False))
        object.__setattr__(self, "_total", total)

    @classmethod
    def from_records(
        cls,
        variables: tuple[str, ...],
        arities: tuple[int, ...],
        mapping: Mapping[tuple[int, ...], int],
    ) -> CountTable:
        """A table with one row per (outcome tuple, count) item of `mapping`."""
        import numpy as np

        return cls(tuple(variables), tuple(arities),
                   np.array(list(mapping), dtype=object).reshape(len(mapping), len(variables)),
                   np.array(list(mapping.values()), dtype=object))

    @property
    def records(self) -> Mapping[tuple[int, ...], int]:
        """Read-only map from each distinct outcome tuple to its summed count."""
        out: dict[tuple[int, ...], int] = {}
        for outcome, c in zip(map(tuple, self.outcomes.tolist()), self.counts.tolist()):
            out[outcome] = out.get(outcome, 0) + c
        return MappingProxyType(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return ((self.variables, self.arities) == (other.variables, other.arities)
                and self.records == other.records)

    def total(self) -> int:
        return self._total

    def marginal_counts(self, names: tuple[str, ...]) -> Multiset:
        """Counts marginalised onto the given variables, row-major in that order.

        This is the pushforward of the joint counts along the projection onto
        `names`: one exact scatter-add of every row's count into its cell,
        whose row-major index is built by Horner's rule over the columns.
        """
        import numpy as np

        positions = []
        for name in names:
            if name not in self.variables:
                raise DataError(f"unknown variable {name}")
            positions.append(self.variables.index(name))
        dims = tuple(self.arities[p] for p in positions)
        cells = prod(dims)
        if cells > MAX_FAMILY_CELLS:
            raise DataError(f"family table over {', '.join(names)} needs {cells} cells, "
                            f"more than the cap of {MAX_FAMILY_CELLS}")
        # int32 holds every index (cells <= MAX_FAMILY_CELLS) and halves the
        # passes' memory traffic; np.add.at is fastest on intp indices.
        index = np.zeros(len(self.counts), dtype=np.int32)
        for p, d in zip(positions, dims):
            index *= d
            index += self.outcomes[:, p]
        summed = _sum_by_index(index.astype(np.intp), self.counts, cells, self._total)
        return Multiset(tuple(summed.tolist()))


def _parse_line(text: str, lineno: int, names: tuple[str, ...],
                arities: tuple[int, ...], order: list[int]) -> tuple[int, ...]:
    """One data line's outcomes (declared order) and count, or its first error."""
    cells = text.rstrip("\r").split(",")
    if len(cells) != len(names) + 1:
        raise DataError(f"line {lineno}: expected {len(names) + 1} cells, got {len(cells)}")
    values = []
    for name, col, arity in zip(names, order, arities):
        value = _integer(cells[col], lineno)
        if value is None:
            raise DataError(f"line {lineno}: outcome {reprlib.repr(cells[col].strip())} "
                            f"for {name} is not an integer")
        if not 0 <= value < arity:
            raise DataError(f"line {lineno}: outcome {value} for {name} outside 0..{arity - 1}")
        values.append(value)
    count = _integer(cells[-1], lineno)
    if count is None:
        raise DataError(f"line {lineno}: count {reprlib.repr(cells[-1].strip())} "
                        "is not an integer")
    if count < 0:
        raise DataError(f"line {lineno}: negative count {count}")
    return (*values, count)


def _read_header(fh: BinaryIO, names: tuple[str, ...]) -> tuple[int, list[int]]:
    """Consume lines up to the header; its line number and, per node, its column."""
    for lineno, text in _lines(fh):
        header = [cell.strip(" \t") for cell in text.rstrip("\r").split(",")]
        if len(header) != len(names) + 1 or header[-1] != "count":
            raise DataError(f"line {lineno}: header must list every node plus a final "
                            f"'count' column, got {reprlib.repr(header)}")
        if sorted(header[:-1]) != sorted(names):
            # The lengths are equal, so some node has no column; unless a
            # column is repeated, some column is also not a node.
            stray = next((c for c in header[:-1] if c not in names), None)
            if stray is not None:
                raise DataError(f"line {lineno}: header column {reprlib.repr(stray)} "
                                "is not a graph node")
            missing = next(n for n in names if n not in header)
            raise DataError(f"line {lineno}: header has no column for node "
                            f"{reprlib.repr(missing)}")
        return lineno, [header.index(n) for n in names]
    raise DataError("data file has no header row")


def _is_digit(raw: np.ndarray) -> np.ndarray:
    return raw - ord("0") < 10  # uint8 arithmetic wraps every byte below b"0" past 9


def _digit_runs(raw: np.ndarray) -> int:
    """The number of maximal runs of digits in the bytes `raw`."""
    import numpy as np

    digit = _is_digit(raw)
    return int(digit[0]) + np.count_nonzero(digit[1:] & ~digit[:-1])


def _bulk_rows(body: bytes, width: int) -> np.ndarray | None:
    """The cells of the data lines `body` as a ``(lines, width)`` integer
    array, or None unless every line is `width` cells that `_parse_line`
    accepts, none longer than ``_BULK_DIGITS`` digits.

    A few vectorised passes over the bytes: the blanks are checked and
    dropped, then the separators must be ``width - 1`` commas and the line
    end on every line, with one digit run between each two.  A run of one
    digit is its value; a longer run adds its other digits at their place
    values.
    """
    import numpy as np

    if not body or b"#" in body:
        return None  # a '#' makes a comment line or an error, for `_read_chunk` to sort
    if not body.endswith(b"\n"):
        body += b"\n"  # the file's last line
    raw = np.frombuffer(body, dtype=np.uint8)
    blanks = b" " in body or b"\t" in body or b"\r" in body
    if blanks:
        if body.translate(None, _BULK_BYTES):
            return None
        if b"\r" in body and (raw[np.flatnonzero(raw == ord("\r")) + 1] != ord("\n")).any():
            return None  # a \r is a blank only directly before \n
        stripped = np.frombuffer(body.translate(None, b" \t\r"), dtype=np.uint8)
        if _digit_runs(stripped) != _digit_runs(raw):
            return None  # blanks inside a number: dropping them joined two runs
        raw = stripped
    ends = np.full(width, ord(","), dtype=np.uint16)
    ends[-1] = ord("\n")
    if len(raw) % (2 * width) == 0:
        # Every cell may be one digit: read each (digit, separator) byte pair
        # as a little-endian uint16 and subtract the pair (b"0", separator).
        # The difference is the digit, or 10 or more, wrapping, for any
        # other pair.
        cells = raw.view("<u2").reshape(-1, width) - (ends << 8 | ord("0"))
        if (cells < 10).all():
            return cells
    if not blanks and body.translate(None, _BULK_BYTES):
        return None
    sep = (raw == ord(",")) | (raw == ord("\n"))  # every other byte is a digit
    if sep[0] or (sep[1:] & sep[:-1]).any():
        return None  # an empty cell
    last = np.flatnonzero(sep[1:])  # the last digit of each cell
    if len(last) % width or (raw[1:][last].reshape(-1, width) != ends).any():
        return None
    values = (raw[last] - ord("0")).astype(np.int64)
    # Add each longer cell's other digits at their place values, from the
    # right, until the separator before it (index -1 is the closing \n).
    cell = np.flatnonzero(~np.concatenate(([True], sep[:-1]))[last])
    at, scale = last[cell] - 1, 10
    while at.size:
        if scale == 10**_BULK_DIGITS:
            return None  # a number that may not fit int64
        values[cell] += (raw[at] - ord("0")).astype(np.int64) * scale
        more = ~sep[at - 1]
        at, cell, scale = at[more] - 1, cell[more], scale * 10
    return values.reshape(-1, width)


def _skipped(raw: bytes) -> bool:
    """Whether `_lines` skips the line `raw`; a line it refuses is not skipped."""
    try:
        return not any(_lines([raw]))
    except DataError:
        return False


def _read_chunk(body: bytes, first: int, names: tuple[str, ...], arities: tuple[int, ...],
                order: list[int]) -> tuple[np.ndarray, np.ndarray, int]:
    """Outcome columns (declared order, shape ``(k, n)``) and counts of the
    data lines `body`, the first of them line `first`, and the number of
    lines read.

    The chunk is parsed in bulk, and again without the lines `_lines` skips
    (only a line that does not start with a digit is asked); failing that,
    or if an outcome is out of range, line by line over `_lines`, naming the
    first bad line and reading counts past int64.  Only these slower paths
    split the chunk into lines; on the bulk path each line is one row.
    """
    import numpy as np

    dtype, width = _outcome_dtype(arities), len(names) + 1
    values = _bulk_rows(body, width)
    if values is not None:
        consumed = len(values)
    else:
        lines = body.removesuffix(b"\n").split(b"\n")
        consumed = len(lines)
        raw = np.frombuffer(body, dtype=np.uint8)
        heads = np.concatenate((raw[:1], raw[1:][raw[:-1] == ord("\n")]))  # of every line
        keep = _is_digit(heads)
        for i in np.flatnonzero(~keep).tolist():
            keep[i] = not _skipped(lines[i])
        if not keep.all():
            values = _bulk_rows(b"\n".join(itertools.compress(lines, keep.tolist())), width)
    if values is not None:
        columns = values.T[order]  # a copy, so the chunk's cells are freed on return
        if (columns.max(axis=1) < arities).all():
            return columns.astype(dtype, copy=False), values[:, -1].astype(np.int64), consumed
    parsed = [_parse_line(text, n, names, arities, order)
              for n, text in _lines(body.split(b"\n"), first)]
    outcomes = np.array([p[:-1] for p in parsed], dtype=dtype)
    counts = [p[-1] for p in parsed]
    return (outcomes.reshape(len(parsed), len(names)).T,
            np.array(counts, dtype=_count_dtype(sum(counts))), consumed)


def ingest_counts(path: str | Path, graph: GraphSpec) -> CountTable:
    """Read a long-format count CSV against the graph's schema.

    Data lines are read and parsed a chunk at a time: ``CHUNK_BYTES`` bytes,
    or fewer if the file has fewer left, so a short file allocates no whole
    chunk, and the rest of the line they end in.  Each data line becomes one row of
    the table, so its memory follows the number of data lines; rows with
    the same outcome tuple are summed wherever counts are read, so no
    result depends on row order.  The first malformed line is reported with
    its line number.  Outcomes are gathered column by column, and each
    chunk's parts are concatenated once at the end, so the table's
    column-major array is built without another copy.
    """
    import numpy as np

    path = Path(path)
    with _in_file(path):
        names = graph.node_names
        arities = tuple(graph.arity(n) for n in names)
        column_parts = [np.empty((len(names), 0), dtype=_outcome_dtype(arities))]
        count_parts = [np.empty(0, dtype=np.int64)]
        with path.open("rb") as fh:
            lineno, order = _read_header(fh, names)
            # A pipe has no size; it, and a file that grew, are read to their end.
            left = os.fstat(fh.fileno()).st_size - fh.tell() if fh.seekable() else inf
            while body := fh.read(min(CHUNK_BYTES, max(left, 1))):
                body += fh.readline()
                left -= len(body)
                columns, counts, consumed = _read_chunk(body, lineno + 1, names, arities, order)
                column_parts.append(columns)
                count_parts.append(counts)
                lineno += consumed
    return CountTable(names, arities, np.concatenate(column_parts, axis=1).T,
                      np.concatenate(count_parts))


@dataclass(frozen=True, eq=False)
class LearnedCPT:
    """One node's learned table: a row of integer weights per parent configuration.

    `weights` is a ``(configs, arity)`` integer array, row-major over the
    parent arities in declared edge order (a root node has the single empty
    configuration).  In MLE mode it holds the family's counts; in Bayes mode
    the prior plus the counts, i.e. the Dirichlet posterior pseudo-counts.
    Either way a row's distribution is the row over its total, which in
    Bayes mode is the posterior mean.  `dists` and `posteriors` are views
    derived from the array.
    """

    node: str
    parents: tuple[str, ...]
    parent_arities: tuple[int, ...]
    arity: int
    weights: np.ndarray
    mode: str  # "mle" or "bayes"

    @property
    def dists(self) -> tuple[Dist, ...]:
        """Each parent configuration's distribution: its weights over their total."""
        from .dist import Dist  # deferred: `fractions` loads `decimal`, and learn needs neither

        return tuple(Dist.normalise(row) for row in self.weights.tolist())

    @property
    def posteriors(self) -> tuple[HyperParams, ...] | None:
        """Each parent configuration's posterior pseudo-counts; None in MLE mode."""
        if self.mode != "bayes":
            return None
        from .dirichlet import HyperParams

        return tuple(HyperParams(tuple(row)) for row in self.weights.tolist())

    def config_outcomes(self, index: int) -> tuple[int, ...]:
        """Decode a row-major parent configuration index."""
        import numpy as np

        return tuple(int(o) for o in np.unravel_index(index, self.parent_arities))


def _learn(table: CountTable, graph: GraphSpec, mode: str,
           added: Mapping[str, tuple[int, ...]]) -> list[LearnedCPT]:
    """Every node's table: its family counts plus ``added[node]`` in every row.

    A row whose total is zero cannot be normalised, so it aborts the run
    naming the family and the first such parent configuration.
    """
    import numpy as np

    for node, got in zip(table.variables, table.arities):
        if (arity := graph._arity.get(node, got)) != got:
            raise DataError(f"node {node} has arity {arity} in the graph "
                            f"but {got} in the count table")
    cpts = []
    for node in graph.node_names:
        parents = graph.parents(node)
        parent_arities = tuple(graph.arity(p) for p in parents)
        configs, arity = prod(parent_arities), graph.arity(node)
        if len(added[node]) != arity:
            raise DataError(f"prior for {node} has {len(added[node])} entries, arity is {arity}")
        counts = table.marginal_counts(parents + (node,)).counts
        dtype = _count_dtype(table.total() + configs * sum(added[node]))
        weights = (np.array(counts, dtype=dtype).reshape(configs, arity)
                   + np.array(added[node], dtype=dtype))
        weights.flags.writeable = False  # the views derive from it
        cpt = LearnedCPT(node, parents, parent_arities, arity, weights, mode)
        empty = np.flatnonzero(weights.sum(axis=1) == 0)
        if empty.size:
            config = cpt.config_outcomes(int(empty[0]))
            described = ", ".join(f"{p}={o}" for p, o in zip(parents, config)) or "(empty)"
            raise DataError(
                f"family {node} | {','.join(parents) or '()'}: no observations for "
                f"parent configuration {described}; cannot normalise (use bayes mode)"
            )
        cpts.append(cpt)
    return cpts


def learn_mle(table: CountTable, graph: GraphSpec) -> list[LearnedCPT]:
    """Learn every node's table by per-configuration normalisation.

    Each family's counts are marginalised out of the joint table and each
    parent-configuration row is normalised on its own; this agrees exactly
    with normalising the family table first and extracting conditionals.
    A parent configuration with zero observations makes the row
    undefined, so it aborts the run naming the family and configuration
    (the Bayesian mode is the documented remedy for sparse data).
    """
    return _learn(table, graph, "mle", {n: (0,) * a for n, a in graph.nodes})


def parse_prior(raws: Iterable[bytes], graph: GraphSpec) -> dict[str, tuple[int, ...]]:
    """Parse a per-node prior pseudo-count file's lines, one at a time."""
    priors: dict[str, tuple[int, ...]] = {}
    for lineno, text in _lines(raws):
        parts = _fields(text)
        name = parts[0]
        if name not in graph.node_names:
            raise DataError(f"line {lineno}: unknown node {reprlib.repr(name)}")
        if name in priors:
            raise DataError(f"line {lineno}: duplicate prior for {name}")
        values = tuple(_integer(v, lineno) for v in parts[1:])
        if None in values:
            raise DataError(f"line {lineno}: pseudo-counts must be integers")
        if len(values) != graph.arity(name):
            raise DataError(
                f"line {lineno}: {name} needs {graph.arity(name)} pseudo-counts, got {len(values)}"
            )
        if any(v < 1 for v in values):
            raise DataError(f"line {lineno}: pseudo-counts must be >= 1")
        priors[name] = values
    return priors


def load_prior(path: str | Path, graph: GraphSpec) -> dict[str, tuple[int, ...]]:
    """Read and parse a per-node prior pseudo-count file."""
    with _in_file(path), open(path, "rb") as fh:
        return parse_prior(fh, graph)


def learn_bayes(
    table: CountTable,
    graph: GraphSpec,
    prior: Mapping[str, tuple[int, ...]] | None = None,
) -> list[LearnedCPT]:
    """Learn every node's table by conjugate updating of per-row priors.

    For each parent configuration the posterior pseudo-counts are the prior
    plus the observed counts, and the emitted distribution is the posterior
    mean.  Zero-count configurations stay proper (the prior survives), so
    this mode never aborts on sparse data.
    """
    from .dirichlet import HyperParams

    prior = dict(prior or {})
    for name in prior:
        if name not in graph.node_names:
            raise DataError(f"prior given for unknown node {name}")
    # HyperParams refuses a pseudo-count below 1.
    added = {n: HyperParams(prior.get(n, (1,) * a)).counts for n, a in graph.nodes}
    return _learn(table, graph, "bayes", added)


def write_cpts(cpts: list[LearnedCPT], out_dir: str | Path) -> list[Path]:
    """Write one CSV per learned node table; returns the written paths.

    The CSVs are written into a fresh directory inside ``out_dir`` and then
    moved into place one by one.  If any step fails, the files already moved
    are taken back (a file they replaced is restored), and ``out_dir`` is
    removed if this call created it, so ``out_dir`` is left as it was found.
    An error the system raised is re-raised naming the table in ``out_dir``
    (or ``out_dir`` itself) that it stopped, not the staging path.
    """
    out_dir = Path(out_dir)
    created = next((p for p in (*reversed(out_dir.parents), out_dir) if not p.exists()), None)
    names = [f"{cpt.node}.csv" for cpt in cpts]
    staging = None
    moving: list[str] = []
    table = out_dir  # what a failing step was writing, for its message
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".cpt-forge-", dir=out_dir))
        for cpt, name in zip(cpts, names):
            table = out_dir / name
            _write_cpt(cpt, staging / name)
        for name in names:
            table = target = out_dir / name
            moving.append(name)
            if target.is_file() or target.is_symlink():
                os.replace(target, staging / f"{name}.old")
            os.replace(staging / name, target)
    except BaseException as exc:
        for name in reversed(moving):
            target, old = out_dir / name, staging / f"{name}.old"
            if os.path.lexists(old):
                os.replace(old, target)
            elif not (staging / name).exists():
                target.unlink()
        if created or staging:
            shutil.rmtree(created or staging, ignore_errors=True)
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(f"cannot write {table}: {exc.strerror}") from exc
        raise
    shutil.rmtree(staging)
    return [out_dir / name for name in names]


def _write_cpt(cpt: LearnedCPT, path: Path) -> None:
    """Write one table a row at a time: the parent outcomes, in Bayes mode
    the weights, then each weight over the row total as a reduced fraction."""
    bayes = cpt.mode == "bayes"
    header = [*cpt.parents, *(f"a{k}" for k in range(cpt.arity) if bayes),
              *(f"{'mean' if bayes else 'p'}{k}" for k in range(cpt.arity))]
    configs = itertools.product(*map(range, cpt.parent_arities))  # row-major
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for config, row in zip(configs, (row.tolist() for row in cpt.weights)):
            total = sum(row)
            fractions = [f"{w // g}/{total // g}" for w in row for g in [gcd(w, total)]]
            fh.write(",".join(map(str, [*config, *(row if bayes else ()), *fractions])) + "\r\n")
