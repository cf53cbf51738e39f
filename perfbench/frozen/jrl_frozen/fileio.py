"""Line-oriented text files for rings and groups.

Ring files:

    ring <name> <order>
    zero <i>
    one <i>
    add
    <order rows of order space-separated indices>
    mul
    <order rows>

Group files use a ``group <name> <order>`` header, an ``identity <i>``
line and a single ``mul`` table.  ``#`` starts a comment, blank lines are
ignored, indices are 0-based.  Parsed tables always go through full
validation, so a well-formed file with bad algebra raises the same typed
errors as direct construction.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Tuple, Union

from .errors import ParseError
from .groups import FiniteGroup
from .rings import FiniteRing


def _statements(text: str) -> Iterator[Tuple[int, List[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


class _Cursor:
    """Statement stream with one-line lookahead and error positions."""

    def __init__(self, text: str, path: str):
        self.items = list(_statements(text))
        self.pos = 0
        self.path = path
        self.last_line = 1

    def next(self, what: str) -> Tuple[int, List[str]]:
        if self.pos >= len(self.items):
            raise ParseError(f"{self.path}: expected {what}, got end of file",
                             self.last_line)
        lineno, toks = self.items[self.pos]
        self.pos += 1
        self.last_line = lineno
        return lineno, toks

    def done(self) -> None:
        if self.pos < len(self.items):
            lineno, toks = self.items[self.pos]
            raise ParseError(f"{self.path}: unexpected trailing {toks[0]!r}", lineno)


def _keyword_int(cur: _Cursor, keyword: str) -> int:
    lineno, toks = cur.next(f"'{keyword} <i>'")
    if len(toks) != 2 or toks[0] != keyword:
        raise ParseError(f"{cur.path}: expected '{keyword} <i>'", lineno)
    try:
        return int(toks[1])
    except ValueError:
        raise ParseError(f"{cur.path}: {keyword} index {toks[1]!r} is not an integer",
                         lineno)


def _table(cur: _Cursor, keyword: str, order: int) -> List[List[int]]:
    lineno, toks = cur.next(f"'{keyword}'")
    if toks != [keyword]:
        raise ParseError(f"{cur.path}: expected '{keyword}' table header", lineno)
    rows: List[List[int]] = []
    for _ in range(order):
        lineno, toks = cur.next(f"{keyword} table row")
        try:
            row = [int(t) for t in toks]
        except ValueError:
            raise ParseError(f"{cur.path}: non-integer entry in {keyword} row", lineno)
        if len(row) != order:
            raise ParseError(
                f"{cur.path}: {keyword} row has {len(row)} entries, expected {order}",
                lineno)
        bad = [v for v in row if not 0 <= v < order]
        if bad:
            raise ParseError(
                f"{cur.path}: {keyword} entry {bad[0]} out of range 0..{order - 1}",
                lineno)
        rows.append(row)
    return rows


def _header(cur: _Cursor, kind: str) -> Tuple[str, int]:
    lineno, toks = cur.next(f"'{kind} <name> <order>'")
    if len(toks) != 3 or toks[0] != kind:
        raise ParseError(f"{cur.path}: expected '{kind} <name> <order>' header", lineno)
    try:
        order = int(toks[2])
    except ValueError:
        raise ParseError(f"{cur.path}: order {toks[2]!r} is not an integer", lineno)
    if order < 1:
        raise ParseError(f"{cur.path}: order must be at least 1", lineno)
    return toks[1], order


def parse_ring_text(text: str, path: str = "<string>") -> FiniteRing:
    cur = _Cursor(text, path)
    name, order = _header(cur, "ring")
    zero = _keyword_int(cur, "zero")
    one = _keyword_int(cur, "one")
    add = _table(cur, "add", order)
    mul = _table(cur, "mul", order)
    cur.done()
    return FiniteRing(name, add, mul, zero, one)


def parse_group_text(text: str, path: str = "<string>") -> FiniteGroup:
    cur = _Cursor(text, path)
    name, order = _header(cur, "group")
    identity = _keyword_int(cur, "identity")
    mul = _table(cur, "mul", order)
    cur.done()
    return FiniteGroup(name, mul, identity)


def parse_ring_file(path: Union[str, os.PathLike]) -> FiniteRing:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ring_text(fh.read(), str(path))


def parse_group_file(path: Union[str, os.PathLike]) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read(), str(path))


def load_structure(path: Union[str, os.PathLike]) -> Union[FiniteRing, FiniteGroup]:
    """Parse a file as a ring or a group, dispatching on its header."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for lineno, toks in _statements(text):
        if toks[0] == "ring":
            return parse_ring_text(text, str(path))
        if toks[0] == "group":
            return parse_group_text(text, str(path))
        raise ParseError(f"{path}: first statement must be 'ring' or 'group'", lineno)
    raise ParseError(f"{path}: empty file", 1)


def _format_table(rows) -> List[str]:
    width = max(len(str(int(v))) for row in rows for v in row)
    return [" ".join(str(int(v)).rjust(width) for v in row) for row in rows]


def ring_file_text(ring: FiniteRing) -> str:
    lines = [f"ring {ring.name} {ring.order}",
             f"zero {ring.zero}",
             f"one {ring.one}",
             "add"]
    lines += _format_table(ring.add_table)
    lines.append("mul")
    lines += _format_table(ring.mul_table)
    return "\n".join(lines) + "\n"


def group_file_text(group: FiniteGroup) -> str:
    lines = [f"group {group.name} {group.order}",
             f"identity {group.identity}",
             "mul"]
    lines += _format_table(group.table)
    return "\n".join(lines) + "\n"


def write_ring_file(ring: FiniteRing, path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ring_file_text(ring))


def write_group_file(group: FiniteGroup, path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(group_file_text(group))
