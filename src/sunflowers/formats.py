"""Family file formats.

Text format: a header line ``x=<ground_size>``, then one set per line as
ascending space-separated integers; ``#`` starts a comment.  Blank lines
are skipped, so the text format cannot express the empty set -- use the
JSON format (``[]``) for families containing it.  An integer is ASCII
digits with an optional leading ``-``: ``+1``, ``1_2`` and other
scripts' digits, which ``int()`` would take, are refused.  Any whitespace
that ``str.split`` reads as whitespace, a no-break space among it,
separates the integers.

JSON format::

    {"ground_size": int, "sets": [[int, ...], ...]}

A ``weights`` key is refused: weights are no longer read.  Both parsers
reject duplicate sets, duplicate elements within a set, and out-of-range
elements, reporting line numbers in the text format.
"""

from __future__ import annotations

import json
from operator import eq, ge

from .families import FamilyError, SetFamily


class ParseError(FamilyError):
    """Malformed family file."""


def parse_family_text(text: str) -> SetFamily:
    """The family in a text file, read in one pass: each set line becomes
    its element tuple by one strictly ascending scan with a range check,
    and the rows, sorted by their tuples (the canonical order), make the
    family without a second sort.  The scan raises a failing line's first
    broken rule, in order: integer tokens, ascending, distinct, in range.
    Lines end at LF, CR LF or CR, as an editor counts them: a form feed or
    U+2028 stays in its line."""
    ground_size = None
    rows: list[tuple[tuple[int, ...], int]] = []  # (elements, line number)
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ground_size is None:
            ground_size = _header(line, raw, lineno)
            continue
        try:
            elems = _integers(line)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer element in {raw!r}") from None
        if any(map(ge, elems, elems[1:])):
            rule = "duplicate element" if sorted(elems) == list(elems) else "elements must be ascending"
            raise ParseError(f"line {lineno}: {rule} in {raw!r}")
        if elems[0] < 0 or elems[-1] >= ground_size:
            raise ParseError(f"line {lineno}: element out of range [0, {ground_size}) in {raw!r}")
        rows.append((elems, lineno))
    if ground_size is None:
        raise ParseError("missing header line 'x=<ground_size>'")
    rows.sort()
    if any(a[0] == b[0] for a, b in zip(rows, rows[1:])):
        seen: dict[tuple[int, ...], int] = {}
        for elems, lineno in sorted(rows, key=lambda row: row[1]):
            if elems in seen:
                raise ParseError(f"line {lineno}: duplicate set (first seen on line {seen[elems]})")
            seen[elems] = lineno
    return SetFamily._canonical(ground_size, [elems for elems, _ in rows])


def _integers(text: str) -> tuple[int, ...]:
    """The whitespace-separated integers of `text`, each ASCII digits with
    an optional leading '-': no '+', '_' or other scripts' digits, which
    int() would take.  Raises ValueError otherwise (and, as int() does,
    past its digit limit).  The one token rule of the text format."""
    tokens = text.split()
    elems = tuple(map(int, tokens))
    # int() took every token, so tokens of ASCII text without '+' or '_'
    # hold only ASCII digits and leading '-' signs (an ASCII text is the
    # common case: its tokens need no join)
    if "+" in text or "_" in text or not (text.isascii() or "".join(tokens).isascii()):
        raise ValueError("not an ASCII integer")
    return elems


def _header(line: str, raw: str, lineno: int) -> int:
    if not line.startswith("x="):
        raise ParseError(f"line {lineno}: expected header 'x=<ground_size>', got {raw!r}")
    try:
        (ground_size,) = _integers(line[2:])
    except ValueError:
        raise ParseError(f"line {lineno}: bad ground size in {raw!r}") from None
    if ground_size < 0:
        raise ParseError(f"line {lineno}: ground size must be >= 0")
    return ground_size


def dump_family_text(family: SetFamily) -> str:
    lines = [f"x={family.ground_size}"]
    for elems in family._element_tuples():
        if not elems:
            raise FamilyError("text format cannot express the empty set; use JSON")
        lines.append(" ".join(map(str, elems)))
    return "\n".join(lines) + "\n"


def parse_family_json(text: str) -> SetFamily:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "ground_size" not in obj or "sets" not in obj:
        raise ParseError("JSON family needs 'ground_size' and 'sets' keys")
    ground_size = obj["ground_size"]
    if not _is_int(ground_size):
        raise ParseError("'ground_size' must be an integer")
    raw_sets = obj["sets"]
    if not isinstance(raw_sets, list):
        raise ParseError("'sets' must be a list of element lists")
    rows = []  # each set's ascending elements
    for i, row in enumerate(raw_sets):
        if not isinstance(row, list) or not all(_is_int(e) for e in row):
            raise ParseError(f"set #{i}: must be a list of integers")
        elems = tuple(sorted(row))
        if any(map(eq, elems, elems[1:])):
            raise ParseError(f"set #{i}: duplicate element in {row}")
        if elems and (elems[0] < 0 or elems[-1] >= ground_size):
            raise ParseError(f"set #{i}: element out of range [0, {ground_size})")
        rows.append(elems)
    rows.sort()
    try:
        family = SetFamily._canonical(ground_size, rows)
    except FamilyError as exc:
        raise ParseError(str(exc)) from None
    if "weights" in obj:
        raise ParseError("weights are no longer read; remove the 'weights' key")
    return family


def _is_int(value) -> bool:
    # bool is an int subclass, but JSON true/false are not integers
    return isinstance(value, int) and not isinstance(value, bool)


def _family_object(family: SetFamily) -> dict:
    """The JSON object of a family: ground size and sets."""
    return {
        "ground_size": family.ground_size,
        "sets": [list(elems) for elems in family._element_tuples()],
    }


def dump_family_json(family: SetFamily) -> str:
    return json.dumps(_family_object(family), sort_keys=True) + "\n"


def load_family(text: str) -> SetFamily:
    """Parse a family file, sniffing JSON vs text: JSON starts with '{'."""
    if text.lstrip().startswith("{"):
        return parse_family_json(text)
    return parse_family_text(text)
