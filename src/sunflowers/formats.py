"""Family file formats.

Text format: a header line ``x=<ground_size>``, then one set per line as
ascending space-separated integers; ``#`` starts a comment.  Blank lines
are skipped, so the text format cannot express the empty set -- use the
JSON format (``[]``) for families containing it.

JSON format::

    {"ground_size": int, "sets": [[int, ...], ...], "weights": ["1/3", ...]?}

Weights are rational strings and align with ``sets`` in file order.  Both
parsers reject duplicate sets, duplicate elements within a set, and
out-of-range elements, reporting line numbers in the text format.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Union

from .families import ElementSet, FamilyError, SetFamily, WeightedFamily


class ParseError(FamilyError):
    """Malformed family file."""


def parse_family_text(text: str) -> SetFamily:
    ground_size = None
    rows: list[tuple[int, list[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ground_size is None:
            if not line.startswith("x="):
                raise ParseError(f"line {lineno}: expected header 'x=<ground_size>', got {raw!r}")
            try:
                ground_size = int(line[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad ground size in {raw!r}") from None
            if ground_size < 0:
                raise ParseError(f"line {lineno}: ground size must be >= 0")
            continue
        try:
            elems = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer element in {raw!r}") from None
        if sorted(elems) != elems:
            raise ParseError(f"line {lineno}: elements must be ascending in {raw!r}")
        if len(set(elems)) != len(elems):
            raise ParseError(f"line {lineno}: duplicate element in {raw!r}")
        if any(e < 0 or e >= ground_size for e in elems):
            raise ParseError(f"line {lineno}: element out of range [0, {ground_size}) in {raw!r}")
        rows.append((lineno, elems))
    if ground_size is None:
        raise ParseError("missing header line 'x=<ground_size>'")
    seen: dict[tuple[int, ...], int] = {}
    for lineno, elems in rows:
        key = tuple(elems)
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate set (first seen on line {seen[key]})")
        seen[key] = lineno
    return SetFamily(ground_size, (ElementSet(elems) for _, elems in rows))


def dump_family_text(family: SetFamily) -> str:
    lines = [f"x={family.ground_size}"]
    for s in family.members:
        if len(s) == 0:
            raise FamilyError("text format cannot express the empty set; use JSON")
        lines.append(" ".join(str(e) for e in s.elements))
    return "\n".join(lines) + "\n"


def parse_family_json(text: str) -> Union[SetFamily, WeightedFamily]:
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
    sets = []
    for i, row in enumerate(raw_sets):
        if not isinstance(row, list) or not all(_is_int(e) for e in row):
            raise ParseError(f"set #{i}: must be a list of integers")
        if len(set(row)) != len(row):
            raise ParseError(f"set #{i}: duplicate element in {row}")
        if any(e < 0 or e >= ground_size for e in row):
            raise ParseError(f"set #{i}: element out of range [0, {ground_size})")
        sets.append(ElementSet(row))
    weights = obj.get("weights")
    if weights is not None and (not isinstance(weights, list) or len(weights) != len(sets)):
        raise ParseError("'weights' must align one-to-one with 'sets'")
    try:
        family = SetFamily(ground_size, sets)
    except FamilyError as exc:
        raise ParseError(str(exc)) from None
    if weights is None:
        return family
    try:
        by_set = {s: Fraction(str(w)) for s, w in zip(sets, weights)}
        return WeightedFamily(family, [by_set[s] for s in family.members])
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad weight: {exc}") from None


def _is_int(value) -> bool:
    # bool is an int subclass, but JSON true/false are not integers
    return isinstance(value, int) and not isinstance(value, bool)


def _family_object(family: Union[SetFamily, WeightedFamily]) -> dict:
    """The JSON object of a family: ground size, sets, and any weights."""
    if isinstance(family, WeightedFamily):
        return {**_family_object(family.family), "weights": [str(w) for w in family.weights]}
    return {
        "ground_size": family.ground_size,
        "sets": [list(s.elements) for s in family.members],
    }


def dump_family_json(family: Union[SetFamily, WeightedFamily]) -> str:
    return json.dumps(_family_object(family), sort_keys=True) + "\n"


def load_family(text: str, fmt: Optional[str] = None) -> Union[SetFamily, WeightedFamily]:
    """Parse a family file, sniffing JSON vs text when fmt is None."""
    if fmt == "json":
        return parse_family_json(text)
    if fmt == "text":
        return parse_family_text(text)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_family_json(text)
    return parse_family_text(text)
