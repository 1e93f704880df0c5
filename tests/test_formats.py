import json

import pytest
from hypothesis import given, strategies as st

from sunflowers import (
    ParseError,
    SetFamily,
    dump_family_json,
    dump_family_text,
    load_family,
    parse_family_json,
    parse_family_text,
)
from sunflowers.cli import main

from _oracles import parse_family_json_row_by_row, parse_family_text_line_by_line


def test_text_round_trip():
    fam = SetFamily(6, [[0, 1], [2, 3], [1, 4, 5]])
    assert parse_family_text(dump_family_text(fam)) == fam


def test_text_comments_and_blank_lines():
    fam = parse_family_text("# header comment\nx=4\n\n0 1  # trailing\n2 3\n")
    assert [s.elements for s in fam.members] == [(0, 1), (2, 3)]


def test_text_duplicate_element_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_family_text("x=4\n0 1\n1 1 2\n")


def test_text_duplicate_set_reports_both_lines():
    with pytest.raises(ParseError, match="line 3.*line 2"):
        parse_family_text("x=4\n0 1\n0 1\n")
    # the first repeat in file order, not in canonical order
    with pytest.raises(ParseError, match=r"line 4: duplicate set \(first seen on line 2\)"):
        parse_family_text("x=4\n2 3\n0 1\n2 3\n0 1\n")


def test_text_out_of_range_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_family_text("x=4\n0 4\n")


def test_text_requires_ascending():
    with pytest.raises(ParseError, match="ascending"):
        parse_family_text("x=4\n1 0\n")


def test_text_missing_header():
    with pytest.raises(ParseError, match="header"):
        parse_family_text("0 1\n")


def test_text_non_integer():
    with pytest.raises(ParseError, match="non-integer"):
        parse_family_text("x=4\n0 a\n")
    # past int()'s digit limit a token is refused, not an uncaught ValueError
    with pytest.raises(ParseError, match="line 2: non-integer"):
        parse_family_text("x=4\n" + "1" * 5000 + "\n")
    with pytest.raises(ParseError, match="line 1: bad ground size"):
        parse_family_text("x=" + "1" * 5000 + "\n")


@pytest.mark.parametrize("mark", ["\u2028", "\f", "\x85", "\x1e"])
def test_text_lines_end_only_at_universal_newlines(mark):
    # splitlines() would end the comment at the mark and read 'b' as a set line
    fam = parse_family_text(f"x=3\n0 1 # a{mark}b\n1 2\n")
    assert [s.elements for s in fam.members] == [(0, 1), (1, 2)]
    with pytest.raises(ParseError, match=r"^line 4: non-integer element in '0 x'$"):
        parse_family_text(f"x=3\n0 1 # a{mark}b\n1 2\n0 x\n")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_text_line_numbers_count_every_newline_form(newline):
    text = newline.join(["x=3", "0 1 # a\u2028b", "", "1 2", "0 2 # \f", "2 1", ""])
    assert len(parse_family_text(text.replace("2 1", "0"))) == 4
    with pytest.raises(ParseError, match="^line 6: elements must be ascending"):
        parse_family_text(text)


def test_text_cannot_express_empty_set():
    fam = SetFamily(3, [[]])
    with pytest.raises(Exception, match="empty set"):
        dump_family_text(fam)


def test_json_round_trip():
    fam = SetFamily(5, [[0, 2], [1, 3, 4], []])
    assert parse_family_json(dump_family_json(fam)) == fam


def test_json_rejects_duplicates_and_range():
    with pytest.raises(ParseError):
        parse_family_json('{"ground_size": 4, "sets": [[0, 0]]}')
    with pytest.raises(ParseError):
        parse_family_json('{"ground_size": 4, "sets": [[0, 1], [0, 1]]}')
    with pytest.raises(ParseError):
        parse_family_json('{"ground_size": 4, "sets": [[4]]}')


def test_json_rejects_malformed():
    with pytest.raises(ParseError):
        parse_family_json("{nope")
    with pytest.raises(ParseError):
        parse_family_json('{"sets": [[0]]}')
    for weights in ('["1"]', "[]", "null"):
        with pytest.raises(ParseError, match="^weights are no longer read"):
            parse_family_json(f'{{"ground_size": 2, "sets": [[0]], "weights": {weights}}}')


def test_load_family_sniffs_format():
    assert load_family("x=2\n0 1\n") == SetFamily(2, [[0, 1]])
    assert load_family('{"ground_size": 2, "sets": [[0, 1]]}') == SetFamily(2, [[0, 1]])


def test_json_rejects_booleans_as_integers():
    with pytest.raises(ParseError, match="ground_size"):
        parse_family_json('{"ground_size": true, "sets": [[0]]}')
    with pytest.raises(ParseError, match="set #1"):
        parse_family_json('{"ground_size": 3, "sets": [[0], [false, 2]]}')


def test_json_weighted_duplicate_sets_reported_as_duplicates():
    text = '{"ground_size": 4, "sets": [[0, 1], [0, 1]], "weights": ["1", "2"]}'
    with pytest.raises(ParseError, match="duplicate member") as exc:
        parse_family_json(text)
    assert "weight" not in str(exc.value)


# -- ASCII integers only -------------------------------------------------------

@pytest.mark.parametrize("text, lineno, kind", [
    ("x=1_2\n0\n", 1, "bad ground size"),
    ("x=+3\n0\n", 1, "bad ground size"),
    ("x=\uff13\n0\n", 1, "bad ground size"),  # full-width 3
    ("# c\nx=20\n1_0\n", 3, "non-integer element"),
    ("x=3\n+1\n", 2, "non-integer element"),
    ("x=3\n0 \uff12\n", 2, "non-integer element"),  # full-width 2
    ("x=3\n\u0661\n", 2, "non-integer element"),  # Arabic-Indic 1
    ("x=3\n0\u00a0\uff12\n", 2, "non-integer element"),  # after a no-break space
    ("x=\u3000\uff13\n0\n", 1, "bad ground size"),  # after an ideographic space
])
def test_text_refuses_tokens_other_than_ascii_digits(text, lineno, kind):
    # int() takes every one of these tokens
    with pytest.raises(ParseError, match=f"line {lineno}: {kind}"):
        parse_family_text(text)


@pytest.mark.parametrize("line, rule", [
    ("3 1 1", "elements must be ascending"),
    ("2 1 9", "elements must be ascending"),
    ("1 1 9", "duplicate element"),
    ("-1 -1", "duplicate element"),
    ("-1 0 9", "element out of range [0, 5)"),
    ("0 x 9 9", "non-integer element"),
])
def test_text_line_breaking_several_rules_names_the_first(line, rule):
    # the rules in order: integer tokens, ascending, distinct, in range
    text = f"x=5\n{line}\n"
    with pytest.raises(ParseError) as ours:
        parse_family_text(text)
    with pytest.raises(ParseError) as oracle:
        parse_family_text_line_by_line(text)
    assert str(ours.value) == str(oracle.value) == f"line 2: {rule} in {line!r}"


def test_text_negative_element_is_out_of_range():
    with pytest.raises(ParseError, match="line 2: element out of range"):
        parse_family_text("x=4\n-1 2\n")
    with pytest.raises(ParseError, match="line 1: ground size must be >= 0"):
        parse_family_text("x=-4\n")


@pytest.mark.parametrize("gap", ["\u00a0", "\u2003", "\u3000", "\x1f"])
def test_text_takes_ascii_integers_between_any_whitespace(capsys, tmp_path, gap):
    # the rule is on the tokens: whitespace outside ASCII still separates them
    text = f"x={gap}3\n0{gap}1\n{gap}2\n"
    assert parse_family_text(text) == SetFamily(3, [[0, 1], [2]])
    path = tmp_path / "gaps.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    for bad, kind in [(f"1{gap}0", "elements must be ascending"), (f"0{gap}3", "element out of range"),
                      (f"1{gap}1", "duplicate element")]:
        with pytest.raises(ParseError, match=f"line 2: {kind}"):
            parse_family_text(f"x=3\n{bad}\n")
    capsys.readouterr()


def test_cli_refuses_a_non_ascii_digit_with_exit_three(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("x=3\n0 \uff12\n", encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert "line 2: non-integer element" in capsys.readouterr().err


# -- one-pass parsers against the line-by-line oracles --------------------------

@st.composite
def family_rows(draw, min_size=1):
    x = draw(st.integers(1, 9))
    member = st.lists(st.integers(0, x - 1), min_size=min_size, unique=True).map(sorted)
    rows = draw(st.lists(member, unique_by=tuple, max_size=12))
    return x, draw(st.permutations(rows))


@st.composite
def family_texts(draw):
    """A valid text file with shuffled rows, spacing, comments and blank lines."""
    x, rows = draw(family_rows())
    gap = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0", " \u2003", "\u3000", "\x1f"])
    lines = [draw(st.sampled_from(["", "# family", "   "])), f"x={x}"]
    for row in rows:
        line = draw(gap).join(map(str, row))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line
                     + draw(st.sampled_from(["", "  # note", "#", " ", " # a\u2028b\fc"])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# between", " \t"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@given(family_texts())
def test_text_parser_equals_line_by_line_oracle(text):
    family = parse_family_text(text)
    assert family == parse_family_text_line_by_line(text)
    assert family.uniformity == parse_family_text_line_by_line(text).uniformity
    assert family._element_tuples() == tuple(s.elements for s in family.members)


def _corrupt(draw, text):
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines)
            if line.split("#", 1)[0].strip() and not line.lstrip().startswith("x=")]
    header = next(i for i, line in enumerate(lines) if line.lstrip().startswith("x="))
    x = int(lines[header].split("=", 1)[1])
    kind = draw(st.sampled_from(["descending", "duplicate element", "duplicate set",
                                 "out of range", "non-integer", "missing header"]))
    if kind == "missing header":
        del lines[header]
        return "\n".join(lines)
    at = draw(st.integers(header + 1, len(lines)))
    if kind == "duplicate set" and rows:
        lines.insert(at, lines[draw(st.sampled_from(rows))])
        return "\n".join(lines)
    e = draw(st.integers(0, x - 1))
    bad = {
        "descending": f"{e + 1} {e}",
        "duplicate element": f"{e} {e}",
        "duplicate set": f"{e}\n{e}",
        "out of range": " ".join(map(str, sorted({e, draw(st.sampled_from([x, x + 3, -1]))}))),
        "non-integer": f"{e} " + draw(st.sampled_from(["a", "1.5", "0x1", "--1", "1-", "-", "1e3"])),
    }[kind]
    lines.insert(at, bad)
    return "\n".join(lines)


@given(family_texts(), st.data())
def test_text_parser_errors_equal_line_by_line_oracle(text, data):
    bad = _corrupt(data.draw, text)
    with pytest.raises(ParseError) as expected:
        parse_family_text_line_by_line(bad)
    with pytest.raises(ParseError) as got:
        parse_family_text(bad)
    assert str(got.value) == str(expected.value)


@st.composite
def json_texts(draw):
    """A JSON family with shuffled rows (the empty set allowed) and rows in
    any element order; or one of the malformed kinds, among them a family
    that carries the refused 'weights' key."""
    x, rows = draw(family_rows(min_size=0))
    rows = [draw(st.permutations(row)) for row in rows]
    obj = {"ground_size": x, "sets": rows}
    kind = draw(st.sampled_from(["valid", "valid", "duplicate element", "duplicate set",
                                 "out of range", "non-integer", "weights",
                                 "negative ground", "missing key"]))
    e = draw(st.integers(0, x - 1))
    at = draw(st.integers(0, len(rows)))
    if kind == "duplicate element":
        rows.insert(at, [e, e])
    elif kind == "duplicate set" and rows:
        rows.insert(at, list(reversed(draw(st.sampled_from(rows)))))
    elif kind == "out of range":
        rows.insert(at, [e, draw(st.sampled_from([x, -1]))])
    elif kind == "non-integer":
        rows.insert(at, [e, draw(st.sampled_from([1.5, "1", True, None]))])
    elif kind == "weights":
        obj["weights"] = draw(st.sampled_from([["1"] * len(rows), ["x"], [], None]))
    elif kind == "negative ground":
        obj = {"ground_size": -1, "sets": draw(st.sampled_from([[], [[]]]))}
    elif kind == "missing key":
        del obj["sets"]
    return json.dumps(obj)


@given(json_texts())
def test_json_parser_equals_row_by_row_oracle(text):
    try:
        expected = parse_family_json_row_by_row(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_family_json(text)
        assert str(got.value) == str(exc)
        return
    got = parse_family_json(text)
    assert got == expected
    assert got._element_tuples() == tuple(s.elements for s in got.members)
