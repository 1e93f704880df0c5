from fractions import Fraction

import pytest

from sunflowers import (
    ParseError,
    SetFamily,
    WeightedFamily,
    dump_family_json,
    dump_family_text,
    load_family,
    parse_family_json,
    parse_family_text,
)


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


def test_text_cannot_express_empty_set():
    fam = SetFamily(3, [[]])
    with pytest.raises(Exception, match="empty set"):
        dump_family_text(fam)


def test_json_round_trip():
    fam = SetFamily(5, [[0, 2], [1, 3, 4], []])
    assert parse_family_json(dump_family_json(fam)) == fam


def test_json_weights_round_trip():
    fam = SetFamily(4, [[0, 1], [2, 3]])
    wf = WeightedFamily(fam, [Fraction(1, 3), 2])
    back = parse_family_json(dump_family_json(wf))
    assert isinstance(back, WeightedFamily)
    assert back.family == fam
    assert back.weights == (Fraction(1, 3), Fraction(2))


def test_json_weights_follow_canonical_reordering():
    text = '{"ground_size": 4, "sets": [[2, 3], [0, 1]], "weights": ["5", "7"]}'
    wf = parse_family_json(text)
    assert [s.elements for s in wf.family.members] == [(0, 1), (2, 3)]
    assert wf.weights == (Fraction(7), Fraction(5))


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
    with pytest.raises(ParseError, match="weight"):
        parse_family_json('{"ground_size": 2, "sets": [[0]], "weights": ["x"]}')


def test_load_family_sniffs_format():
    assert load_family("x=2\n0 1\n") == SetFamily(2, [[0, 1]])
    assert load_family('{"ground_size": 2, "sets": [[0, 1]]}') == SetFamily(2, [[0, 1]])
    assert load_family("x=2\n0 1\n", fmt="text") == SetFamily(2, [[0, 1]])


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
