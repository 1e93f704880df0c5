"""The report records: NamedTuples that the CLI reports field by field, in declared order."""

from fractions import Fraction

import pytest

from sunflowers import (
    ElementSet,
    FamilyError,
    SetFamily,
    Sunflower,
    audit_encoding_bound,
    audit_markov_step,
    bound_report,
    check_satisfying_disjoint,
    crossover_report,
    find_any,
    find_spread_link,
    sample_satisfying,
    three_sunflower_bound,
)
from sunflowers.cli import jsonable, main

# transversal 3 2: one of {0, 1} x one of {2, 3} x one of {4, 5}
TRANSVERSAL_TEXT = "x=6\n0 2 4\n0 2 5\n0 3 4\n0 3 5\n1 2 4\n1 2 5\n1 3 4\n1 3 5\n"
TRANSVERSAL = SetFamily(6, [[int(e) for e in line.split()]
                            for line in TRANSVERSAL_TEXT.splitlines()[1:]])


def records():
    """One record of each type, keyed by its type's name."""
    outcome = find_any(TRANSVERSAL, 2, strategy="recursive")
    crossover = crossover_report(4, 3, digits=8)
    recs = [outcome, outcome.trace, outcome.trace.levels[0], crossover, crossover.rows[0],
            bound_report("erdos-rado", n=4, r=3), three_sunflower_bound(4, 2, digits=8),
            sample_satisfying(TRANSVERSAL, Fraction(1, 2), 64, 1),
            check_satisfying_disjoint(TRANSVERSAL, 2),
            find_spread_link(TRANSVERSAL, 2, 1),
            audit_encoding_bound(TRANSVERSAL, 2, 2), audit_markov_step(TRANSVERSAL, 2, "1/2", 2)]
    return {type(rec).__name__: rec for rec in recs}


RECORDS = records()


def test_every_record_type_is_covered():
    assert len(RECORDS) == 12  # with Sunflower, the package's 13 record types


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_jsonable_reports_the_fields_in_declared_order(name):
    rec = RECORDS[name]
    out = jsonable(rec)
    assert list(out) == list(type(rec)._fields)
    assert list(out.values()) == [jsonable(v) for v in rec]


def test_one_record_of_each_module_in_declared_order():
    # the text report prints fields in this order; JSON sorts its keys
    outcome = jsonable(RECORDS["SearchOutcome"])
    assert list(outcome) == ["status", "sunflower", "trace", "method", "note"]
    assert list(outcome["sunflower"]) == ["core", "sets"]
    assert list(outcome["trace"]) == ["found", "levels"]
    assert list(outcome["trace"]["levels"][0]) == [
        "depth", "n", "L", "m", "family_size", "outcome", "subfamily", "pivot", "pivot_link",
        "filtered_size", "link_size"]
    crossover = jsonable(RECORDS["CrossoverReport"])
    assert list(crossover) == ["n", "r", "C", "log_base", "digits", "rows", "first_improvement"]
    assert [list(row) for row in crossover["rows"]] == [
        ["d", "d_intersecting", "falling_factorial", "smaller"]] * 4
    assert crossover["rows"][0] == {"d": 1, "d_intersecting": "68342.473",
                                    "falling_factorial": "16", "smaller": "falling-factorial"}
    assert list(jsonable(RECORDS["SatisfyingEstimate"])) == [
        "alpha", "trials", "successes", "seed", "estimate", "stderr"]
    assert list(jsonable(RECORDS["MarkovAudit"])) == [
        "x", "n", "d", "w_size", "p", "delta", "family_size", "num_w", "exceed_count",
        "fraction", "rhs", "vacuous", "holds"]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_setting_a_field_is_an_attribute_error(name):
    rec = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        rec.not_a_field = None


def test_records_are_tuples_of_their_fields():
    est = RECORDS["SatisfyingEstimate"]
    alpha, trials, successes, seed, estimate, stderr = est
    assert (alpha, trials, seed) == (0.5, 64, 1) and est[1] == 64
    assert est == (alpha, trials, successes, seed, estimate, stderr)


def test_replace_checks_a_certificate_again():
    flower = Sunflower((ElementSet([0, 1]), ElementSet([0, 2])), ElementSet([0]))
    assert flower._replace(petal_sets=(ElementSet([0, 3]), ElementSet([0, 4]))).r == 2
    with pytest.raises(FamilyError):
        flower._replace(core=ElementSet([]))


FIND_TEXT = """\
subcommand: find
input_digest: sha256:82d0d2b599ff8310dd92ca2ad591086af9c4f0e39af67a77e5c31297c275a97c
parameters:
  r: 2
  strategy: recursive
  budget: 500000
seeds: null
outputs:
  status: found
  method: recursive
  note:
  sunflower:
    core:
      - 0
      - 2
    sets:
      -
        - 0
        - 2
        - 4
      -
        - 0
        - 2
        - 5
  trace:
    found: true
    levels:
      depth  n  L          m  family_size  outcome         subfamily               pivot      pivot_link  filtered_size  link_size
      0      3  [0, 1, 2]  7  8            recursed        [[0, 2, 4], [1, 3, 5]]  [0, 2, 4]  [0]         7              4
      1      2  [0, 1]     7  4            recursed        [[2, 4], [3, 5]]        [2, 4]     [2]         3              2
      2      1  [0]        7  2            base-extracted  null                    null       null        null           null
"""

CROSSOVER_TEXT = """\
subcommand: bounds
input_digest: null
parameters:
  which: crossover
  n: 4
  r: 3
  s: null
  L: null
  d: null
  C: 1
  digits: 8
  log_base: e
seeds: null
outputs:
  crossover:
    n: 4
    r: 3
    C: 1
    log_base: e
    digits: 8
    rows:
      d  d_intersecting  falling_factorial  smaller
      1  68342.473       16                 falling-factorial
      2  599138.06       96                 falling-factorial
      3  5938983.1       384                falling-factorial
      4  64039852.0      768                falling-factorial
    first_improvement: null
"""


def _text_report(capsys, *argv):
    code = main([*argv, "--format", "text"])
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[-1].startswith("wall_time_s: ")
    return code, "".join(lines[:-1])


def test_text_reports_of_find_and_crossover_are_unchanged(capsys, tmp_path):
    fam = tmp_path / "transversal.txt"
    fam.write_text(TRANSVERSAL_TEXT)
    assert _text_report(capsys, "find", str(fam), "--r", "2", "--strategy", "recursive") == (
        0, FIND_TEXT)
    assert _text_report(capsys, "bounds", "--which", "crossover", "-n", "4", "-r", "3",
                        "--digits", "8") == (0, CROSSOVER_TEXT)
