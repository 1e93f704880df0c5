import decimal
import json
import math
import time
from fractions import Fraction

import mpmath as mp
import pytest

from sunflowers.bounds import (
    BOUND_NAMES,
    bound_report,
    certified_compare,
    crossover_report,
    d_intersecting_bound,
    erdos_rado_bound,
    falling_factorial_bound,
    l_intersecting_bound,
    l_multinomial_bound,
    pigeonhole_limit,
    rlogn_bound,
    three_sunflower_bound,
)

from _cli import run, strip_wall_time


def as_mpf(decimal_str, dps=120):
    with mp.workdps(dps):
        return mp.mpf(decimal_str)


def rel_close(a, b, tol):
    with mp.workdps(150):
        a, b = mp.mpf(a), mp.mpf(b)
        return abs(a - b) <= tol * max(abs(a), abs(b))


# -- exact bounds -------------------------------------------------------------

def test_erdos_rado_values():
    assert erdos_rado_bound(1, 5) == 4
    assert erdos_rado_bound(3, 3) == 48
    assert erdos_rado_bound(10, 3) == 3715891200


def test_pigeonhole_limit_values():
    assert pigeonhole_limit(3, 3) == 7
    assert pigeonhole_limit(1, 100) == 99
    assert pigeonhole_limit(2, 3) == 3


def test_l_intersecting_bound_values():
    # s = 1 collapses to 2^n * m
    for n, r in [(2, 3), (4, 5), (6, 2)]:
        assert l_intersecting_bound(n, 1, r) == 2**n * pigeonhole_limit(n, r)
    assert l_intersecting_bound(3, 1, 3) == 56
    assert l_intersecting_bound(4, 2, 3) == 13689


def test_l_multinomial_bound_values():
    assert l_multinomial_bound(2, [0], 3) == 6
    assert l_multinomial_bound(3, [0], 3) == 21
    assert l_multinomial_bound(3, [0, 1], 3) == 294


def test_l_multinomial_at_most_power_form_exhaustively():
    # every nonempty L inside {0..n-1}, n <= 8, several r
    for n in range(1, 9):
        for bits in range(1, 1 << n):
            L = [i for i in range(n) if bits >> i & 1]
            for r in (3, 4, 5):
                assert l_multinomial_bound(n, L, r) <= l_intersecting_bound(n, len(L), r)


def multinomial_by_factorials(n, L, r):
    parts = [L[0] + 1, *(b - a for a, b in zip(L, L[1:])), n - L[-1] - 1]
    multinomial, rem = divmod(math.factorial(n), math.prod(math.factorial(p) for p in parts))
    assert rem == 0
    return multinomial * pigeonhole_limit(n, r) ** len(L)


def test_l_multinomial_is_the_factorial_quotient_on_a_grid():
    # every L for n <= 12; above, every L of one or two sizes and 200 seeded others
    import random

    rng = random.Random(0)
    for n in range(1, 40):
        if n <= 12:
            grid = [[i for i in range(n) if bits >> i & 1] for bits in range(1, 1 << n)]
        else:
            grid = [[a] for a in range(n)] + [[a, b] for a in range(n) for b in range(a + 1, n)]
            grid += [sorted(rng.sample(range(n), rng.randint(3, n))) for _ in range(200)]
        for L in grid:
            for r in (2, 3):
                assert l_multinomial_bound(n, L, r) == multinomial_by_factorials(n, L, r), (n, L)


def test_l_multinomial_checks_its_invariant_without_the_power_form(monkeypatch):
    from sunflowers import bounds

    def no_power(*args):
        raise AssertionError("the power form was made")

    # n(n-1) * m^2 is far below 3^n * m^2: the bit lengths settle it
    power = bounds._l_intersecting
    monkeypatch.setattr(bounds, "_l_intersecting", lambda *args: power(*args)._replace(make=no_power))
    n = 10**7
    assert l_multinomial_bound(n, [0, 1], 3) == n * (n - 1) * pigeonhole_limit(n, 3) ** 2
    monkeypatch.undo()
    # a multinomial over (s+1)^n is still caught
    monkeypatch.setattr(bounds.math, "comb", lambda c, p: 3**c)
    with pytest.raises(bounds.InvariantError, match="exceeds the L-intersecting bound"):
        l_multinomial_bound(6, [1, 3], 3)


def no_exact_value(monkeypatch):
    """Make math.factorial, math.perm and math.comb fail the test."""
    def no_value(*args):
        raise AssertionError("the exact value was computed")

    for name in ("factorial", "perm", "comb"):
        monkeypatch.setattr(math, name, no_value)


def test_l_multinomial_far_over_the_digit_limit_is_refused_before_it_is_made(
        monkeypatch, capsys):
    from sunflowers.cli import main

    no_exact_value(monkeypatch)
    # C(10^7, 5 * 10^6) * (10^14 - 10^7 + 1) has 3010311 digits; (10^7 / (5 * 10^6))^(5 * 10^6)
    # gives the lower bound
    started = time.perf_counter()
    assert main(["bounds", "--which", "l-multinomial", "-n", "10000000", "--L", "4999999",
                 "-r", "3"]) == 3
    assert time.perf_counter() - started < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exact value has at least 1505164 digits, over the limit of 4300\n"


def test_each_exact_bound_has_between_its_bits_and_2_05_times_them():
    # so no value of at most 4300 digits is refused before it is made, and none let through
    # has more than about 8800 digits
    import random

    from sunflowers import bounds

    rng = random.Random(0)
    sized = []
    for n in (*range(1, 16), 127, 128, 1023, 2046, 2882, 3000, *rng.sample(range(16, 3000), 6)):
        for r in (2, 3, 4, 9, rng.randint(10, 10**6)):
            sized += [bounds._erdos_rado(n, r), bounds._pigeonhole(n, r)]
            sized += [bounds._falling_factorial(n, d, r)
                      for d in {0, 1, 2, n // 3, n // 2, n - 1, n, rng.randint(0, n)} if d <= n]
            sized += [bounds._l_intersecting(n, s, r) for s in (1, 2, 3, rng.randint(4, 60))]
            sized += [bounds._l_multinomial(n, L, r) for L in (
                [0], [n - 1], [n // 2], rng.sample(range(n), rng.randint(1, n)))]
    # C(2882, 1380) m: logs taken in 16ths of a bit give it 0.4845 of its bits, under 1/2.05
    sized.append(bounds._l_multinomial(2882, [1379], 3))
    for exact in sized:
        value = exact.make()
        assert exact.bits <= value.bit_length() <= 2.05 * exact.bits, (exact.bits, value)
        if value < 10**4300:
            assert exact.decimal_for_report() == str(decimal.Decimal(value))
        assert exact.below(value + 1) and not exact.below(value)


def test_log10_comb_is_within_a_tenth_of_a_digit():
    # the exact bounds size their binomials and ratios in integers, by _log2_64ths
    from sunflowers.bounds import _log2_64ths

    def digits(log2_64ths):
        return log2_64ths / 64 * math.log10(2)

    for c in range(0, 300, 7):
        for k in range(c + 1):
            comb = math.comb(c, k)
            assert abs(digits(_log2_64ths(comb)) - math.log10(comb)) < 0.1, (c, k)
            if k:
                assert abs(digits(_log2_64ths(c, k)) - math.log10(c / k)) < 0.1, (c, k)
    # parameters past the integers a float holds, and a ratio of two binomials of 2000 digits
    for c, k in ((2**62 + 2**9, 2), (2**70 + 2**17, 3), (10**25 + 12345, 100), (10**300, 7)):
        comb = math.comb(c, k)
        assert abs(digits(_log2_64ths(comb)) - math.log10(comb)) < 0.1, (c, k)
        assert abs(digits(_log2_64ths(comb, math.comb(c, k - 1)))
                   - math.log10(comb) + math.log10(math.comb(c, k - 1))) < 0.1, (c, k)


@pytest.mark.parametrize("log_base", [
    "e", Fraction(7, 3), Fraction(1001, 1000), Fraction(10**30),
    Fraction(10**310 + 1, 10**310), Fraction(10**400 + 1, 10**400),  # b - 1 below any float
])
def test_each_size_estimate_is_within_a_tenth_of_a_digit_of_its_bound(log_base):
    # every bound's value, exact or an interval's rational endpoints, as _log2_64ths sizes it:
    # at least 1, since no bound is sized below it (rlogn with log base 10^30 is 3.2e-10)
    from sunflowers.bounds import _BOUNDS, _log2_64ths

    given = dict(n=12, r=3, s=2, L=[0, 2], d=4, C=Fraction(3, 2), digits=450, log_base=log_base)
    for name in _BOUNDS:
        report = bound_report(name, **given)
        ends = [report.value] if report.exact else [report.lower, report.upper]
        for end in map(Fraction, ends):
            estimate = _log2_64ths(end.numerator, end.denominator) / 64 * math.log10(2)
            log10 = max(0.0, float(mp.log10(as_mpf(report.value, 500))))
            assert abs(estimate - log10) < 0.1, (
                name, estimate, report.value)


def test_falling_factorial_near_2_to_the_62_is_not_refused():
    # n is past the integers a float holds exactly; the value has 38 digits
    n = 2**62 + 2**9
    assert bound_report("falling-factorial", n=n, d=2, r=3).value == str(8 * n * (n - 1))


@pytest.mark.parametrize("argv, name", [
    (["erdos-rado", "-n", str(10**309), "-r", "3"], "n"),
    (["falling-factorial", "-n", str(10**309), "-d", str(10**309), "-r", "3"], "n"),
    (["crossover", "-n", str(10**309), "-r", "3"], "n"),
    (["l-intersecting", "-n", "3", "-s", str(10**309), "-r", "3"], "s"),
    (["l-multinomial", "-n", str(10**309), "--L", str(10**309 // 2), "-r", "3"], "n"),
])
def test_a_parameter_too_large_for_a_float_is_refused_by_name(capsys, argv, name):
    # the refusal counts, in integers, at least a tenth as many digits as the named parameter
    import re

    from sunflowers.cli import main

    assert main(["bounds", "--which", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    refused = re.fullmatch(r"error: exact value has at least (\d+) digits, over the limit of 4300\n",
                           captured.err)
    assert refused and int(refused[1]) > int(argv[argv.index(f"-{name}") + 1]) // 10


BIG, OUT = str(10**400), str(-10**400)


@pytest.mark.parametrize("argv, message", [
    (["erdos-rado", "-n", BIG, "-r", "1"], "need n >= 1 and r >= 2, got"),
    (["l-intersecting", "-n", BIG, "-s", "1", "-r", "1"], "need n >= 1, s >= 1, r >= 2, got"),
    (["l-multinomial", "-n", BIG, "--L", str(10**400 // 2), "-r", "1"],
     "need n >= 1 and r >= 2, got"),
    (["falling-factorial", "-n", BIG, "-d", BIG, "-r", "1"], "need 0 <= d <= n and r >= 2, got"),
    (["erdos-rado", "-n", OUT, "-r", "3"], "need n >= 1 and r >= 2, got"),
    (["erdos-rado", "-n", "0", "-r", BIG], "need n >= 1 and r >= 2, got"),
    (["pigeonhole-limit", "-n", BIG, "-r", "1"], "need n >= 1 and r >= 2, got"),
    (["pigeonhole-limit", "-n", OUT, "-r", BIG], "need n >= 1 and r >= 2, got"),
    (["l-intersecting", "-n", OUT, "-s", BIG, "-r", "3"], "need n >= 1, s >= 1, r >= 2, got"),
    (["l-intersecting", "-n", BIG, "-s", "0", "-r", "3"], "need n >= 1, s >= 1, r >= 2, got"),
    (["l-multinomial", "-n", OUT, "--L", "0", "-r", "3"], "need n >= 1 and r >= 2, got"),
    (["l-multinomial", "-n", BIG, "--L", BIG, "-r", "3"],
     f"largest intersection size {BIG} must be < n = {BIG}"),
    (["l-multinomial", "-n", BIG, "--L=-1", "-r", "3"], "intersection sizes must be >= 0, got -1"),
    (["falling-factorial", "-n", BIG, "-d", str(10**400 + 1), "-r", "3"],
     "need 0 <= d <= n and r >= 2, got"),
    (["falling-factorial", "-n", OUT, "-d", "0", "-r", "3"], "need 0 <= d <= n and r >= 2, got"),
])
def test_an_exact_bound_outside_its_domain_gives_its_own_message(capsys, argv, message):
    # each exact bound checks its domain before it sizes its value from these huge parameters
    from sunflowers.cli import main

    assert main(["bounds", "--which", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")


def test_a_small_bound_of_a_huge_parameter_is_exact():
    # these values of about 310 and 930 digits are within the limit, and made
    n = 10**309
    assert bound_report("falling-factorial", n=n, d=1, r=3).value == str(4 * n)
    assert bound_report("l-multinomial", n=n, L=[0], r=3).value == str(n * (n * n - n + 1))


EXPONENT_REFUSAL = f"value has a decimal exponent over the limit of {decimal.MAX_EMAX} in size"


@pytest.mark.parametrize("argv, message", [
    (["rlogn", "-n", str(10**400), "-r", "3"], EXPONENT_REFUSAL),
    (["three-sunflower", "-n", "5", "-s", str(10**400)], EXPONENT_REFUSAL),
    (["d-intersecting", "-n", "5", "-d", str(10**400), "-r", "3"], EXPONENT_REFUSAL),
    (["rlogn", "-n", str(10**18), "-r", "3"], f"over the limit of {decimal.MAX_EMAX} in size"),
    (["rlogn", "-n", str(10**17), "-r", "3", "-C", f"1/{10**40}"],
     f"over the limit of {decimal.MAX_EMAX} in size"),
    # outside the bound's domain, the bound's own refusal comes before the size's
    (["three-sunflower", "-n", str(10**400), "-s", "0"], "need n >= 1 and s >= 1, got"),
    (["three-sunflower", "-n", str(-10**400), "-s", "2"], "need n >= 1 and s >= 1, got"),
    (["rlogn", "-n", str(10**400), "-r", "1"], "need n >= 2 (so log n > 0) and r >= 2, got"),
    (["d-intersecting", "-n", str(10**400), "-d", "2", "-r", "1"],
     "need n >= 1, d >= 1, r >= 2, got"),
    (["d-intersecting", "-n", str(-10**400), "-d", "2", "-r", "3"],
     "need n >= 1, d >= 1, r >= 2, got"),
    # ln b of this base rounds down to 0, so the enclosure is [finite, +inf], and its finite
    # endpoint is far too large to make: the infinite one is refused first
    (["rlogn", "-n", str(10**18), "-r", "3", "--log-base", f"{2**400 + 1}/{2**400}"],
     "non-finite interval endpoint; raise --digits"),
    (["d-intersecting", "-n", "3", "-d", str(10**18), "-r", "3",
      "--log-base", f"{2**400 + 1}/{2**400}"], "non-finite interval endpoint; raise --digits"),
], ids=["rlogn-n", "three-sunflower-s", "d-intersecting-d", "rlogn-emax", "rlogn-emin",
        "three-sunflower-s-0", "three-sunflower-n-negative", "rlogn-r-1", "d-intersecting-r-1",
        "d-intersecting-n-negative", "rlogn-log-base-near-one", "d-intersecting-log-base-near-one"])
def test_an_interval_bound_is_refused_before_any_interval(capsys, monkeypatch, argv, message):
    # "interval" is the exact rational enclosure: the mpmath interval is
    # evaluated, but no endpoint is made a Fraction, the big-integer step
    from sunflowers import bounds
    from sunflowers.cli import main

    monkeypatch.setattr(bounds, "_raw_to_fraction",
                        lambda *args: pytest.fail("an exact endpoint was made"))
    started = time.perf_counter()
    assert main(["bounds", "--which", *argv]) == 3
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_an_interval_bound_is_not_held_to_the_exact_digit_limit():
    # (3 ln 20000)^20000 has 29 459 digits, far over the 4300 of an exact
    # value, and well within decimal.MAX_EMAX
    value = bound_report("rlogn", n=20000, r=3, digits=10).value
    assert value.endswith("e+29458")


def test_the_exponent_limit_refuses_no_value_within_it(monkeypatch):
    # the check reads bit lengths only; a value it lets through reaches the endpoints' conversion
    from sunflowers import bounds

    def converted(raw):
        raise LookupError("converted")

    monkeypatch.setattr(bounds, "_raw_to_fraction", converted)
    emax = decimal.MAX_EMAX
    for make, factor in (
            (lambda iv: iv.mpf(10) ** emax, {}),  # an exponent of emax, within the limit
            (lambda iv: iv.mpf(1) / iv.mpf(10) ** emax, {}),  # and of -emax
            (lambda iv: iv.mpf(1) / iv.mpf(10) ** (2 * emax), {"base": 10**10, "power": emax // 5}),
            (lambda iv: iv.mpf(2), {"times": 3, "base": 8, "power": emax}),
    ):
        with pytest.raises(LookupError):
            bounds._enclosure(make, 10, **factor)
    for make, factor in (
            (lambda iv: iv.mpf(10) ** (emax + 1000), {}),
            (lambda iv: iv.mpf(1) / iv.mpf(10) ** (emax + 1000), {}),
            (lambda iv: iv.mpf(2), {"base": 16, "power": emax}),
            (lambda iv: iv.mpf(10) ** -emax, {"base": 8, "power": 3 * emax}),
    ):
        with pytest.raises(ValueError, match=EXPONENT_REFUSAL):
            bounds._enclosure(make, 10, **factor)


def test_a_library_call_past_the_exponent_limit_is_refused_at_once():
    # the exact factors 8^(s-1) and (4r)^n are sized from their bit lengths, never made
    started = time.perf_counter()
    for evaluate in (lambda: three_sunflower_bound(5, 10**400), lambda: rlogn_bound(10**400, 3),
                     lambda: d_intersecting_bound(10**400, 2, 3)):
        with pytest.raises(ValueError, match=EXPONENT_REFUSAL):
            evaluate()
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("exponent", [310, 400])
@pytest.mark.parametrize("which, extra", [("rlogn", []), ("d-intersecting", ["-d", "2"]),
                                          ("all", ["-d", "2"])])
def test_a_log_base_below_any_float_above_one_is_evaluated_as_given(
        capsys, exponent, which, extra):
    # ln b for b = 1 + 10^-exponent underflows the interval at 50 digits, not the size estimate
    from sunflowers.cli import main

    argv = ["bounds", "--which", which, "-n", "3", "-r", "3", *extra,
            "--log-base", f"{10**exponent + 1}/{10**exponent}"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: non-finite interval endpoint; raise --digits\n"
    assert main([*argv, "--digits", "420"]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    if which == "rlogn":  # (3 ln 3 / ln b)^3, and ln b = 10^-exponent to far more than 20 digits
        assert outputs["bound"]["value"].startswith("3.58011619238854977")
        assert outputs["bound"]["value"].endswith(f"e+{3 * exponent + 1}")


def test_falling_factorial_bound_values():
    assert falling_factorial_bound(5, 0, 4) == 3
    assert falling_factorial_bound(3, 1, 3) == 12
    assert falling_factorial_bound(100, 5, 3) == 2**6 * 100 * 99 * 98 * 97 * 96


def test_falling_factorial_full_depth_matches_factorial_bound():
    for n in range(1, 13):
        for r in range(2, 13):
            assert falling_factorial_bound(n, n, r) == erdos_rado_bound(n, r) * (r - 1)


def test_exact_bounds_reproducible():
    assert erdos_rado_bound(7, 4) == erdos_rado_bound(7, 4)
    assert l_multinomial_bound(6, [1, 3], 5) == l_multinomial_bound(6, [1, 3], 5)


def test_parameter_validation():
    with pytest.raises(ValueError):
        erdos_rado_bound(0, 3)
    with pytest.raises(ValueError):
        erdos_rado_bound(3, 1)
    with pytest.raises(ValueError):
        l_intersecting_bound(3, 0, 3)
    with pytest.raises(ValueError):
        l_multinomial_bound(3, [3], 3)  # largest size must be < n
    with pytest.raises(ValueError):
        l_multinomial_bound(3, [], 3)
    with pytest.raises(ValueError):
        falling_factorial_bound(3, 4, 3)
    with pytest.raises(ValueError):
        rlogn_bound(1, 3)
    d_intersecting_bound(3, 1, 2, 1)  # r*d = 2: smallest allowed product
    with pytest.raises(ValueError):
        d_intersecting_bound(3, 1, 2, 0)  # C must be positive
    with pytest.raises(ValueError):
        d_intersecting_bound(3, 0, 3, 1)


# -- real bounds ----------------------------------------------------------------

def test_three_sunflower_collapses_at_s1():
    for n in (1, 2, 5):
        rb = three_sunflower_bound(n, 1)
        assert as_mpf(rb.decimal) == n * n - n + 1
        assert as_mpf(rb.lower) == as_mpf(rb.upper) == n * n - n + 1


def test_three_sunflower_value():
    rb = three_sunflower_bound(3, 2)
    with mp.workdps(80):
        truth = 7 * 8 * mp.mpf(2) ** ((1 + mp.sqrt(5) / 5) * 3)
        assert rel_close(rb.decimal, mp.nstr(truth, 70), mp.mpf("1e-45"))
    assert float(rb) == pytest.approx(1135.408, rel=1e-6)


def test_rlogn_value_and_two_precision_agreement():
    rb50 = rlogn_bound(2, 3, 1, digits=50)
    assert float(rb50) == pytest.approx((3 * math.log(2)) ** 2, rel=1e-12)
    rb120 = rlogn_bound(10, 3, 1, digits=120)
    rb50b = rlogn_bound(10, 3, 1, digits=50)
    assert rel_close(rb50b.decimal, rb120.decimal, mp.mpf("1e-45"))


def test_float_of_a_bound_does_not_depend_on_the_working_precision():
    rb = rlogn_bound(7, 3, digits=30)
    with mp.workdps(5):
        assert float(rb) == float(rb.decimal)
    assert float(rb) == pytest.approx((3 * math.log(7)) ** 7, rel=1e-14)


def test_rlogn_homogeneity_in_C():
    a = rlogn_bound(7, 3, 1, digits=60)
    b = rlogn_bound(7, 3, 2, digits=60)
    with mp.workdps(80):
        ratio = mp.mpf(b.decimal) / mp.mpf(a.decimal)
        assert abs(ratio - 2**7) <= mp.mpf("1e-50") * 2**7


def test_d_intersecting_value():
    rb = d_intersecting_bound(3, 1, 3, 1)
    assert float(rb) == pytest.approx(1728 * 3 * math.log(3), rel=1e-12)
    big = d_intersecting_bound(100, 5, 3, 1, digits=60)
    again = d_intersecting_bound(100, 5, 3, 1, digits=140)
    assert rel_close(big.decimal, again.decimal, mp.mpf("1e-50"))
    assert float(big) > 0


def test_d_intersecting_shift_in_n_multiplies_by_4r():
    a = d_intersecting_bound(6, 2, 3, 1, digits=60)
    b = d_intersecting_bound(7, 2, 3, 1, digits=60)
    with mp.workdps(90):
        ratio = mp.mpf(b.decimal) / mp.mpf(a.decimal)
        assert abs(ratio - 12) <= mp.mpf("1e-50") * 12


def test_log_base_configurable():
    nat = rlogn_bound(4, 3, 1)
    base2 = rlogn_bound(4, 3, 1, log_base=2)
    with mp.workdps(80):
        expected = (3 * mp.log(4) / mp.log(2)) ** 4
        assert rel_close(base2.decimal, mp.nstr(expected, 70), mp.mpf("1e-40"))
        assert mp.mpf(base2.decimal) > mp.mpf(nat.decimal)


def test_error_bounds_are_tiny_and_enclosing():
    rb = d_intersecting_bound(9, 4, 5, "1/3", digits=50)
    with mp.workdps(90):
        lo, hi, mid = mp.mpf(rb.lower), mp.mpf(rb.upper), mp.mpf(rb.decimal)
        assert lo <= mid <= hi
        assert (hi - lo) / mid < mp.mpf("1e-49")


# -- certified comparison and crossover -------------------------------------------

def test_certified_compare_decides():
    a = lambda dps: (Fraction(1), Fraction(1))
    b = lambda dps: (Fraction(2), Fraction(2))
    assert certified_compare(a, 2) == "<"
    assert certified_compare(b, Fraction(1)) == ">"
    assert certified_compare(a, 1) == "="


def test_crossover_rows_match_direct_calls():
    from sunflowers.bounds import _d_intersecting_interval

    for n, C, log_base, digits in (
        (8, 1, "e", 50),
        (8, Fraction(1, 3), 2, 1),
        (8, Fraction(1, 3), 2, 20),
        (60, 1, "e", 50),
        (60, Fraction(1, 3), 2, 20),
    ):
        rep = crossover_report(n, 3, C, digits, log_base)
        assert len(rep.rows) == n
        for row in rep.rows:
            assert row.d_intersecting == d_intersecting_bound(n, row.d, 3, C, digits, log_base).decimal
            trivial = falling_factorial_bound(n, row.d, 3)
            assert row.falling_factorial == str(trivial)
            verdict = certified_compare(
                lambda dps: _d_intersecting_interval(n, row.d, 3, Fraction(C), dps, log_base),
                trivial,
                digits=digits,
            )
            smaller = {"<": "d-intersecting", ">": "falling-factorial", "=": "equal"}[verdict]
            assert row.smaller == smaller


def _record_intervals(monkeypatch, widen=None):
    """Log every (d, dps) the crossover evaluates; `widen(d, dps, interval)`
    may replace an interval before the report sees it."""
    from sunflowers import bounds

    real = bounds._d_intersecting_interval
    calls = []

    def recording(n, d, r, C, dps, log_base):
        calls.append((d, dps))
        interval = real(n, d, r, C, dps, log_base)
        return widen(d, dps, interval) if widen else interval

    monkeypatch.setattr(bounds, "_d_intersecting_interval", recording)
    return calls


def test_crossover_evaluates_each_row_once(monkeypatch):
    for n, digits in ((12, 50), (30, 1)):
        calls = _record_intervals(monkeypatch)
        crossover_report(n, 3, digits=digits)
        assert calls == [(d, digits) for d in range(1, n + 1)]


def test_crossover_overlapping_row_doubles_but_keeps_first_decimal(monkeypatch):
    from sunflowers.bounds import _real_value

    n, r, digits, forced = 10, 3, 20, 4
    trivial = Fraction(falling_factorial_bound(n, forced, r))
    widened = {}

    def widen(d, dps, interval):
        if d != forced or dps != digits:
            return interval
        widened["interval"] = (min(interval[0], trivial) - 1, max(interval[1], trivial) + 1)
        return widened["interval"]

    plain = crossover_report(n, r, digits=digits).rows[forced - 1]
    calls = _record_intervals(monkeypatch, widen)
    row = crossover_report(n, r, digits=digits).rows[forced - 1]
    expected = [(d, digits) for d in range(1, n + 1)]
    expected.insert(forced, (forced, 2 * digits))
    assert calls == expected
    assert row.d_intersecting == _real_value(widened["interval"], digits).decimal
    assert row.d_intersecting != plain.d_intersecting
    assert row.smaller == plain.smaller


def test_a_row_undecided_at_the_precision_limit_is_refused(monkeypatch, capsys):
    # an enclosure of row 1 that straddles the falling factorial at every precision
    from sunflowers.cli import main

    trivial = Fraction(falling_factorial_bound(6, 1, 3))
    calls = _record_intervals(monkeypatch, lambda d, dps, interval: (trivial - 1, trivial + 1))
    code = main(["bounds", "--which", "crossover", "-n", "6", "-r", "3", "--digits", "32"])
    out, err = capsys.readouterr()
    assert code == 3 and calls == [(1, 32 * 2**k) for k in range(8)]  # 32, 64, ..., 4096
    assert out == ""
    assert err == "error: bound comparison undecided at maximum precision 4096 digits\n"


def test_crossover_columns_monotone():
    rep = crossover_report(12, 3, 1, digits=50)
    trivials = [int(r.falling_factorial) for r in rep.rows]
    assert trivials == sorted(trivials) and len(set(trivials)) == len(trivials)
    with mp.workdps(80):
        reals = [mp.mpf(r.d_intersecting) for r in rep.rows]
        assert all(a < b for a, b in zip(reals, reals[1:]))


def test_crossover_first_improvement_consistent():
    for n, r, C, first in ((10, 3, Fraction(1, 1000), 4), (20, 3, Fraction(1, 100), 9)):
        rep = crossover_report(n, r, C)
        smaller_ds = [row.d for row in rep.rows if row.smaller == "d-intersecting"]
        assert rep.first_improvement == min(smaller_ds) == first
        for row in rep.rows:  # each verdict against an independent 100-digit evaluation
            with mp.workdps(100):
                log_form = (4 * r) ** n * (mp.mpf(C.numerator) / C.denominator
                                           * r * mp.log(r * row.d)) ** row.d
                factorial = mp.mpf(falling_factorial_bound(n, row.d, r))
            assert row.smaller == ("d-intersecting" if log_form < factorial
                                   else "falling-factorial"), (n, row)


def test_digits_below_one_refused_before_any_interval(monkeypatch):
    from sunflowers import bounds

    def no_interval(*args):
        raise AssertionError("an interval was evaluated")

    monkeypatch.setattr(bounds, "_enclosure", no_interval)
    entries = (
        lambda digits: certified_compare(no_interval, 1, digits=digits),
        lambda digits: three_sunflower_bound(3, 2, digits),
        lambda digits: rlogn_bound(4, 3, digits=digits),
        lambda digits: d_intersecting_bound(4, 2, 3, digits=digits),
        lambda digits: crossover_report(4, 3, digits=digits),
        lambda digits: bound_report("rlogn", n=4, r=3, digits=digits),
        lambda digits: bound_report("erdos-rado", n=4, r=3, digits=digits),
    )
    for entry in entries:
        for digits in (0, -5):
            with pytest.raises(ValueError, match="digits must be >= 1, got"):
                entry(digits)


def test_exact_values_do_not_depend_on_the_int_str_limit(capsys):
    import sys

    from sunflowers.bounds import _Exact

    def run_bounds(*argv):
        code, out, err = run(capsys, "bounds", "--which", *argv)
        return code, strip_wall_time(out), err

    default = sys.get_int_max_str_digits()
    runs = {}
    for limit in (default, 640, 0):
        sys.set_int_max_str_digits(limit)
        try:
            runs[limit] = [run_bounds("crossover", "-n", "400", "-r", "3"),
                           run_bounds("erdos-rado", "-n", "1400", "-r", "3"),
                           run_bounds("erdos-rado", "-n", "1354", "-r", "4")]
            assert _Exact(1, lambda: 10**4300 - 1).decimal_for_report() == "9" * 4300
            with pytest.raises(ValueError, match="has 4301 digits, over the limit of 4300"):
                _Exact(1, lambda: 10**4300).decimal_for_report()
        finally:
            sys.set_int_max_str_digits(default)
    assert runs[default] == runs[640] == runs[0]
    crossover, printed, refused = runs[default]
    assert crossover[0] == 0 and json.loads(crossover[1])["outputs"]["crossover"]["rows"]
    value = json.loads(printed[1])["outputs"]["bound"]["value"]
    assert printed[0] == 0 and value == str(erdos_rado_bound(1400, 3)) and len(value) == 4220
    # 1354! * 3^1354 has 4301 digits, though its bits allow 4057: it is made, and counted
    assert refused == (3, "", "error: exact value has 4301 digits, over the limit of 4300\n")


def test_crossover_refuses_an_oversized_row_before_any_interval(monkeypatch, capsys):
    # the falling factorial grows with d, so row d = n is checked first
    from sunflowers import bounds
    from sunflowers.cli import main

    def no_interval(*args):
        raise AssertionError("an interval was made")

    monkeypatch.setattr(bounds, "_enclosure", no_interval)
    with pytest.raises(ValueError, match="exact value has 4394 digits, over the limit of 4300"):
        crossover_report(1450, 3)
    assert main(["bounds", "--which", "crossover", "-n", "1450", "-r", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "4394 digits" in captured.err


def test_an_exact_report_far_over_the_digit_limit_is_refused_before_it_is_made(
        monkeypatch, capsys):
    # the bits of each bound put these values at millions of digits, or past 10^311
    from sunflowers.cli import main

    no_exact_value(monkeypatch)
    n = 10**309
    with mp.workdps(400):  # n! 2^n has this many digits
        most = int(mp.floor((mp.loggamma(n + 1) + n * mp.log(2)) / mp.log(10))) + 1
    for argv, digits in ((["erdos-rado", "-n", "1000000", "-r", "3"], 5865382),
                         (["erdos-rado", "-n", str(n), "-r", "3"], None),
                         (["falling-factorial", "-n", "3000000", "-d", "3000000", "-r", "3"],
                          10166818),
                         (["crossover", "-n", "200000", "-r", "3"], 560199)):
        started = time.perf_counter()
        assert main(["bounds", "--which", *argv]) == 3
        assert time.perf_counter() - started < 0.1
        captured = capsys.readouterr()
        assert captured.out == ""
        least = int(captured.err.split()[6])
        assert captured.err == (f"error: exact value has at least {least} digits, "
                                f"over the limit of 4300\n")
        assert least == digits if digits else 999 * most < 1000 * least <= 1000 * most
    # a parameter outside the bound's domain is still refused by the bound itself
    with pytest.raises(ValueError, match="need 0 <= d <= n"):
        bound_report("falling-factorial", n=10**6, d=10**7, r=3)
    with pytest.raises(ValueError, match="need n >= 1 and r >= 2"):
        bound_report("erdos-rado", n=10**6, r=1)


def test_the_digit_limit_is_a_rule_for_reports_only():
    assert erdos_rado_bound(2000, 3) == math.factorial(2000) * 2**2000
    with pytest.raises(ValueError, match="has at least 6332 digits, over the limit of 4300"):
        bound_report("erdos-rado", n=2000, r=3)


def test_falling_factorial_bound_is_the_quotient_of_two_factorials():
    for n in range(40):
        for d in range(n + 1):
            for r in (2, 3, 7):
                expected = (r - 1) ** (d + 1) * math.factorial(n) // math.factorial(n - d)
                assert falling_factorial_bound(n, d, r) == expected


def test_one_digit_is_accepted():
    assert rlogn_bound(4, 3, digits=1).digits == 1
    assert len(crossover_report(4, 3, digits=1).rows) == 4
    # overlapping intervals at 1 digit: the precision must widen, not stall
    overlapping = lambda dps: (Fraction(1), Fraction(1) + Fraction(1, 10**dps))
    assert certified_compare(overlapping, 1, digits=1) == "="


def test_cli_refuses_digits_below_one(capsys):
    from sunflowers.cli import main

    for which in ("crossover", "rlogn", "all", "erdos-rado"):
        # erdos-rado is exact: its refusal names the flag it does not read
        message = ("does not read --digits" if which == "erdos-rado"
                   else "digits must be >= 1")
        for digits in ("0", "-5"):
            assert main(["bounds", "--which", which, "-n", "4", "-r", "3", "--digits", digits]) == 3
            out, err = capsys.readouterr()
            assert out == "" and message in err


def test_a_non_finite_endpoint_is_refused_not_read_as_zero():
    from mpmath import libmp

    from sunflowers.bounds import _enclosure, _raw_to_fraction

    for lo, hi in (("-inf", 1), (1, "inf"), ("-inf", "inf"), ("nan", "nan")):
        with pytest.raises(ValueError, match="non-finite interval endpoint; raise --digits"):
            _enclosure(lambda iv: iv.mpf([lo, hi]), 10)
    assert _enclosure(lambda iv: iv.mpf([0, 1]), 10) == (0, 1)
    assert _raw_to_fraction(libmp.fzero) == 0
    assert _raw_to_fraction(libmp.from_int(-12)) == -12
    assert _raw_to_fraction(libmp.from_rational(3, 8, 53)) == Fraction(3, 8)


def test_digits_too_many_for_an_interval_precision_are_refused_by_name():
    # mpmath turns digits into bits through a float, which overflows past about 10^308
    digits = 10**400
    for evaluate in (lambda: rlogn_bound(5, 3, digits=digits),
                     lambda: three_sunflower_bound(3, 2, digits=digits),
                     lambda: d_intersecting_bound(5, 2, 3, digits=digits),
                     lambda: crossover_report(5, 3, digits=digits)):
        with pytest.raises(ValueError, match="^parameter digits is too large to set an interval "
                                             "precision$"):
            evaluate()
    assert mp.iv.dps == 15  # left as it was


# base 1 + 10^-100: log(base) underflows the interval at 50 digits
NEAR_ONE = Fraction(10**100 + 1, 10**100)


def test_a_log_base_near_one_needs_more_digits():
    with pytest.raises(ValueError, match="non-finite"):
        rlogn_bound(3, 2, log_base=NEAR_ONE)
    value = rlogn_bound(3, 2, digits=120, log_base=NEAR_ONE)
    assert as_mpf(value.lower, 200) < as_mpf(value.upper, 200)
    assert value.decimal.startswith("1.06077516811512585888")
    assert value.decimal.endswith("e+301")


def test_cli_crossover_refuses_a_non_finite_enclosure(capsys):
    from sunflowers.cli import main

    base = str(NEAR_ONE)
    assert main(["bounds", "--which", "crossover", "-n", "4", "-r", "3", "--log-base", base]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "non-finite interval endpoint; raise --digits" in err
    assert main(["bounds", "--which", "crossover", "-n", "4", "-r", "3", "--log-base", base,
                 "--digits", "120"]) == 0
    rows = json.loads(capsys.readouterr().out)["outputs"]["crossover"]["rows"]
    assert [row["smaller"] for row in rows] == ["falling-factorial"] * 4


# -- reports ------------------------------------------------------------------------

def test_bound_report_exact_and_real():
    rep = bound_report("erdos-rado", n=3, r=3)
    assert rep.value == "48" and rep.exact
    rep = bound_report("rlogn", n=2, r=3, C=1)
    assert not rep.exact and rep.digits == 50
    assert rep.params["C"] == "1"
    with pytest.raises(ValueError, match="needs parameters"):
        bound_report("erdos-rado", n=3)
    with pytest.raises(ValueError, match="unknown bound"):
        bound_report("nope", n=1, r=2)


def test_bound_report_all_names_resolvable():
    for name in BOUND_NAMES:
        rep = bound_report(name, n=4, r=3, s=2, L=[0, 2], d=2, C=1)
        assert rep.name == name and rep.value
