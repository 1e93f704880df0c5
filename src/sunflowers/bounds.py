"""Exact and high-precision evaluation of sunflower-threshold bounds.

Integer-valued bounds (factorial/multinomial forms) are computed in exact
big-integer arithmetic.  Real-valued bounds carry an irrational exponent
or a logarithm and are evaluated with outward-rounded interval arithmetic
at a requested number of significant digits; comparisons between bounds
are only reported once the enclosing intervals are disjoint (or equality
is certified to 1e-30 relative), widening precision as needed.

Logarithms default to base e; the base is configurable and echoed in
reports, since the free constant C absorbs base changes anyway.

mpmath is imported by the interval functions when first called, so the
integer bounds (and the CLI subcommands that use only them) never load it.
"""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from .families import InvariantError, Rational, _exact_fraction, _positive_fraction

#: Relative tolerance at which an undecided comparison is certified equal.
EQUALITY_REL_TOL = Fraction(1, 10**30)

_MAX_COMPARE_DIGITS = 4096
_MAX_EXACT_DIGITS = 4300  # the default int-to-str limit, held whatever the interpreter sets

#: The defaults of the free constant C, the significant digits and the log base.
DEFAULT_C, DEFAULT_DIGITS, DEFAULT_LOG_BASE = Fraction(1), 50, "e"


def _raw_to_fraction(raw) -> Fraction:
    # raw is a libmp mantissa/exponent tuple; conversion is exact and does
    # not depend on any mpmath context precision.  mpmath marks +inf, -inf
    # and nan by a negative bit count (their mantissa is 0, like zero's)
    sign, man, exp, bc = raw
    if bc < 0:
        raise ValueError("non-finite interval endpoint; raise --digits")
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def _iv_fraction(q: Fraction):
    from mpmath import iv

    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def _log_base(log_base: Rational) -> Rational:
    """The log base as every public function here reads it: "e", or an
    exact rational above 1."""
    if log_base == "e":
        return log_base
    base = _exact_fraction(log_base, "log_base")
    if base <= 1:
        raise ValueError(f"log base must exceed 1, got {log_base}")
    return base


def _iv_log(value, log_base: Rational):
    """The log of `value` to a base that `_log_base` has coerced."""
    from mpmath import iv

    return iv.log(value) if log_base == "e" else iv.log(value) / iv.log(_iv_fraction(log_base))


FracInterval = tuple[Fraction, Fraction]


def _enclosure(exact: int, make: Callable, digits: int) -> FracInterval:
    """exact times the interval `make(iv)` evaluates with mpmath's `iv`
    context at `digits` digits and 15 guard digits, as exact rational
    endpoints.  exact > 0, so the scaling keeps the endpoints in order."""
    from mpmath import iv

    old = iv.dps
    try:
        iv.dps = digits + 15
    except OverflowError:  # mpmath converts the digits to bits through a float
        raise ValueError("parameter digits is too large to set an interval precision") from None
    try:
        lo_raw, hi_raw = make(iv)._mpi_
    finally:
        iv.dps = old
    return exact * _raw_to_fraction(lo_raw), exact * _raw_to_fraction(hi_raw)


def _check_digits(digits: int) -> None:
    """Refuse fewer than one significant digit: no value can be shown at
    it, and `certified_compare` could never widen a precision of 0."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")


def certified_compare(make: Callable[[int], FracInterval], exact: Fraction,
                      digits: int = DEFAULT_DIGITS) -> str:
    """Compare an interval-valued quantity with an exact rational: '<', '>',
    or '=' (certified).  `make(d)` encloses it at d digits; precision
    doubles until the interval excludes `exact` or its span is below
    EQUALITY_REL_TOL relative."""
    _check_digits(digits)
    d = digits
    while True:
        lo, hi = make(d)
        if hi < exact:
            return "<"
        if exact < lo:
            return ">"
        scale = max(abs(lo), abs(hi))  # exact lies within [lo, hi]
        if scale > 0 and hi - lo <= EQUALITY_REL_TOL * scale:
            return "="
        if d >= _MAX_COMPARE_DIGITS:
            raise ValueError(
                f"bound comparison undecided at maximum precision {_MAX_COMPARE_DIGITS} digits")
        d *= 2


class RealBoundValue(NamedTuple):
    """An interval-certified real bound value.

    `decimal` is the interval midpoint displayed to `digits` significant
    digits; `lower`/`upper` are the certified enclosure endpoints (display
    rounded; the exact rational endpoints drive all comparisons) and
    `error` bounds the enclosure width.
    """

    decimal: str
    lower: str
    upper: str
    error: str
    digits: int

    def __float__(self) -> float:
        return float(self.decimal)


def _real_value(interval: FracInterval, digits: int) -> RealBoundValue:
    import mpmath as mp

    def show(q: Fraction, shown: int = digits) -> str:
        return mp.nstr(mp.mpf(q.numerator) / mp.mpf(q.denominator), shown)

    lo, hi = interval
    # mpmath writes a decimal by str() of an integer of up to ~1054 + digits
    # digits: lift the int-to-str limit meanwhile (0: none, as before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        with mp.workdps(digits + 10):
            return RealBoundValue(decimal=show((lo + hi) / 2), lower=show(lo), upper=show(hi),
                                  error=show(hi - lo, 3), digits=digits)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# Exact integer bounds
# ---------------------------------------------------------------------------

def _check_exact(value: int) -> None:
    """Refuse, unconverted, a positive exact bound of more than
    _MAX_EXACT_DIGITS digits, counted from its bit length."""
    k = math.floor((value.bit_length() - 1) * math.log10(2)) + 1  # value has k or k + 1 digits
    digits = k + (value >= 10**k)
    if digits > _MAX_EXACT_DIGITS:
        raise ValueError(f"exact value has {digits} digits, over the limit of {_MAX_EXACT_DIGITS}")


def _exact_str(value: int) -> str:
    """A positive exact bound in decimal, by a path that the interpreter's
    int-to-str limit does not govern; refused past _MAX_EXACT_DIGITS digits."""
    _check_exact(value)
    return str(decimal.Decimal(value))


def _check_log10(which: str, params: dict) -> None:
    """Refuse bound `which` before it is made when its row's float estimate of
    log10 of its value overflows (naming the largest parameter) or fails the
    row's limit.  An estimate that raises ValueError, as an interval row's
    does outside its bound's domain, leaves the refusal to the bound itself."""
    _, _, limit, log10 = _BOUNDS[which]
    if log10 is None:
        return
    try:
        value = log10(**params)
        math.floor(value)  # raises OverflowError if value overflowed to inf
    except ValueError:
        return
    except OverflowError:
        name = max((p for p, v in params.items() if type(v) is int), key=lambda p: abs(params[p]))
        raise ValueError(f"parameter {name} is too large to estimate the size of the bound")
    limit(value)


def _exact_limit(log10: float) -> None:
    """An exact bound's: refuse one past _MAX_EXACT_DIGITS by over 1000 digits,
    far more than its estimate can err (nearer, `_check_exact` counts)."""
    if log10 > _MAX_EXACT_DIGITS + 1000:
        raise ValueError(f"exact value has about {math.floor(log10) + 1} digits, "
                         f"over the limit of {_MAX_EXACT_DIGITS}")


def _exponent_limit(log10: float) -> None:
    """An interval-valued bound's: refuse a decimal exponent past `decimal.MAX_EMAX` in size."""
    if abs(log10) > decimal.MAX_EMAX:
        raise ValueError(f"value has a decimal exponent of about {math.floor(log10)}, "
                         f"over the limit of {decimal.MAX_EMAX} in size")


def _outside_domain() -> float:
    """A size estimate outside its bound's domain, where a huge parameter could overflow it first."""
    raise ValueError("outside the bound's domain")


def erdos_rado_bound(n: int, r: int) -> int:
    """n! * (r-1)^n, the classical factorial sunflower threshold."""
    if n < 1 or r < 2:
        raise ValueError(f"need n >= 1 and r >= 2, got n={n}, r={r}")
    return math.factorial(n) * (r - 1) ** n


def pigeonhole_limit(n: int, r: int) -> int:
    """max(r-1, n^2-n+1): the branching limit of the restricted extractor.

    A single-intersection-size n-uniform family larger than this is
    necessarily a sunflower with at least r sets, so it caps both the
    pigeonhole divisor and the pairwise-equal subfamily size.
    """
    if n < 1 or r < 2:
        raise ValueError(f"need n >= 1 and r >= 2, got n={n}, r={r}")
    return max(r - 1, n * n - n + 1)


def l_intersecting_bound(n: int, s: int, r: int) -> int:
    """(s+1)^n * m^s with m = pigeonhole_limit(n, r).

    Exact power form of the threshold for families whose pairwise
    intersection sizes take at most s values.
    """
    if n < 1 or s < 1 or r < 2:
        raise ValueError(f"need n >= 1, s >= 1, r >= 2, got n={n}, s={s}, r={r}")
    return (s + 1) ** n * pigeonhole_limit(n, r) ** s


def _validated_l(n: int, L: Iterable[int]) -> tuple[int, ...]:
    ls = tuple(sorted(set(int(e) for e in L)))
    if not ls:
        raise ValueError("L must be nonempty")
    if ls[0] < 0:
        raise ValueError(f"intersection sizes must be >= 0, got {ls[0]}")
    if ls[-1] >= n:
        raise ValueError(f"largest intersection size {ls[-1]} must be < n = {n}")
    return ls


def _gap_binomials(n: int, L: Iterable[int]) -> list[tuple[int, int]]:
    """Pairs (c, p) whose binomials C(c, p) multiply to the multinomial of
    the gaps l1+1, l2-l1, ..., n-ls-1 of L: p is a gap, c the running sum."""
    ls = _validated_l(n, L)
    parts = [ls[0] + 1, *(b - a for a, b in zip(ls, ls[1:])), n - ls[-1] - 1]
    return list(zip(itertools.accumulate(parts), parts))


def l_multinomial_bound(n: int, L: Iterable[int], r: int) -> int:
    """n! * m^s divided by the gap factorials of L = {l1 < ... < ls}.

    The denominator is (l1+1)! * (l2-l1)! * ... * (ls-l_{s-1})! * (n-ls-1)!,
    so the quotient is an exact multinomial coefficient, taken as a product
    of binomials, times m^s.  Always at most l_intersecting_bound(n, |L|, r).
    """
    m = pigeonhole_limit(n, r)  # checks n >= 1 and r >= 2
    steps = _gap_binomials(n, L)
    multinomial, s = math.prod(math.comb(c, p) for c, p in steps), len(steps) - 1
    value = multinomial * m**s
    # a multinomial of s + 1 parts is at most (s+1)^n; bit lengths decide most without the power
    if (multinomial.bit_length() > n * ((s + 1).bit_length() - 1)
            and value > l_intersecting_bound(n, s, r)):
        raise InvariantError("multinomial bound exceeds the L-intersecting bound")
    return value


def falling_factorial_bound(n: int, d: int, r: int) -> int:
    """(r-1)^(d+1) * n!/(n-d)!: the factorial threshold specialized to
    families whose pairwise intersections have size at most d."""
    if d < 0 or r < 2 or n < d:
        raise ValueError(f"need 0 <= d <= n and r >= 2, got n={n}, d={d}, r={r}")
    return (r - 1) ** (d + 1) * math.perm(n, d)


def _log10_comb(c: int, k: int) -> float:
    """log10 C(c, k), 0 <= k <= c, by Stirling's formula to well under a
    digit.  No two large logs are subtracted, so it holds far past 2^53."""
    k = min(k, c - k)
    if k == 0:
        return 0.0
    x = k / c
    tail = -math.log1p(-x) / x if x else 1.0  # -(c - k) log(1 - x) = k (1 - x) tail
    return (k * (math.log(c) - math.log(k) + (1 - x) * tail)
            - 0.5 * math.log(2 * math.pi * k * (1 - x))) / math.log(10)


def _log10_crlog(c: Fraction, r: int, x: int, log_base: Rational) -> float:
    """log10(c r log x) to a base that `_log_base` has coerced, in floats
    for terms of any size; ValueError unless c, r > 0 and x > 1."""
    if log_base == "e":
        log10_ln_base = 0.0
    elif log_base >= 2:
        log10_ln_base = math.log10(math.log(log_base.numerator) - math.log(log_base.denominator))
    else:  # ln b = u log1p(u)/u for u = b - 1 in (0, 1), which may be below any float
        u = log_base - 1
        f = float(u)
        log10_ln_base = (math.log10(u.numerator) - math.log10(u.denominator)
                         + math.log10(math.log1p(f) / f if f else 1.0))
    return (math.log10(c.numerator) - math.log10(c.denominator) + math.log10(r)
            + math.log10(math.log(x)) - log10_ln_base)


# ---------------------------------------------------------------------------
# Interval-valued bounds
# ---------------------------------------------------------------------------

def three_sunflower_bound(n: int, s: int, digits: int = DEFAULT_DIGITS) -> RealBoundValue:
    """(n^2-n+1) * 8^(s-1) * 2^((1+sqrt(5)/5)*n*(s-1)).

    The previously known threshold above which an n-uniform family with s
    distinct pairwise intersection sizes contains a 3-sunflower.  Exact
    when s = 1 (both exponential factors collapse to 1).
    """
    if n < 1 or s < 1:
        raise ValueError(f"need n >= 1 and s >= 1, got n={n}, s={s}")
    _check_digits(digits)
    return _real_value(_enclosure((n * n - n + 1) * 8 ** (s - 1), lambda iv: iv.exp(
        (iv.mpf(1) + iv.sqrt(iv.mpf(5)) / iv.mpf(5)) * iv.mpf(n * (s - 1)) * iv.log(iv.mpf(2))
    ), digits), digits)


def rlogn_bound(n: int, r: int, C: Rational = DEFAULT_C, digits: int = DEFAULT_DIGITS,
                log_base: Rational = DEFAULT_LOG_BASE) -> RealBoundValue:
    """(C * r * log n)^n, the improved unrestricted sunflower threshold form."""
    if n < 2 or r < 2:
        raise ValueError(f"need n >= 2 (so log n > 0) and r >= 2, got n={n}, r={r}")
    c = _positive_fraction(C, "C")
    _check_digits(digits)
    base = _log_base(log_base)
    return _real_value(_enclosure(1, lambda iv: (
        _iv_fraction(c) * iv.mpf(r) * _iv_log(iv.mpf(n), base)) ** n, digits), digits)


def _d_intersecting_interval(
    n: int, d: int, r: int, C: Fraction, digits: int, log_base: Rational
) -> FracInterval:
    return _enclosure((4 * r) ** n, lambda iv: (
        _iv_fraction(C) * iv.mpf(r) * _iv_log(iv.mpf(r * d), log_base)) ** d, digits)


def d_intersecting_bound(n: int, d: int, r: int, C: Rational = DEFAULT_C,
                         digits: int = DEFAULT_DIGITS,
                         log_base: Rational = DEFAULT_LOG_BASE) -> RealBoundValue:
    """(4r)^n * (C * r * log(rd))^d, the threshold for families whose
    pairwise intersections have size at most d; the (4r)^n factor is exact."""
    if n < 1 or d < 1 or r < 2:
        raise ValueError(f"need n >= 1, d >= 1, r >= 2, got n={n}, d={d}, r={r}")
    c = _positive_fraction(C, "C")
    _check_digits(digits)
    return _real_value(_d_intersecting_interval(n, d, r, c, digits, _log_base(log_base)), digits)


# ---------------------------------------------------------------------------
# Crossover comparison
# ---------------------------------------------------------------------------

class CrossoverRow(NamedTuple):
    d: int
    d_intersecting: str
    falling_factorial: str
    smaller: str  # "d-intersecting" | "falling-factorial" | "equal"


class CrossoverReport(NamedTuple):
    n: int
    r: int
    C: str
    log_base: str
    digits: int
    rows: tuple[CrossoverRow, ...]
    first_improvement: Optional[int]  # smallest d with d_intersecting < falling_factorial


def crossover_report(n: int, r: int, C: Rational = DEFAULT_C, digits: int = DEFAULT_DIGITS,
                     log_base: Rational = DEFAULT_LOG_BASE) -> CrossoverReport:
    """Row-by-row certified comparison of the two d-restricted thresholds
    for d = 1..n, reporting the first d (if any) where the log-form bound
    drops below the factorial one.

    Each row's interval is evaluated once, at `digits`: it is the
    comparison's first-precision enclosure and the source of the row's
    decimal, which is then exactly `d_intersecting_bound(...).decimal`.
    Only a comparison that has to double its precision evaluates again.
    """
    if n < 2 or r < 2:
        raise ValueError(f"need n >= 2 and r >= 2, got n={n}, r={r}")
    c = _positive_fraction(C, "C")
    _check_digits(digits)
    log_base = _log_base(log_base)
    # each step in d multiplies the falling factorial by (r-1)(n-d) >= 1,
    # so row d = n is the largest: refuse it before any interval
    _check_log10("falling-factorial", {"n": n, "d": n, "r": r})
    _check_exact(falling_factorial_bound(n, n, r))
    rows = []
    for d in range(1, n + 1):
        trivial = falling_factorial_bound(n, d, r)
        interval = _d_intersecting_interval(n, d, r, c, digits, log_base)
        verdict = certified_compare(lambda dps, d=d, interval=interval: (
            interval if dps == digits else _d_intersecting_interval(n, d, r, c, dps, log_base)
        ), trivial, digits)
        smaller = {"<": "d-intersecting", ">": "falling-factorial", "=": "equal"}[verdict]
        rows.append(CrossoverRow(d=d, d_intersecting=_real_value(interval, digits).decimal,
                                 falling_factorial=_exact_str(trivial), smaller=smaller))
    first = next((row.d for row in rows if row.smaller == "d-intersecting"), None)
    return CrossoverReport(n=n, r=r, C=str(c), log_base=str(log_base), digits=digits,
                           rows=tuple(rows), first_improvement=first)


# ---------------------------------------------------------------------------
# Named reports (CLI surface)
# ---------------------------------------------------------------------------

class BoundReport(NamedTuple):
    """One evaluated bound: exact values as decimal-integer strings,
    interval-certified reals with explicit precision and error bound."""

    name: str
    params: dict
    value: str
    exact: bool
    digits: Optional[int] = None
    lower: Optional[str] = None
    upper: Optional[str] = None
    error: Optional[str] = None


class MissingParameterError(ValueError):
    """A bound was asked for without a parameter it reads."""


#: name -> (function, the parameters it reads, in argument order, the limit
#: and the float estimate of log10 of its value from them, or None): the one
#: statement of them.  `bound_report` checks that size, passes and echoes
#: them, and the CLI reads exactly their flags.
_BOUNDS = {
    "erdos-rado": (erdos_rado_bound, ("n", "r"), _exact_limit,
                   lambda n, r: math.lgamma(n + 1) / math.log(10) + n * math.log10(r - 1)),
    "pigeonhole-limit": (pigeonhole_limit, ("n", "r"), None, None),
    "l-intersecting": (l_intersecting_bound, ("n", "s", "r"), _exact_limit, lambda n, s, r: (
        n * math.log10(s + 1) + s * math.log10(pigeonhole_limit(n, r)))),
    "l-multinomial": (l_multinomial_bound, ("n", "L", "r"), _exact_limit, lambda n, L, r: (
        sum(_log10_comb(c, p) for c, p in _gap_binomials(n, L))
        + len(L) * math.log10(pigeonhole_limit(n, r)))),
    "three-sunflower": (three_sunflower_bound, ("n", "s", "digits"), _exponent_limit,
                        lambda n, s, digits: _outside_domain() if n < 1 or s < 1 else (
                            math.log10(n * n - n + 1)
                            + math.log10(2) * (3 * (s - 1) + (1 + 5**0.5 / 5) * ((s - 1) * n)))),
    "rlogn": (rlogn_bound, ("n", "r", "C", "digits", "log_base"), _exponent_limit,
              lambda n, r, C, digits, log_base: _outside_domain() if n < 2 or r < 2 else (
                  n * _log10_crlog(C, r, n, log_base))),
    "d-intersecting": (d_intersecting_bound, ("n", "d", "r", "C", "digits", "log_base"),
                       _exponent_limit, lambda n, d, r, C, digits, log_base: (
                           _outside_domain() if n < 1 or d < 1 or r < 2 else
                           n * math.log10(4 * r) + d * _log10_crlog(C, r, r * d, log_base))),
    "falling-factorial": (falling_factorial_bound, ("n", "d", "r"), _exact_limit, lambda n, d, r: (
        _log10_comb(n, d) + math.lgamma(d + 1) / math.log(10) + (d + 1) * math.log10(r - 1))),
}
BOUND_NAMES = tuple(_BOUNDS)
#: The parameters that each name of `BOUND_NAMES`, and "crossover", reads.
PARAMETERS_READ = {**{name: reads for name, (_, reads, *_) in _BOUNDS.items()},
                   "crossover": ("n", "r", "C", "digits", "log_base")}


def bound_report(
    which: str, n: Optional[int] = None, r: Optional[int] = None, s: Optional[int] = None,
    L: Optional[Iterable[int]] = None, d: Optional[int] = None, C: Rational = DEFAULT_C,
    digits: int = DEFAULT_DIGITS, log_base: Rational = DEFAULT_LOG_BASE,
) -> BoundReport:
    """Evaluate one named bound, echoing every parameter it reads but
    `digits` (`C` and `log_base` as strings).  s defaults to the number of
    distinct sizes in L.  A missing parameter raises MissingParameterError."""
    _check_digits(digits)
    c = _exact_fraction(C, "C")
    base = _log_base(log_base)
    if which not in _BOUNDS:
        raise ValueError(f"unknown bound {which!r}")
    bound, reads, *_ = _BOUNDS[which]
    if L is not None:
        L = sorted(set(L))
        s = len(L) if s is None else s
    given = {"n": n, "r": r, "s": s, "L": L, "d": d, "C": c, "digits": digits, "log_base": base}
    missing = [p for p in reads if given[p] is None]
    if missing:
        raise MissingParameterError(f"bound '{which}' needs parameters: {', '.join(missing)}")
    args = {p: given[p] for p in reads}
    _check_log10(which, args)
    value = bound(**args)
    params = {p: str(v) if p in ("C", "log_base") else v for p, v in args.items() if p != "digits"}
    if isinstance(value, RealBoundValue):
        return BoundReport(name=which, params=params, value=value.decimal, exact=False,
                           digits=value.digits, lower=value.lower, upper=value.upper,
                           error=value.error)
    return BoundReport(name=which, params=params, value=_exact_str(value), exact=True)
