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

import contextlib
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
_LOG10_2 = 301029995663981  # 10^15 log10(2), rounded down

#: The defaults of the free constant C, the significant digits and the log base.
DEFAULT_C, DEFAULT_DIGITS, DEFAULT_LOG_BASE = Fraction(1), 50, "e"


def _raw_to_fraction(raw) -> Fraction:
    # raw is a finite libmp mantissa/exponent tuple; conversion is exact and
    # does not depend on any mpmath context precision
    sign, man, exp, bc = raw
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


def _enclosure(make: Callable, digits: int, times: int = 1, base: int = 1,
               power: int = 0) -> FracInterval:
    """times * base**power (times, base >= 1) times the interval `make(iv)`
    evaluates with mpmath's `iv` context at `digits` digits and 15 guard
    digits, as exact rational endpoints.  A non-finite endpoint, or a decimal
    exponent past `decimal.MAX_EMAX` in size, is refused, from bit lengths,
    before the factor or any endpoint is made."""
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
    if min(lo_raw[3], hi_raw[3]) < 0:  # mpmath marks +inf, -inf and nan by a negative bit count
        raise ValueError("non-finite interval endpoint; raise --digits")
    # a finite endpoint lies below 2^(exp + bc), and from 2^(exp + bc - 1) unless 0, and the
    # factor in [2^low, 2^(low + power + 1))
    bottom, top = sorted(exp + bc for _, _, exp, bc in (lo_raw, hi_raw))
    low = power * (base.bit_length() - 1) + times.bit_length() - 1
    if ((top - 1 + low) * _LOG10_2 > (decimal.MAX_EMAX + 1) * 10**15
            or (bottom + low + power + 1) * _LOG10_2 < -decimal.MAX_EMAX * 10**15):
        raise ValueError(
            f"value has a decimal exponent over the limit of {decimal.MAX_EMAX} in size")
    lo, hi, factor = _raw_to_fraction(lo_raw), _raw_to_fraction(hi_raw), times * base**power
    return factor * lo, factor * hi


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


@contextlib.contextmanager
def _no_int_str_limit():
    """Lift the interpreter's int-to-str limit meanwhile (0: none, as before 3.10.7)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _real_value(interval: FracInterval, digits: int) -> RealBoundValue:
    import mpmath as mp

    def show(q: Fraction, shown: int = digits) -> str:
        return mp.nstr(mp.mpf(q.numerator) / mp.mpf(q.denominator), shown)

    lo, hi = interval
    # mpmath writes a decimal by str() of an integer of up to ~1054 + digits digits
    with _no_int_str_limit(), mp.workdps(digits + 10):
        return RealBoundValue(decimal=show((lo + hi) / 2), lower=show(lo), upper=show(hi),
                              error=show(hi - lo, 3), digits=digits)


# ---------------------------------------------------------------------------
# Exact integer bounds
# ---------------------------------------------------------------------------

class _Exact(NamedTuple):
    """An exact bound inside its domain, not yet made by `make()`, of at least `bits`
    bits: 1 plus a lower bound on its log2, with a^b >= 2^(b (bit_length(a) - 1))."""

    bits: int
    make: Callable[[], int]

    def below(self, count: int) -> bool:
        """Whether the value is below `count`, made only if its bits allow it."""
        return count.bit_length() >= self.bits and count > self.make()

    def decimal_for_report(self) -> str:
        """The value in decimal by Decimal, whatever the int-to-str limit; refused past
        _MAX_EXACT_DIGITS digits, before it is made if its bits put it there (reports only)."""
        least = (self.bits - 1) * _LOG10_2 // 10**15 + 1  # the fewest digits of `bits` bits
        if least > _MAX_EXACT_DIGITS:
            raise ValueError(f"exact value has at least {decimal.Decimal(least)} digits, "
                             f"over the limit of {_MAX_EXACT_DIGITS}")
        text = str(decimal.Decimal(self.make()))
        if len(text) > _MAX_EXACT_DIGITS:
            raise ValueError(f"exact value has {len(text)} digits, over the limit of {_MAX_EXACT_DIGITS}")
        return text


def _log2_64ths(p: int, q: int = 1) -> int:
    """An integer <= max(0, 64 log2(p/q)), q >= 1, from leading bits: p's cut, q's rounded up."""
    s, t = max(p.bit_length() - 128, 0), max(q.bit_length() - 64, 0)
    return max(64 * (s - t) + ((p >> s) ** 64 // ((q >> t) + (t > 0)) ** 64).bit_length() - 1, 0)


def _erdos_rado(n: int, r: int) -> _Exact:
    if n < 1 or r < 2:
        raise ValueError(f"need n >= 1 and r >= 2, got n={n}, r={r}")
    # n! >= sqrt(2 pi n) (n/e)^n with e < 68/25, so n! >= 2 max(1, (n/e)^n) for n >= 2
    log = (n * _log2_64ths(25 * n, 68) + 64 * (n > 1)) // 64
    return _Exact(log + n * ((r - 1).bit_length() - 1) + 1,
                  lambda: math.factorial(n) * (r - 1) ** n)


def erdos_rado_bound(n: int, r: int) -> int:
    """n! * (r-1)^n, the classical factorial sunflower threshold."""
    return _erdos_rado(n, r).make()


def pigeonhole_limit(n: int, r: int) -> int:
    """max(r-1, n^2-n+1): the branching limit of the restricted extractor.

    A single-intersection-size n-uniform family larger than this is
    necessarily a sunflower with at least r sets, so it caps both the
    pigeonhole divisor and the pairwise-equal subfamily size.
    """
    if n < 1 or r < 2:
        raise ValueError(f"need n >= 1 and r >= 2, got n={n}, r={r}")
    return max(r - 1, n * n - n + 1)


def _pigeonhole(n: int, r: int) -> _Exact:
    m = pigeonhole_limit(n, r)  # made at once: it has at most twice the bits of n or r
    return _Exact(m.bit_length(), lambda: m)


def _l_intersecting(n: int, s: int, r: int) -> _Exact:
    if n < 1 or s < 1 or r < 2:
        raise ValueError(f"need n >= 1, s >= 1, r >= 2, got n={n}, s={s}, r={r}")
    m = pigeonhole_limit(n, r)
    return _Exact(n * ((s + 1).bit_length() - 1) + s * (m.bit_length() - 1) + 1,
                  lambda: (s + 1) ** n * m**s)


def l_intersecting_bound(n: int, s: int, r: int) -> int:
    """(s+1)^n * m^s with m = pigeonhole_limit(n, r).

    Exact power form of the threshold for families whose pairwise
    intersection sizes take at most s values.
    """
    return _l_intersecting(n, s, r).make()


def _validated_l(n: int, L: Iterable[int]) -> tuple[int, ...]:
    ls = tuple(sorted(set(int(e) for e in L)))
    if not ls:
        raise ValueError("L must be nonempty")
    if ls[0] < 0:
        raise ValueError(f"intersection sizes must be >= 0, got {ls[0]}")
    if ls[-1] >= n:
        raise ValueError(f"largest intersection size {ls[-1]} must be < n = {n}")
    return ls


def _l_multinomial(n: int, L: Iterable[int], r: int) -> _Exact:
    m = pigeonhole_limit(n, r)  # checks n >= 1 and r >= 2
    ls = _validated_l(n, L)
    # C(c, p) over the gaps p = l1+1, l2-l1, ..., n-ls-1 of L and their running sums c
    parts = [ls[0] + 1, *(b - a for a, b in zip(ls, ls[1:])), n - ls[-1] - 1]
    steps = list(zip(itertools.accumulate(parts), parts))
    # C(c, p) >= (c/k)^k with k = min(p, c - p)
    log = sum(k * _log2_64ths(c, k) for c, k in ((c, min(p, c - p)) for c, p in steps) if k)

    def make() -> int:
        value = math.prod(math.comb(c, p) for c, p in steps) * m ** len(ls)
        # a multinomial of s + 1 parts is at most (s+1)^n; bits decide most without the power
        if _l_intersecting(n, len(ls), r).below(value):
            raise InvariantError("multinomial bound exceeds the L-intersecting bound")
        return value

    return _Exact(log // 64 + len(ls) * (m.bit_length() - 1) + 1, make)


def l_multinomial_bound(n: int, L: Iterable[int], r: int) -> int:
    """n! * m^s divided by the gap factorials of L = {l1 < ... < ls}.

    The denominator is (l1+1)! * (l2-l1)! * ... * (ls-l_{s-1})! * (n-ls-1)!,
    so the quotient is an exact multinomial coefficient, taken as a product
    of binomials, times m^s.  Always at most l_intersecting_bound(n, |L|, r).
    """
    return _l_multinomial(n, L, r).make()


def _falling_factorial(n: int, d: int, r: int) -> _Exact:
    if d < 0 or r < 2 or n < d:
        raise ValueError(f"need 0 <= d <= n and r >= 2, got n={n}, d={d}, r={r}")
    # n!/(n-d)! >= (n - d//2)^(d - d//2) (n - d + 1)^(d//2): its top d - d//2 factors >= n - d//2
    log = ((d - d // 2) * _log2_64ths(n - d // 2) + d // 2 * _log2_64ths(n - d + 1)) // 64
    return _Exact(log + (d + 1) * ((r - 1).bit_length() - 1) + 1,
                  lambda: (r - 1) ** (d + 1) * math.perm(n, d))


def falling_factorial_bound(n: int, d: int, r: int) -> int:
    """(r-1)^(d+1) * n!/(n-d)!: the factorial threshold specialized to
    families whose pairwise intersections have size at most d."""
    return _falling_factorial(n, d, r).make()


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
    return _real_value(_enclosure(lambda iv: iv.exp(
        (iv.mpf(1) + iv.sqrt(iv.mpf(5)) / iv.mpf(5)) * iv.mpf(n * (s - 1)) * iv.log(iv.mpf(2))
    ), digits, n * n - n + 1, 8, s - 1), digits)


def rlogn_bound(n: int, r: int, C: Rational = DEFAULT_C, digits: int = DEFAULT_DIGITS,
                log_base: Rational = DEFAULT_LOG_BASE) -> RealBoundValue:
    """(C * r * log n)^n, the improved unrestricted sunflower threshold form."""
    if n < 2 or r < 2:
        raise ValueError(f"need n >= 2 (so log n > 0) and r >= 2, got n={n}, r={r}")
    c = _positive_fraction(C, "C")
    _check_digits(digits)
    base = _log_base(log_base)
    return _real_value(_enclosure(lambda iv: (
        _iv_fraction(c) * iv.mpf(r) * _iv_log(iv.mpf(n), base)) ** n, digits), digits)


def _d_intersecting_interval(
    n: int, d: int, r: int, C: Fraction, digits: int, log_base: Rational
) -> FracInterval:
    return _enclosure(lambda iv: (
        _iv_fraction(C) * iv.mpf(r) * _iv_log(iv.mpf(r * d), log_base)) ** d, digits, 1, 4 * r, n)


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
    _falling_factorial(n, n, r).decimal_for_report()
    rows, trivial = [], r - 1
    for d in range(1, n + 1):
        trivial *= (r - 1) * (n - d + 1)  # falling_factorial_bound(n, d, r)
        interval = _d_intersecting_interval(n, d, r, c, digits, log_base)
        verdict = certified_compare(lambda dps, d=d, interval=interval: (
            interval if dps == digits else _d_intersecting_interval(n, d, r, c, dps, log_base)
        ), trivial, digits)
        smaller = {"<": "d-intersecting", ">": "falling-factorial", "=": "equal"}[verdict]
        rows.append(CrossoverRow(d=d, d_intersecting=_real_value(interval, digits).decimal,
                                 falling_factorial=str(decimal.Decimal(trivial)), smaller=smaller))
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


#: name -> (function, the parameters it reads, in argument order): the one statement
#: of them; an exact bound's function returns its `_Exact`.  `bound_report` passes and
#: echoes them, and the CLI reads exactly their flags.
_BOUNDS = {
    "erdos-rado": (_erdos_rado, ("n", "r")),
    "pigeonhole-limit": (_pigeonhole, ("n", "r")),
    "l-intersecting": (_l_intersecting, ("n", "s", "r")),
    "l-multinomial": (_l_multinomial, ("n", "L", "r")),
    "three-sunflower": (three_sunflower_bound, ("n", "s", "digits")),
    "rlogn": (rlogn_bound, ("n", "r", "C", "digits", "log_base")),
    "d-intersecting": (d_intersecting_bound, ("n", "d", "r", "C", "digits", "log_base")),
    "falling-factorial": (_falling_factorial, ("n", "d", "r")),
}
BOUND_NAMES = tuple(_BOUNDS)
#: The parameters that each name of `BOUND_NAMES`, and "crossover", reads.
PARAMETERS_READ = {**{name: reads for name, (_, reads) in _BOUNDS.items()},
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
    bound, reads = _BOUNDS[which]
    if L is not None:
        L = sorted(set(L))
        s = len(L) if s is None else s
    given = {"n": n, "r": r, "s": s, "L": L, "d": d, "C": c, "digits": digits, "log_base": base}
    missing = [p for p in reads if given[p] is None]
    if missing:
        raise MissingParameterError(f"bound '{which}' needs parameters: {', '.join(missing)}")
    args = {p: given[p] for p in reads}
    value = bound(**args)
    params = {p: str(v) if p in ("C", "log_base") else v for p, v in args.items() if p != "digits"}
    if isinstance(value, RealBoundValue):
        return BoundReport(name=which, params=params, value=value.decimal, exact=False,
                           digits=value.digits, lower=value.lower, upper=value.upper,
                           error=value.error)
    return BoundReport(name=which, params=params, value=value.decimal_for_report(), exact=True)
