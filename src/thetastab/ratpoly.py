"""Exact rational Laurent polynomials in one variable n.

A polynomial is stored as a clean map: int exponents (negative exponents
allowed, for Laurent terms) to nonzero Fractions.  The zero polynomial is
the empty map; its degree is the sentinel -inf, which compares below every
integer.  RatPoly(...) parses outside input into a clean map; arithmetic
builds its results' clean maps directly and wraps them unchecked (_of),
or hands back an operand (p + 0 is p).  Being immutable, polynomials
share coefficients, and hilbert_line_bundle_projective shares its results.

Two total orders live here:

* eventual dominance on polynomials: p > q iff p(n) > q(n) for all large n,
  decided exactly by the sign of the highest nonzero coefficient of p - q.
  eventual_compare decides it; RatPoly has no rich comparisons, so p < q
  is a TypeError.  reduced_compare applies it
  to quotients x / r of integer coefficient tuples by positive integers,
  by cross-multiplication, which is how the stability verdicts compare
  reduced Hilbert polynomials.
* the order on values L / sqrt(b) (NuValue): decided coefficientwise from
  the highest exponent down, using sign analysis plus the squared
  comparison c_x^2 * b_y vs c_y^2 * b_x.  No radicals or floats are ever
  formed.  terms_compare applies this rule to exponent -> coefficient
  maps, so callers scoring many values need not build a NuValue for each.

Hilbert-polynomial statistics use the factorial normalization
P(n) = sum_k a_k n^k / k!, so the rank is a_d = d! * (coefficient of n^d).
"""

from __future__ import annotations

import re
import sys
from contextlib import suppress
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, isfinite, log10
from operator import add, index, sub
from typing import Mapping, Sequence, Union

from .errors import DegreeMismatch, NonpositiveRank, ParseError

RationalLike = Union[int, str, Fraction]

#: Degree of the zero polynomial; compares below every integer.
NEG_INFINITY = float("-inf")

#: The coefficient coeff reads at an absent exponent, built once.
_ZERO = Fraction(0)

LESS, EQUAL, GREATER = -1, 0, 1


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def as_ratio(value: RationalLike) -> tuple[int, int]:
    """The one rational grammar, read into a numerator and a positive
    denominator in lowest terms: a Fraction, a plain int (not a bool), or a
    "p/q" or "p" string of ASCII digits (blanks around allowed).  Floats,
    exponent forms, inf/nan and underscores are ParseErrors.  Exact types
    are tested first, so a literal of a lattice file builds no Fraction,
    and a plain string of ASCII digits is read without the regex."""
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is str and value.isascii() and value.isdigit():
        try:
            return int(value), 1
        except ValueError:  # over Python's int digit limit: the regex path says so
            pass
    if kind is Fraction or kind is not str and isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, str) and (match := _RATIONAL.fullmatch(value)):
        try:  # over Python's int digit limit
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
        if den:
            common = gcd(num, den)
            return num // common, den // common
    raise ParseError(f"bad rational literal {value!r}")


def as_fraction(value: RationalLike) -> Fraction:
    """as_ratio's grammar, read into a Fraction; a Fraction is returned
    as it is."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*as_ratio(value))


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def as_integer(value: int | str, what: str = "integer literal") -> int:
    """The one integer grammar: a plain int (not a bool) or a string of
    ASCII digits with an optional sign, blanks around allowed; anything
    else is a ParseError.  A plain string of ASCII digits is read without
    the regex."""
    try:
        if type(value) is int or isinstance(value, str) and (
            value.isascii() and value.isdigit() or _INTEGER.fullmatch(value)
        ):
            return int(value)
    except ValueError:  # a digit string over Python's int digit limit
        pass
    raise ParseError(f"bad {what} {value!r}")


def _sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _merged(mine: dict[int, Fraction], theirs: dict[int, Fraction], op) -> dict[int, Fraction]:
    """The clean map of mine op theirs, for op operator.add or operator.sub:
    an exponent new to mine takes theirs' coefficient as it is (negated
    for sub), two coefficients at one exponent combine as ints over the
    product of their denominators, read into one Fraction, and a result
    that cancels is dropped.  mine is copied, never changed."""
    merged = dict(mine)
    for exp, val in theirs.items():
        have = merged.get(exp)
        if have is None:
            merged[exp] = val if op is add else -val
            continue
        hd, vd = have.denominator, val.denominator
        total = Fraction(op(have.numerator * vd, val.numerator * hd), hd * vd)
        if total:
            merged[exp] = total
        else:
            del merged[exp]
    return merged


class RatPoly:
    """Immutable sparse Laurent polynomial with Fraction coefficients,
    ordered by eventual_compare.  _coeffs is the clean map: int exponents
    to nonzero Fractions.  RatPoly(coeffs) parses outside input into it;
    _of wraps one that arithmetic built."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for exp, val in coeffs.items():
                # a Fraction needs no parsing
                frac = val if type(val) is Fraction else as_fraction(val)
                if frac != 0:
                    clean[int(exp)] = frac
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RatPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def _of(cls, clean: dict[int, Fraction]) -> RatPoly:
        """Wrap clean unchecked: it must be a clean map no one else keeps."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_coeffs", clean)
        return poly

    @classmethod
    def zero(cls) -> RatPoly:
        return cls._of({})

    @classmethod
    def const(cls, value: RationalLike) -> RatPoly:
        return cls({0: value})

    # -- inspectors -------------------------------------------------------

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        """Terms as (exponent, coefficient), highest exponent first."""
        return tuple(sorted(self._coeffs.items(), reverse=True))

    def coeff(self, exponent: int) -> Fraction:
        return self._coeffs.get(exponent, _ZERO)

    def degree(self) -> int | float:
        """Highest exponent, or -inf for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self._coeffs

    def has_negative_exponents(self) -> bool:
        return any(e < 0 for e in self._coeffs)

    def __call__(self, n: RationalLike) -> Fraction:
        point = as_fraction(n)
        return sum((c * point**e for e, c in self._coeffs.items()), Fraction(0))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: RatPoly) -> RatPoly:
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        return RatPoly._of(_merged(self._coeffs, other._coeffs, add))

    def __sub__(self, other: RatPoly) -> RatPoly:
        if not other._coeffs:
            return self
        return RatPoly._of(_merged(self._coeffs, other._coeffs, sub))

    def __neg__(self) -> RatPoly:
        return RatPoly._of({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: RatPoly | RationalLike) -> RatPoly:
        if isinstance(other, RatPoly):
            product: dict[int, Fraction] = {}
            for e1, c1 in self._coeffs.items():
                for e2, c2 in other._coeffs.items():
                    exp = e1 + e2
                    product[exp] = product.get(exp, 0) + c1 * c2
            return RatPoly._of({e: c for e, c in product.items() if c})
        scalar = as_fraction(other)
        return RatPoly._of({e: c * scalar for e, c in self._coeffs.items()} if scalar else {})

    __rmul__ = __mul__

    # -- ordering and identity ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        return f"RatPoly({dict(self.items())!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exp, c in self.items():
            if exp == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "n" if exp == 1 else f"n^{exp}"
                term = f"{'-' if c < 0 else ''}{mag}{var}"
            if parts:
                parts.append(f"- {term[1:]}" if term.startswith("-") else f"+ {term}")
            else:
                parts.append(term)
        return " ".join(parts)


def eventual_compare(p: RatPoly, q: RatPoly) -> int:
    """Compare p and q in the eventual-dominance order.

    Returns GREATER iff the highest nonzero coefficient of p - q is
    positive, EQUAL iff p = q, LESS otherwise.  Works for Laurent
    polynomials as well: what matters is the sign at the top exponent.
    The exponents are walked from the top down, without forming p - q.
    """
    for exp in sorted(p._coeffs.keys() | q._coeffs.keys(), reverse=True):
        a, b = p._coeffs.get(exp, 0), q._coeffs.get(exp, 0)
        if a != b:
            return GREATER if a > b else LESS
    return EQUAL


@dataclass(frozen=True)
class HilbertStats:
    """Derived data of a Hilbert polynomial of an object of dimension d.

    With P(n) = sum_k a_k n^k / k!: rank = a_d and reduced = P / rank.
    The reduced polynomial is computed on first use and kept: the
    stability verdicts compare integer numerators (see reduced_compare),
    so only the deletion lemma and the invariant read it.  Being derived
    from poly, it takes no part in equality or hashing.
    """

    poly: RatPoly
    rank: Fraction

    @cached_property
    def reduced(self) -> RatPoly:
        return RatPoly._of({e: c / self.rank for e, c in self.poly._coeffs.items()})


def hilbert_stats(poly: RatPoly, d: int) -> HilbertStats:
    """Rank (reduced polynomial on first use) of a degree-d Hilbert polynomial."""
    if d < 0:
        raise DegreeMismatch(f"dimension must be nonnegative, got {d}")
    if poly.has_negative_exponents():
        raise DegreeMismatch("Laurent terms are not allowed in Hilbert polynomials")
    if poly.degree() != d:
        raise DegreeMismatch(f"expected degree {d}, got degree {poly.degree()}")
    rank = poly._coeffs[d] * factorial(d)
    if rank <= 0:
        raise NonpositiveRank(f"leading Hilbert coefficient a_{d} = {rank} is not positive")
    return HilbertStats(poly=poly, rank=rank)


def hilbert_line_bundle_projective(d: int, k: int) -> RatPoly:
    """Hilbert polynomial of the twist O(k) on d-dimensional projective space.

    This is binomial(n+k+d, d) expanded as a polynomial in n; for d = 1 it
    is n + k + 1.  d and k must be integers (operator.index), d >= 1.  Each
    (d, k) is expanded once per process and the one immutable result
    shared: a lattice built member by member asks for each summand's class
    once per member holding it.
    """
    d, k = index(d), index(k)
    if d < 1:
        raise ValueError(f"projective dimension must be >= 1, got {d}")
    return _line_bundle(d, k)


@lru_cache(maxsize=1024)
def _line_bundle(d: int, k: int) -> RatPoly:
    """O(k) on P^d, expanded: the integer coefficients of
    prod_{j=1..d} (n + k + j), lowest exponent first, built as one row,
    then divided by d!."""
    row, scale = [1], factorial(d)
    for j in range(1, d + 1):  # times (n + k + j)
        row = [a * (k + j) + b for a, b in zip(row + [0], [0] + row)]
    return RatPoly._of({e: Fraction(c, scale) for e, c in enumerate(row) if c})


@dataclass(frozen=True)
class NuValue:
    """Exact representation of the value L / sqrt(b) with b > 0.

    Dataclass equality is structural (same L, same b); use nu_compare for
    the represented-value order, under which e.g. (0, 7) and (0, 3) agree.
    """

    L: RatPoly
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.b <= 0:
            raise ValueError(f"norm must be positive, got {self.b}")

    @classmethod
    def zero(cls) -> NuValue:
        return cls(RatPoly.zero(), Fraction(1))

    def approx(self, n: RationalLike) -> float | Decimal:
        """Value L(n) / sqrt(b) for display and sanity checks only: a float,
        or a Decimal where a float would overflow or underflow.

        L(n) is evaluated exactly unless some power n^e alone is beyond a
        float's range; then term by term in Decimal, since the exact value
        has about |e| * log10(n) digits."""
        point, coeffs = as_fraction(n), self.L._coeffs
        digits = abs(log10(abs(point.numerator)) - log10(point.denominator)) if point else 0
        if coeffs and max(map(abs, coeffs)) * digits > sys.float_info.max_10_exp:
            value = _decimal_over_root(coeffs, point, self.b)
            if value is not None:
                return value
        return _over_root(self.L(point), self.b)


#: Working precision, in digits, past which _decimal_over_root gives up on
#: cancelling terms and NuValue.approx evaluates exactly.
_MAX_DIGITS = 4000


def _decimal_over_root(
    coeffs: Mapping[int, Fraction], point: Fraction, b: Fraction
) -> float | Decimal | None:
    """sum_e coeffs[e] * point^e / sqrt(b) as _over_root gives it, from Decimal
    terms, or None when the terms cancel beyond _MAX_DIGITS of precision.

    Each term is within (|e| + 4) units of its last working digit, so for
    a few terms the sum is off by less than size * 10^(k + 2 - prec), with
    size the sum of |term| and k the digits of the largest |e|.  The sum
    is kept once it exceeds size * 10^(20 + k - prec), that is to within
    10^-18 of itself, enough for 17 significant digits; otherwise the
    precision doubles."""
    margin = 20 + len(str(max(map(abs, coeffs))))
    prec = 2 * margin
    with localcontext(Emax=MAX_EMAX, Emin=MIN_EMIN) as ctx:
        while prec <= _MAX_DIGITS:
            ctx.prec = prec
            base = _decimal(point.numerator) / _decimal(point.denominator)
            terms = [_decimal(c.numerator) / _decimal(c.denominator) * base**e for e, c in coeffs.items()]
            total, size = sum(terms), sum(map(abs, terms))
            if abs(total) > size.scaleb(margin - prec):
                total /= (_decimal(b.numerator) / _decimal(b.denominator)).sqrt()
                ctx.prec = 17
                value = total.normalize()
                as_float = float(value)
                return as_float if as_float and isfinite(as_float) else value
            prec *= 2
    return None


def _over_root(x: Fraction, b: Fraction) -> float | Decimal:
    """x / sqrt(b) as a float when one holds it (nonzero when x is), else
    as a Decimal of 17 significant digits, like a float's, whose exponent
    range covers any exact input."""
    if not x:
        return 0.0
    with suppress(OverflowError, ZeroDivisionError):
        value = float(x) / float(b) ** 0.5
        if value and isfinite(value):
            return value
    with localcontext(Emax=MAX_EMAX, Emin=MIN_EMIN) as ctx:
        value = _decimal(x.numerator) / _decimal(x.denominator)
        value /= (_decimal(b.numerator) / _decimal(b.denominator)).sqrt()
        ctx.prec = 17
        return value.normalize()


def _decimal(m: int) -> Decimal:
    """m rounded to the current context from its top bits (160, or 4 per
    digit of precision beyond 40): Decimal(m) itself takes time quadratic
    in the digits of m."""
    shift = max(m.bit_length() - max(160, 4 * getcontext().prec), 0)
    return Decimal(m >> shift) * Decimal(2) ** shift


def nu_compare(x: NuValue, y: NuValue) -> int:
    """Compare L_x / sqrt(b_x) and L_y / sqrt(b_y) exactly (terms_compare
    on the coefficient maps of L_x and L_y)."""
    return terms_compare(x.L._coeffs, x.b, y.L._coeffs, y.b)


def terms_compare(
    x: Mapping[int, Fraction], bx: Fraction, y: Mapping[int, Fraction], by: Fraction
) -> int:
    """Compare the values sum_e x[e] n^e / sqrt(bx) and sum_e y[e] n^e / sqrt(by)
    exactly, given as exponent -> coefficient maps (zero coefficients allowed)
    and positive norms.

    Coefficients are compared from the highest exponent down; each pair is
    decided by signs and, when the signs agree, by comparing
    c_x^2 * b_y with c_y^2 * b_x.  This realizes the eventual-dominance
    order on the represented real-coefficient polynomials.
    """
    for exp in sorted(x.keys() | y.keys(), reverse=True):
        cx, cy = x.get(exp, 0), y.get(exp, 0)
        sx, sy = _sign(cx), _sign(cy)
        if sx != sy:
            return GREATER if sx > sy else LESS
        if sx == 0:
            continue
        lhs, rhs = cx * cx * by, cy * cy * bx
        if lhs != rhs:
            return sx if lhs > rhs else -sx
    return EQUAL


def reduced_compare(x: Sequence[int], rx: int, y: Sequence[int], ry: int) -> int:
    """Compare x / rx and y / ry in the eventual-dominance order, given
    integer coefficients of x and y over the same exponents, lowest first,
    and positive integers rx and ry.

    From the top exponent down, the sign of x[e] * ry - y[e] * rx decides,
    so no Fraction is formed.  With x = D * P(G) for a denominator D common
    to the lattice and rx = x[d], a positive multiple of rank(G), this is
    the order of reduced Hilbert polynomials P(G) / rank(G).
    """
    for a, b in zip(reversed(x), reversed(y)):
        lhs, rhs = a * ry, b * rx
        if lhs != rhs:
            return GREATER if lhs > rhs else LESS
    return EQUAL
