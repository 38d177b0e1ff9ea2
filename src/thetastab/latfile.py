"""Lattice files and literals.

A lattice file is a JSON document:

    {
      "dimension": 1,
      "objects": [
        {"id": "0", "hilbert": {}},
        {"id": "O2", "hilbert": {"1": "1", "0": "3"}},
        {"id": "F",  "hilbert": {"1": "2", "0": "4"}}
      ],
      "relations": [["O2", "F"]],
      "pair": {"beta_image": "O2"}        // optional; null beta_image = zero map
    }

Rationals are strings matching [+-]?digits(/digits)?, or plain JSON
integers; floats, exponents, inf/nan, underscores and booleans are
rejected.  ratpoly.as_ratio is the one parser, for files and for
validate_lattice alike: the loader reads each distinct coefficient
literal with it once per load, into an integer numerator and denominator
of the lattice's integer table, and as_fraction, which reads delta and
sweep literals, wraps it.
Polynomials map exponent strings to rationals, zero coefficients omitted;
an exponent named twice in one polynomial ("0" beside "00", or "1" beside
" 1") is a ParseError.
Inclusions of the zero object and into the ambient object need not be
declared.

Delta literals are one-variable Laurent polynomials in n, e.g. "0", "3/2",
"n", "-n^2", "2*n - 1/2", "n^-1 + 1", "n^+2"; an exponent's sign is optional.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .lattice import PairObject, SubobjectLattice, validate_lattice
from .ratpoly import NuValue, RatPoly, _over_root, as_fraction, as_integer


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def format_poly(poly: RatPoly) -> dict[str, str]:
    return {str(exp): format_rational(c) for exp, c in sorted(poly.items())}


_TERM = re.compile(
    r"""^(?P<coeff>[+-]?[0-9]+(?:/[0-9]+)?)?  # optional rational coefficient
         (?P<star>\*)?
         (?P<var>n(?:\^(?P<exp>[+-]?[0-9]+))?)?$""",
    re.VERBOSE,
)


def parse_delta(literal: str) -> RatPoly:
    """Parse a Laurent-polynomial literal in the variable n."""
    text = literal.replace(" ", "")
    if not text:
        raise ParseError("empty delta literal")
    # split into signed terms; a sign directly after '^' is an exponent sign
    pieces = re.findall(r"[+-]?(?:\^[+-]?|[^-+^])+", text)
    if "".join(pieces) != text:
        raise ParseError(f"bad delta literal {literal!r}")
    coeffs: dict[int, Fraction] = {}
    for piece in pieces:
        sign = Fraction(1)
        body = piece
        if body[0] in "+-":
            sign = Fraction(-1) if body[0] == "-" else Fraction(1)
            body = body[1:]
        match = _TERM.match(body)
        if (
            not match
            or not body
            or (match.group("star") and not (match.group("var") and match.group("coeff")))
        ):
            raise ParseError(f"bad term {piece!r} in delta literal {literal!r}")
        coeff_text = match.group("coeff")
        coeff = sign * (as_fraction(coeff_text) if coeff_text else Fraction(1))
        if match.group("var"):
            exponent = as_integer(match.group("exp"), "exponent") if match.group("exp") else 1
        else:
            if coeff_text is None:
                raise ParseError(f"bad term {piece!r} in delta literal {literal!r}")
            exponent = 0
        coeffs[exponent] = coeffs.get(exponent, Fraction(0)) + coeff
    return RatPoly(coeffs)


def load_lattice(path: str | Path) -> tuple[SubobjectLattice, PairObject | None]:
    """Parse and validate a lattice file; returns (lattice, pair or None)."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # nested deeper than the parser recurses
        raise ParseError(f"{path} is nested too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top-level document must be an object")

    lattice = validate_lattice(raw)

    pair = None
    if "pair" in raw and raw["pair"] is not None:
        section = raw["pair"]
        if not isinstance(section, dict) or "beta_image" not in section:
            raise ParseError("pair section must be an object with a beta_image field")
        image = section["beta_image"]
        if image is not None and str(image) not in lattice.ids():
            raise ParseError(f"pair.beta_image {image!r} is not a lattice member")
        pair = PairObject(lattice=lattice, beta_image=None if image is None else str(image))
    return lattice, pair


# -- serializers for structured CLI output ---------------------------------

def nu_json(value: NuValue) -> dict:
    return {"L": format_poly(value.L), "b": format_rational(value.b)}


def nu_text(value: NuValue) -> str:
    """Exact (L, b) plus a 6-place decimal rendering of L/sqrt(b)."""
    approx_terms = {exp: _over_root(c, value.b) for exp, c in value.L.items()}
    if not approx_terms:
        approx = "0"
    else:
        approx = " + ".join(
            f"{coeff:.6f}" + ("" if exp == 0 else f"*n^{exp}" if exp != 1 else "*n")
            for exp, coeff in sorted(approx_terms.items(), reverse=True)
        )
    return f"L = {value.L}, b = {format_rational(value.b)}  (approx {approx})"
