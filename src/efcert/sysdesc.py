"""System description files: parsing and canonical serialization.

A system description is JSON with rational-function entries written as
strings in the variable z, for example::

    {
      "m": 2,
      "A": [["0", "1"], ["-1", "(-1)/(z)"]],
      "T": "z",
      "seeds": [["1"], ["0"]],
      "labels": ["J0", "J0'"],
      "growth": {"C": "1", "D": "2", "provenance": "catalog"},
      "exponent_bound": {"global": "2"}
    }

Expressions support + - * / ^ with parentheses, integer literals and z;
rationals are spelled as quotients (e.g. "1/2*z^2 - z").  Serialization is
canonical (sorted keys, fixed coefficient order), so emit -> parse -> emit
is byte-stable.
"""

from __future__ import annotations

import json
import logging
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .algebra import Poly, RatFunc
from .efunction import (DiffSystem, GrowthCertificate, minimal_clearing_poly,
                        normalize_clearing_poly)
from .errors import (AllComponentsZero, InconsistentSeeds, InputError,
                     UnderdeterminedSeeds)

logger = logging.getLogger(__name__)

# Size limits on untrusted expressions, checked before any arithmetic: digits
# of an integer literal, the degree and coefficient bits of a product or
# power, predicted from its factors (degrees and bit lengths add), and the
# degree of a sum a/b + c/d, predicted as that of (ad + cb)/(bd).  A rational
# in exponent notation ("1e5", "2.5E-3") has an exponent of at most
# _MAX_DIGITS in magnitude, checked before Fraction computes its power of ten.
# Parentheses nest at most _MAX_DEPTH deep, as each level costs the
# recursive-descent parser five frames of Python's recursion limit.
_MAX_DIGITS = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
_MAX_DEGREE = 256
_MAX_BITS = 4096
_MAX_DEPTH = 64


# ---------------------------------------------------------------------------
# Rational-function expressions
# ---------------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise InputError(f"expression {self.text!r}, column {self.pos + 1}: "
                         f"{message}")

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            self.error("unexpected end of expression")
        self.pos += 1
        return ch

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        if self.pos - start > _MAX_DIGITS:
            self.pos = start
            self.error(f"integer literal longer than {_MAX_DIGITS} digits")
        return int(self.text[start:self.pos])


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an expression in z to an exact rational function."""
    tok = _Tokenizer(text)
    value = _parse_sum(tok)
    if tok.peek() is not None:
        tok.error(f"unexpected {tok.peek()!r}")
    return value


def _parse_sum(tok: _Tokenizer) -> RatFunc:
    value = _parse_product(tok)
    while tok.peek() in ("+", "-"):
        column = tok.pos
        op = tok.take()
        rhs = _parse_product(tok)
        (a, b), (c, d) = ((f.num.degree, f.denom.degree) for f in (value, rhs))
        _check_size(tok, column, "sum", max(a + d, c + b, b + d))
        value = value + rhs if op == "+" else value - rhs
    return value


def _size(f: RatFunc) -> tuple[int, int]:
    """Degree and largest coefficient bit length of f."""
    return (max(f.num.degree, f.denom.degree),
            max(max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in (f.num, f.denom) for c in p.coeffs))


def _check_size(tok: _Tokenizer, column: int, what: str, degree: int,
                bits: int = 0):
    if degree > _MAX_DEGREE or bits > _MAX_BITS:
        tok.pos = column
        tok.error(f"{what} too large: degree {degree} (limit {_MAX_DEGREE})"
                  + (f", {bits} coefficient bits (limit {_MAX_BITS})"
                     if bits else ""))


def _parse_product(tok: _Tokenizer) -> RatFunc:
    value = _parse_unary(tok)
    while tok.peek() in ("*", "/"):
        column = tok.pos
        op = tok.take()
        rhs = _parse_unary(tok)
        (deg_l, bits_l), (deg_r, bits_r) = _size(value), _size(rhs)
        _check_size(tok, column, "product" if op == "*" else "quotient",
                    deg_l + deg_r, bits_l + bits_r)
        if op == "*":
            value = value * rhs
        else:
            if rhs.is_zero():
                tok.error("division by zero")
            value = value * RatFunc(rhs.denom, rhs.num)
    return value


def _parse_unary(tok: _Tokenizer) -> RatFunc:
    sign = 1
    while tok.peek() in ("+", "-"):
        if tok.take() == "-":
            sign = -sign
    value = _parse_power(tok)
    return value if sign == 1 else -value


def _parse_power(tok: _Tokenizer) -> RatFunc:
    base = _parse_atom(tok)
    if tok.peek() == "^":
        tok.take()
        column = tok.pos
        exp = tok.integer()
        degree, bits = _size(base)
        _check_size(tok, column, "power", exp * degree, exp * bits)
        out = RatFunc.constant(1)
        while exp:
            if exp & 1:
                out = out * base
            exp >>= 1
            if exp:
                base = base * base
        return out
    return base


def _parse_atom(tok: _Tokenizer) -> RatFunc:
    ch = tok.peek()
    if ch is None:
        tok.error("unexpected end of expression")
    if ch == "(":
        if tok.depth == _MAX_DEPTH:
            tok.error(f"parentheses nested deeper than {_MAX_DEPTH}")
        tok.take()
        tok.depth += 1
        value = _parse_sum(tok)
        if tok.peek() != ")":
            tok.error("expected ')'")
        tok.take()
        tok.depth -= 1
        return value
    if ch == "z":
        tok.take()
        return RatFunc(Poly.x())
    if ch.isdigit():
        return RatFunc.constant(tok.integer())
    tok.error(f"unexpected {ch!r}")


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

# Python converts an int of at most 4,300 digits to str (its default
# int_max_str_digits); a larger report integer is refused as input error.
_MAX_REPORT_DIGITS = 4300
_REPORT_LIMIT = 10 ** _MAX_REPORT_DIGITS


def frac_str(x: Fraction) -> str:
    """p/q, or p for an integer; reports format every exact number here."""
    x = Fraction(x)
    if max(abs(x.numerator), x.denominator) >= _REPORT_LIMIT:
        raise InputError(
            f"the report needs an integer of more than {_MAX_REPORT_DIGITS} "
            f"digits; a point xi or a target of smaller height keeps it "
            f"smaller")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(_MAX_DIGITS)) or int(digits or 0) > _MAX_DIGITS:
        raise InputError(f"rational {text!r}: exponent of more than "
                         f"{_MAX_DIGITS} in magnitude")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise InputError(
            f"malformed rational {text!r}: zero denominator") from None
    except ValueError as exc:
        raise InputError(f"malformed rational {text!r}: {exc}") from None


def poly_str(p: Poly) -> str:
    """Canonical polynomial string, descending powers."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = frac_str(mag)
        else:
            var = "z" if k == 1 else f"z^{k}"
            body = var if mag == 1 else f"{frac_str(mag)}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def ratfunc_str(f: RatFunc) -> str:
    if f.is_polynomial():
        return poly_str(f.to_poly())
    return f"({poly_str(f.num)})/({poly_str(f.denom)})"


# ---------------------------------------------------------------------------
# System files
# ---------------------------------------------------------------------------

def system_to_dict(sys: DiffSystem) -> dict:
    out = {
        "m": sys.m,
        "labels": list(sys.labels),
        "A": [[ratfunc_str(e) for e in row] for row in sys.A],
        "T": poly_str(sys.T),
        "seeds": [[frac_str(c) for c in row] for row in sys.seeds],
        "growth": None,
        "exponent_bound": None,
    }
    if sys.growth is not None:
        out["growth"] = {"C": frac_str(sys.growth.C),
                         "D": frac_str(sys.growth.D),
                         "provenance": sys.growth.provenance}
    if sys.exponent_bound is not None:
        out["exponent_bound"] = {k: frac_str(v)
                                 for k, v in sorted(sys.exponent_bound.items())}
    return out


def emit_system(sys: DiffSystem) -> str:
    return json.dumps(system_to_dict(sys), indent=2, sort_keys=True) + "\n"


def system_from_dict(doc: dict, origin: str = "<dict>") -> DiffSystem:
    def fail(field: str, message: str):
        raise InputError(f"{origin}: field {field!r}: {message}")

    if not isinstance(doc, dict):
        raise InputError(f"{origin}: top level must be a JSON object")
    m = doc.get("m")
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        fail("m", "missing or not a positive integer")
    raw_a = doc.get("A")
    if (not isinstance(raw_a, list) or len(raw_a) != m
            or any(not isinstance(r, list) or len(r) != m for r in raw_a)):
        fail("A", f"must be an {m}x{m} array of strings")
    a = []
    for i, row in enumerate(raw_a):
        out_row = []
        for j, cell in enumerate(row):
            try:
                out_row.append(parse_ratfunc(str(cell)))
            except InputError as exc:
                fail(f"A[{i}][{j}]", str(exc))
        a.append(tuple(out_row))

    raw_seeds = doc.get("seeds")
    if not isinstance(raw_seeds, list) or len(raw_seeds) != m:
        fail("seeds", f"must be a list of {m} arrays of rational strings")
    seeds = []
    for i, row in enumerate(raw_seeds):
        if not isinstance(row, list) or not row:
            fail(f"seeds[{i}]", "must be a nonempty array of rational strings")
        try:
            seeds.append(tuple(parse_rational(str(c)) for c in row))
        except InputError as exc:
            fail(f"seeds[{i}]", str(exc))

    labels = doc.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != m
                or not all(isinstance(s, str) for s in labels)):
            fail("labels", f"must be a list of {m} strings")

    t_poly = None
    if doc.get("T") is None:
        clearing = minimal_clearing_poly(a)
    else:
        try:
            t_func = parse_ratfunc(str(doc["T"]))
            if t_func.is_zero() or not t_func.is_polynomial():
                raise InputError("must be a nonzero polynomial")
            t_poly = t_func.to_poly()
            clearing = normalize_clearing_poly(t_poly, a)
        except InputError as exc:
            fail("T", str(exc))

    growth = None
    if doc.get("growth") is not None:
        g = doc["growth"]
        if not isinstance(g, dict):
            fail("growth", "must be an object with C, D, provenance")
        try:
            growth = GrowthCertificate(
                parse_rational(str(g["C"])), parse_rational(str(g["D"])),
                str(g.get("provenance", "user-supplied")))
        except (KeyError, InputError) as exc:
            fail("growth", str(exc))

    bound = None
    be = doc.get("exponent_bound")
    if be is not None:
        try:
            if isinstance(be, dict):
                bound = {str(k): parse_rational(str(v)) for k, v in be.items()}
            else:
                bound = {"global": parse_rational(str(be))}
        except InputError as exc:
            fail("exponent_bound", str(exc))

    try:
        system = DiffSystem(a, clearing, seeds, labels=labels, growth=growth,
                            exponent_bound=bound)
    except InputError as exc:       # all but exponent_bound checked above
        fail("exponent_bound", str(exc))
    except (InconsistentSeeds, UnderdeterminedSeeds) as exc:
        raise type(exc)(f"{origin}: field 'seeds': {exc}") from None
    if not any(c for row in system.seeds for c in row):
        raise AllComponentsZero(
            f"{origin}: field 'seeds': {AllComponentsZero()}")
    if t_poly is not None and system.T != t_poly:
        logger.warning("%s: supplied T = %s does not clear A integrally; "
                       "rescaled to T = %s", origin, poly_str(t_poly),
                       poly_str(system.T))
    return system


def parse_system(path: str | Path) -> DiffSystem:
    """Load a system description file; errors carry file/line context."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:        # an integer literal past int's digits
        raise InputError(f"{path}: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    return system_from_dict(doc, origin=str(path))


def catalog_file(name: str) -> Path:
    """Path of a packaged catalog description (bessel_j0, exp_pair, ...)."""
    base = resources.files("efcert") / "data" / f"{name}.json"
    if not base.is_file():
        raise InputError(f"no packaged catalog file {name}.json")
    return Path(str(base))


def resolve_system_path(arg: str) -> Path:
    """A real path wins; otherwise fall back to the packaged catalog."""
    p = Path(arg)
    if p.is_file():
        return p
    name = p.name
    if name.endswith(".json"):
        name = name[:-5]
    try:
        return catalog_file(name)
    except InputError:
        raise InputError(f"system description {arg!r} not found") from None
