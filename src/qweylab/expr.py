"""Shared expression grammar: parsing and deterministic printing.

Grammar atoms: integers, fractions ``p/r``, the symbols ``q`` and ``zeta``,
generators ``x1..xn`` and ``d1..dn``, and Euler operators ``a1..an`` (parsed
as ``1 + x_i d_i``).  Operators are ``+ - * ^`` with parentheses; ``*`` is
noncommutative and left-associative, ``^`` binds tighter than ``*`` and takes
an integer exponent.  Negative exponents are allowed only on ``a`` symbols
(giving localized fractions) and on scalar atoms.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ExprError
from .qweyl import AlgebraSpec, LocalizedElement, PBWElement
from .scalars import Field, Scalar, decimal_str

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_OPS = set("+-*^()/")
# ASCII digits and names only: str.isdigit and str.isalnum also accept
# superscripts, which int() rejects, and other scripts' digits, which int()
# reads as if they were ASCII.
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz" "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _LETTERS | _DIGITS | {"_"}
# parentheses and unary minus signs nest at most this deep: the parser
# recurses once per level, and Python's stack is bounded
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "value", "col")

    def __init__(self, kind, value, col):
        self.kind = kind
        self.value = value
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        col = i + 1
        if c in _OPS:
            out.append(_Token("op", c, col))
            i += 1
            continue
        if c in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past the interpreter's int-to-str digit limit
                raise ExprError(
                    f"integer literal longer than {sys.get_int_max_str_digits()} digits", col
                ) from None
            out.append(_Token("int", value, col))
            i = j
            continue
        if c in _LETTERS:
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            out.append(_Token("name", text[i:j], col))
            i = j
            continue
        raise ExprError(f"unexpected character {c!r}", col)
    out.append(_Token("end", None, n + 1))
    return out


# ---------------------------------------------------------------------------
# Parser (precedence climbing over + and *, with ^ handled at the atom level)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, field: Field, spec: AlgebraSpec | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.field = field
        self.spec = spec

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.advance()
        if tok.kind != "op" or tok.value != op:
            raise ExprError(f"expected {op!r}", tok.col)

    def parse(self):
        value = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError("unexpected trailing input", tok.col)
        return value

    def parse_sum(self):
        value = self.parse_product()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.advance()
                rhs = self.parse_product()
                value = value + rhs if tok.value == "+" else value + (-rhs)
            else:
                return value

    def parse_product(self):
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "*":
                self.advance()
                value = value * self.parse_factor()
            elif tok.kind == "op" and tok.value == "/":
                self.advance()
                rhs = self.parse_factor()
                if not isinstance(rhs, Scalar):
                    raise ExprError("can only divide by a scalar", tok.col)
                value = value * rhs.inv()
            else:
                return value

    def nested(self, tok: _Token, parse):
        """parse(), one nesting level below the opening token tok."""
        if self.depth == MAX_NESTING:
            raise ExprError(f"nested deeper than {MAX_NESTING} levels", tok.col)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.advance()
            return -self.nested(tok, self.parse_factor)
        return self.parse_power()

    def parse_power(self):
        base, kind, col = self.parse_atom()
        tok = self.peek()
        if not (tok.kind == "op" and tok.value == "^"):
            return self.generator(*base) if kind == "generator" else base
        self.advance()
        exp = self.parse_exponent()
        if kind == "generator":
            head, index = base
            if head == "a":
                powers = [0] * self.spec.n
                powers[index - 1] = abs(exp)
                if exp >= 0:
                    return self.spec.alpha_power(powers)
                return LocalizedElement(self.spec.one(), tuple(powers))
            if exp < 0:
                raise ExprError("negative powers are allowed only on a-symbols", col)
            # x_i x_i merges with exponent 0, so x_i^e is one monomial
            return self.generator(head, index, exp)
        if exp >= 0 or kind == "scalar":
            return base**exp
        raise ExprError("negative powers are allowed only on a-symbols", col)

    def generator(self, head: str, index: int, power: int = 1):
        """The element of a generator atom: x_i or d_i to the given power, or
        a bare a_i."""
        if head == "x":
            return self.spec.x(index, power)
        if head == "d":
            return self.spec.d(index, power)
        return self.spec.alpha(index)

    def parse_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.advance()
            sign = -1
        tok = self.advance()
        if tok.kind != "int":
            raise ExprError("exponent must be an integer", tok.col)
        return sign * tok.value

    def parse_atom(self):
        """Returns (value, kind, col); kind in {'scalar','element','generator'}.

        For a generator the value is its (head, index): the caller builds the
        power it is raised to, so a power of x_i or d_i is one monomial, and a
        negative power of a_i stays exact, not inverted.
        """
        tok = self.advance()
        if tok.kind == "int":
            nxt = self.peek()
            after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if (
                nxt.kind == "op"
                and nxt.value == "/"
                and after is not None
                and after.kind == "int"
            ):
                self.advance()
                dtok = self.advance()
                if dtok.value == 0:
                    raise ExprError("fraction needs a nonzero denominator", dtok.col)
                return self.field.from_fraction(Fraction(tok.value, dtok.value)), "scalar", tok.col
            return self.field.from_int(tok.value), "scalar", tok.col
        if tok.kind == "name":
            return self.parse_name(tok)
        if tok.kind == "op" and tok.value == "(":
            value = self.nested(tok, self.parse_sum)
            self.expect_op(")")
            return value, "element" if not isinstance(value, Scalar) else "scalar", tok.col
        raise ExprError("expected a value", tok.col)

    def parse_name(self, tok):
        name = tok.value
        if name == "q":
            return self.field.q, "scalar", tok.col
        if name == "zeta":
            if self.field.kind != "cyclotomic":
                raise ExprError("symbol zeta needs a cyclotomic field", tok.col)
            return self.field.zeta, "scalar", tok.col
        head, tail = name[0], name[1:]
        if head in "xda" and tail.isdigit():
            if self.spec is None:
                raise ExprError("generators are not allowed in a scalar literal", tok.col)
            i = int(tail)
            if not 1 <= i <= self.spec.n:
                raise ExprError(f"generator index out of range 1..{self.spec.n}", tok.col)
            return (head, i), "generator", tok.col
        raise ExprError(f"unknown symbol {name!r}", tok.col)


def parse_expression(text: str, spec: AlgebraSpec):
    """Parse an expression over the given algebra; returns a Scalar,
    PBWElement, or LocalizedElement."""
    return _Parser(text, spec.field, spec).parse()


def parse_scalar(text: str, field: Field) -> Scalar:
    """Parse a scalar literal (no generators allowed)."""
    value = _Parser(text, field, None).parse()
    if not isinstance(value, Scalar):
        raise ExprError("expected a scalar literal")
    return value


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _split_sign(coeff_str: str):
    """Return (sign, body) for joining terms with ' + ' / ' - '."""
    core = coeff_str[1:] if coeff_str.startswith("-") else coeff_str
    if "+" in core or "-" in core:
        return "+", f"({coeff_str})"
    if coeff_str.startswith("-"):
        return "-", core
    return "+", coeff_str


def _monomial_str(a, b, c=None) -> str:
    parts = []
    for sym, vec in (("x", a), ("d", b)) if c is None else (("x", a), ("d", b), ("a", c)):
        for i, e in enumerate(vec):
            if e == 0:
                continue
            head = f"{sym}{i + 1}"
            parts.append(head if e == 1 else f"{head}^{decimal_str(e)}")
    return "*".join(parts)


def _format_terms(items) -> str:
    if not items:
        return "0"
    rendered = []
    for key, coeff in items:
        mono = _monomial_str(*key)
        cs = str(coeff)
        if not mono:
            sign, body = _split_sign(cs)
        elif cs == "1":
            sign, body = "+", mono
        elif cs == "-1":
            sign, body = "-", mono
        else:
            sign, body = _split_sign(cs)
            body = f"{body}*{mono}"
        rendered.append((sign, body))
    first_sign, first_body = rendered[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in rendered[1:]:
        out += f" {sign} {body}"
    return out


def format_pbw(u: PBWElement) -> str:
    return _format_terms(u.sorted_terms())


def format_localized(s: LocalizedElement) -> str:
    """An element of the localization as its lowest-terms fraction N*a^-D."""
    numerator, denom = s.numerator, s.denom
    num = format_pbw(numerator)
    if not any(denom):
        return num
    den = "*".join(f"a{i + 1}^-{k}" for i, k in enumerate(denom) if k)
    if num == "1":
        return den
    if len(numerator.terms) > 1:
        num = f"({num})"
    return f"{num}*{den}"
