"""Exact symbolic expressions closed under the operations we need.

An :class:`Expr` is a finite sum of terms

    c * x1^m1 * ... * xk^mk * exp(l)

where ``c`` is a rational number, the ``mi`` are nonnegative integers and
``l`` is a rational-affine form in the variables.  The class is closed under
addition, multiplication, integer powers, partial differentiation and
substitution by affine expressions; products of exponentials merge their
arguments, so the representation is canonical and zero-equality is decidable
by inspection.  There is no division node: division is only available as
exact division (:func:`div_exact`) or by rational constants.

Every rational in a term, ``c`` and the coefficients of ``l`` alike, is
stored in one form (:func:`rational`): an ``int`` when integral, else a
``Fraction``.  Most coefficients are integral, and ``int`` hashing and
arithmetic are much cheaper than ``Fraction``'s.  Division of coefficients
always goes through ``Fraction``, never ``int / int``.

Products of terms multiply their keys, a monomial and a linear form.  The
same few key pairs recur throughout a computation, so both key products are
memoised (bounded LRU caches); the stored rationals are canonical, so equal
keys are equal tuples.  A sum of products is formed by :func:`dot` in one
term table, sorted once.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

Number = Union[int, Fraction]
# A monomial is a sorted tuple of (variable, exponent) with exponent >= 1.
Mono = tuple[tuple[str, int], ...]
# A linear form is a sorted tuple of (variable, coefficient); the empty
# variable name "" holds the constant part of the exponent.
Lin = tuple[tuple[str, Number], ...]
TermKey = tuple[Mono, Lin]


def rational(q) -> Number:
    """The stored form of a rational number: an int when integral, else a
    Fraction.  Every coefficient an Expr holds passes through here."""
    if type(q) is not Fraction:
        if type(q) is int:
            return q
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class ExprError(ValueError):
    """Raised for operations that would leave the expression class."""


class ExprSyntaxError(ExprError):
    """Raised on parse failure; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# entries in each key-product cache; an entry holds about 400 bytes, and a
# pass of the big-operand benchmark workload needs about 4,900 of them
_KEY_CACHE_SIZE = 1 << 13


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def _mono_mul(a: Mono, b: Mono) -> Mono:
    d: dict[str, int] = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e != 0))


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def _lin_add(a: Lin, b: Lin) -> Lin:
    # both forms are canonical, so adding the empty form is the identity
    if not b:
        return a
    if not a:
        return b
    d: dict[str, Number] = dict(a)
    for v, c in b:
        d[v] = d.get(v, 0) + c
    return tuple(sorted((v, rational(c)) for v, c in d.items() if c != 0))


def _lin_scale(a: Lin, k: Number) -> Lin:
    if k == 0:
        return ()
    return tuple((v, rational(c * k)) for v, c in a)


@dataclass(frozen=True)
class Expr:
    """Canonical sum of rational-coefficient monomial-times-exponential terms."""

    terms: tuple[tuple[Mono, Lin, Number], ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def number(q: Number) -> "Expr":
        q = rational(q)
        if q == 0:
            return Expr()
        return Expr((((), (), q),))

    @staticmethod
    def var(name: str) -> "Expr":
        if not _IDENT_RE.fullmatch(name):
            raise ExprError(f"invalid variable name {name!r}")
        return Expr(((((name, 1),), (), 1),))

    @staticmethod
    def from_terms(d: Mapping[TermKey, Number]) -> "Expr":
        items = tuple(
            (m, l, c if type(c) is int else rational(c))
            for (m, l), c in sorted(d.items())
            if c != 0
        )
        return Expr(items)

    @staticmethod
    def exp_of(argument: "Expr") -> "Expr":
        """exp of an affine expression (raises if the argument is not affine)."""
        lin = argument.as_linear()
        return Expr((((), lin, 1),))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () and l == () for m, l, _ in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ExprError(f"not a constant: {self}")
        return Fraction(self.terms[0][2])

    def variables(self) -> set[str]:
        vs: set[str] = set()
        for m, l, _ in self.terms:
            vs.update(v for v, _ in m)
            vs.update(v for v, _ in l if v)
        return vs

    def as_linear(self) -> Lin:
        """View as an affine form; raise if a term is nonlinear or exponential."""
        d: dict[str, Number] = {}
        for m, l, c in self.terms:
            if l:
                raise ExprError("exponential term inside a linear form")
            if m == ():
                d[""] = d.get("", 0) + c
            elif len(m) == 1 and m[0][1] == 1:
                v = m[0][0]
                d[v] = d.get(v, 0) + c
            else:
                raise ExprError(f"nonlinear term in supposed linear form: {self}")
        return tuple(sorted((v, rational(c)) for v, c in d.items() if c != 0))

    # -- arithmetic --------------------------------------------------------

    def _as_dict(self) -> dict[TermKey, Number]:
        return {(m, l): c for m, l, c in self.terms}

    def __add__(self, other) -> "Expr":
        other = _coerce(other)
        # every constructor yields canonical terms, so x + 0 is x itself
        if not other.terms:
            return self
        if not self.terms:
            return other
        d = self._as_dict()
        for m, l, c in other.terms:
            k = (m, l)
            d[k] = d.get(k, 0) + c
        return Expr.from_terms(d)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(tuple((m, l, -c) for m, l, c in self.terms))

    def __sub__(self, other) -> "Expr":
        other = _coerce(other)
        if not other.terms:
            return self
        d = self._as_dict()
        for m, l, c in other.terms:
            d[m, l] = d.get((m, l), 0) - c
        return Expr.from_terms(d)

    def __rsub__(self, other) -> "Expr":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "Expr":
        other = _coerce(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        if len(b) == 1 and not b[0][0] and not b[0][1]:
            return self._scaled(b[0][2])
        if len(a) == 1 and not a[0][0] and not a[0][1]:
            return other._scaled(a[0][2])
        d: dict[TermKey, Number] = {}
        _mul_into(d, a, b)
        return Expr.from_terms(d)

    __rmul__ = __mul__

    def _scaled(self, k: Number) -> "Expr":
        # a nonzero constant factor keeps every key, so the order stays canonical
        if k == 1:
            return self
        return Expr(tuple((m, l, rational(c * k)) for m, l, c in self.terms))

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise ExprError("only integer powers are supported")
        if n < 0:
            if len(self.terms) == 1 and self.terms[0][0] == ():
                _, l, c = self.terms[0]
                inv = Expr((((), _lin_scale(l, -1), rational(Fraction(1) / c)),))
                return inv ** (-n)
            raise ExprError("negative power of a non-invertible expression")
        out = Expr.number(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other) -> "Expr":
        other = _coerce(other)
        if other.is_constant():
            c = other.constant_value()
            if c == 0:
                raise ZeroDivisionError("division by zero constant")
            return self * Expr.number(Fraction(1) / c)
        return div_exact(self, other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Expr.number(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    # -- calculus ----------------------------------------------------------

    def diff(self, v: str) -> "Expr":
        """Exact partial derivative with respect to the variable ``v``."""
        d: dict[TermKey, Number] = {}

        def acc(m: Mono, l: Lin, c: Number) -> None:
            if c == 0:
                return
            k = (m, l)
            d[k] = d.get(k, 0) + c

        for m, l, c in self.terms:
            md = dict(m)
            if v in md:
                e = md[v]
                m2 = dict(md)
                if e == 1:
                    del m2[v]
                else:
                    m2[v] = e - 1
                acc(tuple(sorted(m2.items())), l, c * e)
            lv = dict(l).get(v)
            if lv is not None:
                acc(m, l, c * lv)
        return Expr.from_terms(d)

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Replace variables by expressions.

        Variables occurring inside an exponential argument must map to affine
        expressions (otherwise the result would leave the class).
        """
        mapping = {v: _coerce(e) for v, e in mapping.items()}
        out = Expr()
        for m, l, c in self.terms:
            t = Expr.number(c)
            for v, e in m:
                t = t * (mapping[v] ** e if v in mapping else Expr.var(v) ** e)
            if l:
                arg = Expr()
                for v, k in l:
                    if v == "":
                        arg = arg + Expr.number(k)
                    elif v in mapping:
                        img = mapping[v]
                        img.as_linear()  # raises if not affine
                        arg = arg + Expr.number(k) * img
                    else:
                        arg = arg + Expr.number(k) * Expr.var(v)
                t = t * Expr.exp_of(arg)
            out = out + t
        return out

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: "Point"):
        """Evaluate at a point; returns a float, or a :class:`DualValue` when
        the point carries infinitesimal seeds."""
        if not point.dual:
            return self._eval_real(point.values)
        val = self._eval_real(point.values)
        dual = {}
        for v, seed in point.dual.items():
            dual[v] = self.diff(v)._eval_real(point.values) * seed
        return DualValue(val, dual)

    def _eval_real(self, values: Mapping[str, float]) -> float:
        total = 0.0
        for m, l, c in self.terms:
            t = float(c)
            for v, e in m:
                t *= _lookup(values, v) ** e
            if l:
                arg = 0.0
                for v, k in l:
                    arg += float(k) * (1.0 if v == "" else _lookup(values, v))
                t *= math.exp(arg)
            total += t
        return total

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (m, l, c) in enumerate(self.terms):
            factors = []
            if abs(c) != 1 or (not m and not l):
                factors.append(_fmt_frac(abs(c)))
            for v, e in m:
                factors.append(v if e == 1 else f"{v}^{e}")
            if l:
                factors.append(f"exp({_fmt_lin(l)})")
            text = "*".join(factors) if factors else "1"
            if i == 0:
                parts.append(("-" if c < 0 else "") + text)
            else:
                parts.append(("- " if c < 0 else "+ ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Expr({self})"


def _fmt_frac(q: Number) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fmt_lin(l: Lin) -> str:
    parts = []
    for i, (v, c) in enumerate(l):
        body = _fmt_frac(abs(c)) if v == "" else (v if abs(c) == 1 else f"{_fmt_frac(abs(c))}*{v}")
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.number(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def _lookup(values: Mapping[str, float], v: str) -> float:
    try:
        return values[v]
    except KeyError:
        raise ExprError(f"unbound variable {v!r} in evaluation") from None


def _mul_into(d: dict[TermKey, Number], a, b) -> None:
    """Add the product of the term tuples ``a`` and ``b`` into the table ``d``."""
    for m1, l1, c1 in a:
        for m2, l2, c2 in b:
            k = (_mono_mul(m1, m2), _lin_add(l1, l2))
            d[k] = d.get(k, 0) + c1 * c2


def dot(pairs: Iterable[tuple[Expr, Expr]]) -> Expr:
    """The sum of ``a * b`` over the pairs, formed in one term table and
    sorted once rather than re-sorted after every product."""
    d: dict[TermKey, Number] = {}
    for a, b in pairs:
        _mul_into(d, a.terms, b.terms)
    return Expr.from_terms(d)


ZERO = Expr()
ONE = Expr.number(1)


@dataclass(frozen=True)
class Point:
    """Evaluation point: variable values plus optional infinitesimal seeds."""

    values: Mapping[str, float]
    dual: Mapping[str, float] = field(default_factory=dict)


@dataclass
class DualValue:
    """Result of evaluating with infinitesimal seeds: value plus one dual
    part per designated variable."""

    value: float
    dual: dict[str, float]


# ---------------------------------------------------------------------------
# parsing

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", bad_pos)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        e = self.term()
        if negate:
            e = -e
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                e = e * self.factor()
            elif kind == "op" and val == "/":
                self.next()
                rhs = self.factor()
                if not rhs.is_constant():
                    raise ExprSyntaxError("division only by rational constants", pos)
                c = rhs.constant_value()
                if c == 0:
                    raise ExprSyntaxError("division by zero", pos)
                e = e * Expr.number(Fraction(1) / c)
            else:
                return e

    def factor(self) -> Expr:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.factor()
        e = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                self.next()
                sign = -1
            kind, val, pos = self.next()
            if kind != "num":
                raise ExprSyntaxError("exponent must be an integer", pos)
            try:
                e = e ** (sign * int(val))
            except ExprError as err:
                raise ExprSyntaxError(str(err), pos) from None
        return e

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Expr.number(int(val))
        if kind == "ident":
            if val == "exp":
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                try:
                    return Expr.exp_of(arg)
                except ExprError:
                    raise ExprSyntaxError(
                        "exp() argument must be affine in the variables", pos
                    ) from None
            return Expr.var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected token {val or 'end of input'!r}", pos)


def parse(text: str) -> Expr:
    """Parse the expression grammar: integers, rationals p/q, identifiers,
    ``+ - * ^`` with integer exponents, ``exp(<affine form>)``, parentheses."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# exact division

def _sparse_vec(pairs: Iterable[tuple[str, object]], keys: list[str]):
    d = dict(pairs)
    return tuple(d.get(k, 0) for k in keys)


def _term_order_key(term: tuple[Mono, Lin, Number], mono_vars: list[str], lin_vars: list[str]):
    m, l, _ = term
    return (_sparse_vec(m, mono_vars), _sparse_vec(l, lin_vars))


def div_exact(num: Expr, den: Expr, max_steps: int = 20000) -> Expr:
    """Exact division in the expression ring; raises ExprError when the
    quotient does not exist in the class."""
    if den.is_zero():
        raise ZeroDivisionError("exact division by zero")
    if num.is_zero():
        return ZERO
    vars_ = sorted(num.variables() | den.variables())
    lin_vars = [""] + vars_

    def leading(e: Expr):
        return max(e.terms, key=lambda t: _term_order_key(t, vars_, lin_vars))

    lt_den = leading(den)
    quot: dict[TermKey, Number] = {}
    rem = num
    for _ in range(max_steps):
        if rem.is_zero():
            return Expr.from_terms(quot)
        mr, lr, cr = leading(rem)
        md, ld, cd = lt_den
        # monomial part must divide; exponential parts always do (units)
        dd = dict(md)
        mq: dict[str, int] = {}
        for v, e in mr:
            q = e - dd.pop(v, 0)
            if q < 0:
                raise ExprError("exact division failed (no quotient in class)")
            if q:
                mq[v] = q
        if dd:
            raise ExprError("exact division failed (no quotient in class)")
        k = (tuple(sorted(mq.items())), _lin_add(lr, _lin_scale(ld, -1)))
        c = rational(Fraction(cr, cd))
        quot[k] = quot.get(k, 0) + c
        t = Expr(((k[0], k[1], c),))
        rem = rem - t * den
    raise ExprError("exact division did not terminate")
