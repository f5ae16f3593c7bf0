"""A small SQL expression language.

Used in three places: WHERE clauses in the engine, FGAC row-filter
predicates, and FGAC column-mask expressions. The catalog stores these as
strings; only engines evaluate them (the trusted-engine contract of paper
section 4.3.2).

Grammar (precedence low to high)::

    expr     := or
    or       := and (OR and)*
    and      := not (AND not)*
    not      := NOT not | cmp
    cmp      := add (( = | != | <> | < | <= | > | >= ) add)?
              | add IS [NOT] NULL | add [NOT] IN ( literal, ... )
              | add [NOT] LIKE 'pattern' | add [NOT] BETWEEN add AND add
    add      := mul (( + | - ) mul)*
    mul      := unary (( * | / | % ) unary)*
    unary    := - unary | primary
    primary  := literal | column | function ( args ) | ( expr )

Builtins: ``current_user()``, ``is_account_group_member('g')``,
``substr(s, start[, len])``, ``concat(...)``, ``upper``, ``lower``,
``length``, ``coalesce(...)``, ``abs``, ``round``, ``mask_hash(x)``
(stable redaction hash), ``if(cond, a, b)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import InvalidRequestError


@dataclass(frozen=True)
class EvalContext:
    """Who is evaluating: drives current_user()/group membership."""

    principal: str = ""
    groups: frozenset[str] = frozenset()


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|!=|<>|=|<|>|\+|-|\*|/|%|\(|\)|,|\.)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"AND", "OR", "NOT", "NULL", "TRUE", "FALSE", "IS", "IN",
             "LIKE", "BETWEEN"}


@dataclass(frozen=True)
class _Token:
    kind: str  # number | string | op | name | keyword
    text: str


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise InvalidRequestError(f"bad expression at: {text[pos:pos + 20]!r}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        kind = match.lastgroup
        value = match.group()
        if kind == "name" and value.upper() in _KEYWORDS:
            tokens.append(_Token("keyword", value.upper()))
        else:
            tokens.append(_Token(kind, value))
    return tokens


# -- AST ----------------------------------------------------------------------

class Expr:
    """Base AST node."""

    def eval(self, row: dict, ctx: EvalContext) -> Any:  # pragma: no cover
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Column names referenced by the expression."""
        return set()


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def eval(self, row: dict, ctx: EvalContext) -> Any:
        return self.value


@dataclass(frozen=True)
class Column(Expr):
    name: str

    def eval(self, row: dict, ctx: EvalContext) -> Any:
        return row.get(self.name)

    def columns(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr

    def eval(self, row: dict, ctx: EvalContext) -> Any:
        value = self.operand.eval(row, ctx)
        if self.op == "-":
            return None if value is None else -value
        if self.op == "NOT":
            return None if value is None else not _truthy(value)
        raise InvalidRequestError(f"unknown unary op {self.op}")

    def columns(self) -> set[str]:
        return self.operand.columns()


def _truthy(value: Any) -> bool:
    return bool(value)


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, row: dict, ctx: EvalContext) -> Any:
        if self.op == "AND":
            left = self.left.eval(row, ctx)
            if left is not None and not _truthy(left):
                return False
            right = self.right.eval(row, ctx)
            if right is not None and not _truthy(right):
                return False
            if left is None or right is None:
                return None
            return True
        if self.op == "OR":
            left = self.left.eval(row, ctx)
            if left is not None and _truthy(left):
                return True
            right = self.right.eval(row, ctx)
            if right is not None and _truthy(right):
                return True
            if left is None or right is None:
                return None
            return False
        left = self.left.eval(row, ctx)
        right = self.right.eval(row, ctx)
        if left is None or right is None:
            return None
        try:
            return _BINOPS[self.op](left, right)
        except TypeError:
            raise InvalidRequestError(
                f"type error evaluating {type(left).__name__} {self.op} "
                f"{type(right).__name__}"
            )
        except ZeroDivisionError:
            return None

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negate: bool = False

    def eval(self, row: dict, ctx: EvalContext) -> Any:
        is_null = self.operand.eval(row, ctx) is None
        return not is_null if self.negate else is_null

    def columns(self) -> set[str]:
        return self.operand.columns()


def _like_to_regex(pattern: str) -> "re.Pattern":
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: str
    negate: bool = False

    def eval(self, row: dict, ctx: EvalContext) -> Any:
        value = self.operand.eval(row, ctx)
        if value is None:
            return None
        result = _like_to_regex(self.pattern).match(str(value)) is not None
        return not result if self.negate else result

    def columns(self) -> set[str]:
        return self.operand.columns()


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negate: bool = False

    def eval(self, row: dict, ctx: EvalContext) -> Any:
        value = self.operand.eval(row, ctx)
        low = self.low.eval(row, ctx)
        high = self.high.eval(row, ctx)
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return not result if self.negate else result

    def columns(self) -> set[str]:
        return self.operand.columns() | self.low.columns() | self.high.columns()


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    values: tuple[Any, ...]
    negate: bool = False

    def eval(self, row: dict, ctx: EvalContext) -> Any:
        value = self.operand.eval(row, ctx)
        if value is None:
            return None
        result = value in self.values
        return not result if self.negate else result

    def columns(self) -> set[str]:
        return self.operand.columns()


def _mask_hash(value: Any) -> str:
    import hashlib

    return hashlib.sha256(str(value).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...] = ()

    def eval(self, row: dict, ctx: EvalContext) -> Any:
        name = self.name.lower()
        if name == "current_user":
            return ctx.principal
        if name == "is_account_group_member":
            group = self.args[0].eval(row, ctx)
            return group in ctx.groups
        values = [arg.eval(row, ctx) for arg in self.args]
        if name == "coalesce":
            for value in values:
                if value is not None:
                    return value
            return None
        if name == "if":
            return values[1] if _truthy(values[0]) else values[2]
        if any(v is None for v in values):
            return None
        if name == "substr":
            start = int(values[1])
            length = int(values[2]) if len(values) > 2 else None
            begin = start - 1 if start > 0 else len(values[0]) + start
            end = None if length is None else begin + length
            return str(values[0])[begin:end]
        if name == "concat":
            return "".join(str(v) for v in values)
        if name == "upper":
            return str(values[0]).upper()
        if name == "lower":
            return str(values[0]).lower()
        if name == "length":
            return len(str(values[0]))
        if name == "abs":
            return abs(values[0])
        if name == "round":
            digits = int(values[1]) if len(values) > 1 else 0
            return round(values[0], digits)
        if name == "mask_hash":
            return _mask_hash(values[0])
        raise InvalidRequestError(f"unknown function {self.name!r}")

    def columns(self) -> set[str]:
        out: set[str] = set()
        for arg in self.args:
            out |= arg.columns()
        return out


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Optional[_Token]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise InvalidRequestError("unexpected end of expression")
        self._pos += 1
        return token

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self._peek()
        if token is not None and token.kind == kind and (text is None or token.text == text):
            self._pos += 1
            return token
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self._accept(kind, text)
        if token is None:
            actual = self._peek()
            raise InvalidRequestError(
                f"expected {text or kind}, got {actual.text if actual else 'end'!r}"
            )
        return token

    def parse(self) -> Expr:
        expr = self._or()
        if self._peek() is not None:
            raise InvalidRequestError(
                f"trailing tokens in expression: {self._peek().text!r}"
            )
        return expr

    def _or(self) -> Expr:
        left = self._and()
        while self._accept("keyword", "OR"):
            left = Binary("OR", left, self._and())
        return left

    def _and(self) -> Expr:
        left = self._not()
        while self._accept("keyword", "AND"):
            left = Binary("AND", left, self._not())
        return left

    def _not(self) -> Expr:
        if self._accept("keyword", "NOT"):
            return Unary("NOT", self._not())
        return self._cmp()

    def _cmp(self) -> Expr:
        left = self._add()
        token = self._peek()
        if token is not None and token.kind == "op" and token.text in (
            "=", "!=", "<>", "<", "<=", ">", ">="
        ):
            self._next()
            op = "!=" if token.text == "<>" else token.text
            return Binary(op, left, self._add())
        if self._accept("keyword", "IS"):
            negate = self._accept("keyword", "NOT") is not None
            self._expect("keyword", "NULL")
            return IsNull(left, negate=negate)
        negate = False
        if token is not None and token.kind == "keyword" and token.text == "NOT":
            after = self._tokens[self._pos + 1] if self._pos + 1 < len(self._tokens) else None
            if after is not None and after.kind == "keyword" and after.text in (
                "IN", "LIKE", "BETWEEN"
            ):
                self._next()
                negate = True
        if self._accept("keyword", "IN"):
            self._expect("op", "(")
            values = [self._literal_value()]
            while self._accept("op", ","):
                values.append(self._literal_value())
            self._expect("op", ")")
            return InList(left, tuple(values), negate=negate)
        if self._accept("keyword", "LIKE"):
            pattern = self._literal_value()
            if not isinstance(pattern, str):
                raise InvalidRequestError("LIKE takes a string pattern")
            return Like(left, pattern, negate=negate)
        if self._accept("keyword", "BETWEEN"):
            low = self._add()
            self._expect("keyword", "AND")
            high = self._add()
            return Between(left, low, high, negate=negate)
        return left

    def _literal_value(self) -> Any:
        token = self._next()
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "keyword" and token.text in ("TRUE", "FALSE"):
            return token.text == "TRUE"
        if token.kind == "keyword" and token.text == "NULL":
            return None
        raise InvalidRequestError(f"expected a literal, got {token.text!r}")

    def _add(self) -> Expr:
        left = self._mul()
        while True:
            token = self._peek()
            if token is not None and token.kind == "op" and token.text in ("+", "-"):
                self._next()
                left = Binary(token.text, left, self._mul())
            else:
                return left

    def _mul(self) -> Expr:
        left = self._unary()
        while True:
            token = self._peek()
            if token is not None and token.kind == "op" and token.text in ("*", "/", "%"):
                self._next()
                left = Binary(token.text, left, self._unary())
            else:
                return left

    def _unary(self) -> Expr:
        if self._accept("op", "-"):
            return Unary("-", self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        token = self._next()
        if token.kind == "number":
            value = float(token.text) if "." in token.text else int(token.text)
            return Literal(value)
        if token.kind == "string":
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "keyword":
            if token.text == "TRUE":
                return Literal(True)
            if token.text == "FALSE":
                return Literal(False)
            if token.text == "NULL":
                return Literal(None)
            raise InvalidRequestError(f"unexpected keyword {token.text!r}")
        if token.kind == "op" and token.text == "(":
            inner = self._or()
            self._expect("op", ")")
            return inner
        if token.kind == "name":
            if self._accept("op", "("):
                args: list[Expr] = []
                if not self._accept("op", ")"):
                    args.append(self._or())
                    while self._accept("op", ","):
                        args.append(self._or())
                    self._expect("op", ")")
                return FunctionCall(token.text, tuple(args))
            # dotted (qualified) column references: alias.column
            parts = [token.text]
            while self._accept("op", "."):
                parts.append(self._expect("name").text)
            return Column(".".join(parts))
        raise InvalidRequestError(f"unexpected token {token.text!r}")


def parse_prefix(tokens: list[_Token], pos: int) -> tuple[Expr, int]:
    """Parse an expression from ``tokens[pos:]``, returning it and the
    position of the first unconsumed token (used by the SQL parser to
    embed expressions inside statements)."""
    parser = _Parser(tokens)
    parser._pos = pos
    expr = parser._or()
    return expr, parser._pos


def compile_expression(text: str) -> Expr:
    """Parse an expression string into an evaluable AST."""
    if not text or not text.strip():
        raise InvalidRequestError("empty expression")
    return _Parser(_tokenize(text)).parse()


def evaluate(text: str, row: dict, ctx: Optional[EvalContext] = None) -> Any:
    """One-shot convenience: compile and evaluate."""
    return compile_expression(text).eval(row, ctx or EvalContext())
