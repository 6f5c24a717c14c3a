"""Scalar and vector fields on R^3: parsing, evaluation, symbolic partials,
and composition with power series.

The grammar is deliberately small::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := number | ident | '(' expr ')' | func '(' expr ')' | '-' base
    func   := sin | cos | exp | log | sqrt

Identifiers are the coordinates ``x1, x2, x3`` or named parameters bound at
call time.  Numbers accept decimal and rational ``p/q`` literals; a quotient
of two numeric literals is folded into an exact rational at parse time so
that ``1/2`` means the rational one half in exact mode.

Series enter an expression one way: :func:`compose` evaluates the tree with
x1, x2, x3 replaced by three series, so a Taylor jet is the expression
composed with ``p_i + x_i``, and the chart composes f and its partials
(:func:`diff`, taken on the tree) with the chart series directly.  Points
enter through :func:`evaluate`, which compiles a tree into nested closures
once and keeps them on its nodes.  Both take ``^`` by repeated squaring
(:func:`_power`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ParseError
from .series import RATIONAL, TruncatedSeries, apply_univariate, as_double, kind

VAR_NAMES = ("x1", "x2", "x3")
FUNCS = ("sin", "cos", "exp", "log", "sqrt")


@dataclass(frozen=True)
class Var:
    index: int  # 0, 1, 2


@dataclass(frozen=True)
class Num:
    value: object  # Fraction (exact literal) or float


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Func:
    name: str
    arg: object


@dataclass(frozen=True)
class Add:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Sub:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Mul:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Div:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


Expr = object  # informal union of the node classes above


@dataclass(frozen=True)
class VectorExpr:
    components: tuple  # exactly three Expr

    def __post_init__(self):
        if len(self.components) != 3:
            raise ValueError("VectorExpr needs exactly 3 components")


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", offset)
        if m.lastgroup is not None:
            out.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


_LEAF_VALUES = (int, str, Fraction)  # the argument types of a node that are not nodes

# How deep an expression may nest: the nodes on a path of its tree, and the
# brackets, function calls and signs open at once in its text.  Every walker
# recurses once or twice per level, and a partial (:func:`diff`) nests up
# to three times as deep as its factor, so a tree at the bound stays well
# inside the interpreter's default recursion limit of 1000 frames.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent over the tokens of one text.  Nodes are built through
    :meth:`node`, which interns them in ``table``: equal subtrees become one
    object, so :func:`compose`, which memoises by node identity, evaluates
    each once, and :func:`evaluate` compiles each once.  Each node keeps the
    depth of its tree, and the parse stops with a ParseError where the tree
    or the text nests deeper than MAX_DEPTH."""

    def __init__(self, text: str, table: dict):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.table = table
        self.nesting = 0

    def node(self, cls, *args):
        """The one node ``cls(*args)`` of the table.  Its children are interned
        already, so their identities stand for their structure; the leaves'
        values (indices, names, and literals, every one a Fraction) key
        themselves."""
        key = (cls, *[a if type(a) in _LEAF_VALUES else id(a) for a in args])
        hit = self.table.get(key)
        if hit is None:
            depth = 1 + max((a._depth for a in args if type(a) not in _LEAF_VALUES), default=0)
            self.check_depth(depth)
            hit = self.table[key] = cls(*args)
            object.__setattr__(hit, "_depth", depth)
        return hit

    def check_depth(self, depth: int):
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels",
                             self.tokens[self.pos - 1][2])

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = self.node(Add if val == "+" else Sub, node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                if val == "*":
                    node = self.node(Mul, node, rhs)
                else:
                    node = self._fold_div(node, rhs, off)
            else:
                return node

    def _fold_div(self, lhs, rhs, off):
        if isinstance(rhs, Num) and rhs.value == 0:
            raise ParseError("division by a literal zero", off)
        # numeric/numeric quotients become exact rational literals
        if isinstance(lhs, Num) and isinstance(rhs, Num):
            if isinstance(lhs.value, Fraction) and isinstance(rhs.value, Fraction):
                return self.node(Num, lhs.value / rhs.value)
        return self.node(Div, lhs, rhs)

    def factor(self):
        node = self.base()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, off = self.peek()
            if kind != "num" or not val.isdigit():
                raise ParseError("exponent must be a non-negative integer", off)
            self.advance()
            return self.node(Pow, node, int(val))
        return node

    def base(self):
        """A base, one level inside the brackets, calls and signs around it."""
        self.nesting += 1
        self.check_depth(self.nesting)
        node = self.atom()
        self.nesting -= 1
        return node

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return self.node(Num, Fraction(val))
        if kind == "ident":
            if val in VAR_NAMES:
                return self.node(Var, VAR_NAMES.index(val))
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if val not in FUNCS:
                    raise ParseError(f"unknown function {val!r}", off)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return self.node(Func, val, arg)
            return self.node(Param, val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and val == "-":
            arg = self.base()
            if isinstance(arg, Num):
                return self.node(Num, -arg.value)
            return self.node(Neg, arg)
        raise ParseError(f"unexpected token {val!r}", off)


def parse(text: str):
    """Parse an expression string into an AST, in which equal subtrees are
    one node."""
    return _Parser(text, {}).parse()


def parse_vector(texts) -> VectorExpr:
    """Parse three component strings into a vector field.  The components
    share subtrees: a subexpression that occurs in several of them, such as
    ``cos(x3)``, is one node, so ``compose`` evaluates it once for all three."""
    texts = list(texts)
    if len(texts) != 3:
        raise ValueError("a vector field needs exactly 3 component expressions")
    table = {}
    return VectorExpr(tuple(_Parser(t, table).parse() for t in texts))


# -- printing ---------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 2, Pow: 3}


def _prec(node) -> int:
    if isinstance(node, Num) and isinstance(node.value, Fraction) and (
        node.value.denominator != 1 and node.value > 0
    ):
        return 2  # printed as the quotient p/q (negative literals are parenthesized)
    return _PREC.get(type(node), 4)


def to_string(node) -> str:
    """Serialize an AST back to the grammar; parse(to_string(e)) == e."""
    if isinstance(node, Var):
        return VAR_NAMES[node.index]
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Num):
        v = node.value
        if isinstance(v, Fraction):
            body = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        else:
            body = repr(float(v))
        return f"({body})" if (v < 0) else body
    if isinstance(node, Neg):
        inner = to_string(node.arg)
        # '-' binds to a single base: -x1^2 parses as (-x1)^2
        if _prec(node.arg) < 4:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Func):
        return f"{node.name}({to_string(node.arg)})"
    if isinstance(node, Pow):
        base = to_string(node.base)
        if _prec(node.base) < 4:
            base = f"({base})"
        return f"{base}^{node.exp}"
    if isinstance(node, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(node)]
        me = _prec(node)
        left = to_string(node.lhs)
        if _prec(node.lhs) < me:
            left = f"({left})"
        right = to_string(node.rhs)
        # the parser is left-associative; parenthesize equal precedence on the right
        if _prec(node.rhs) <= me:
            right = f"({right})"
        return f"{left}{op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def _as_number(v):
    if isinstance(v, (Fraction, float)):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise DomainError(f"cannot interpret {v!r} as a number")


# -- numeric evaluation -------------------------------------------------------

def _power(base, p: int, one):
    """``base`` to the integer power ``p >= 0`` by square and multiply: the
    product of the squares ``base^(2^k)`` over the set bits of ``p``, lowest
    first, or ``one`` when ``p`` is 0.

    Both evaluation paths take ``^`` this way, so a double ``evaluate`` and
    the constant term of a double ``jet`` agree bit for bit.  Products also
    overflow to inf where a float ``**`` raises ``OverflowError``, and stay
    on numpy's vectorised loop where an array ``**`` with negative bases
    leaves it (about 30 times slower on 792 values with numpy 2.4).
    """
    out = None
    while p:
        if p & 1:
            out = base if out is None else out * base
        p >>= 1
        if p:
            base = base * base
    return one if out is None else out


def evaluate(node, bindings: dict | None, point):
    """IEEE-double value of the expression at a point, or one value per row
    of an (N, 3) batch.

    The tree is compiled into a kernel of nested closures on its first
    evaluation, and later calls reuse it; ``^`` is repeated squaring
    (:func:`_power`), as in :func:`compose`.
    """
    pts = np.asarray(point, dtype=np.float64)
    out = _kernel(node)(pts.T, bindings or {})
    if pts.ndim == 1:
        return float(out)
    # a tree without a variable gives one value, which every row shares
    return np.asarray(out, dtype=np.float64) if np.ndim(out) else np.full(len(pts), out)


def _kernel(n):
    """The compiled evaluator of ``n``, a function of the coordinate columns
    and the bindings.  It is kept in the node's ``__dict__``, outside the
    dataclass fields, so equality, hashing and repr do not see it; a kernel
    holds its children's kernels and never a node, so no reference cycle
    forms."""
    k = getattr(n, "_kernel", None)
    if k is None:
        k = _compile(n)
        object.__setattr__(n, "_kernel", k)
    return k


def _compile(n):
    # one closure per node; each evaluates its operands in the order of the
    # tree, the denominator of a quotient first, so errors surface as a walk
    # of the tree would meet them
    if isinstance(n, Var):
        i = n.index
        return lambda cols, b: cols[i]
    if isinstance(n, Num):
        v = as_double(n.value)
        return lambda cols, b: v
    if isinstance(n, Param):
        name = n.name

        def param(cols, b):
            if name not in b:
                raise DomainError(f"unbound parameter {name!r}")
            v = b[name]
            return v if type(v) is float else as_double(_as_number(v))
        return param
    if isinstance(n, Neg):
        arg = _kernel(n.arg)
        return lambda cols, b: -arg(cols, b)
    if isinstance(n, (Add, Sub, Mul)):
        lhs, rhs = _kernel(n.lhs), _kernel(n.rhs)
        if isinstance(n, Add):
            return lambda cols, b: lhs(cols, b) + rhs(cols, b)
        if isinstance(n, Sub):
            return lambda cols, b: lhs(cols, b) - rhs(cols, b)
        return lambda cols, b: lhs(cols, b) * rhs(cols, b)
    if isinstance(n, Div):
        lhs, rhs = _kernel(n.lhs), _kernel(n.rhs)

        def div(cols, b):
            den = rhs(cols, b)
            if np.any(den == 0):
                raise DomainError("division by zero")
            return lhs(cols, b) / den
        return div
    if isinstance(n, Pow):
        base, p = _kernel(n.base), n.exp
        return lambda cols, b: _power(base(cols, b), p, 1.0)
    if isinstance(n, Func) and n.name in FUNCS:
        arg, fn = _kernel(n.arg), getattr(np, n.name)
        if n.name not in _DOMAIN:
            return lambda cols, b: fn(arg(cols, b))
        outside, message = _DOMAIN[n.name]

        def checked(cols, b):
            a = arg(cols, b)
            if np.any(outside(a)):
                raise DomainError(message)
            return fn(a)
        return checked
    raise TypeError(f"not an expression node: {n!r}")


_DOMAIN = {  # the arguments outside a function's domain, and the error
    "log": (lambda a: a <= 0, "log of a non-positive value"),
    "sqrt": (lambda a: a < 0, "sqrt of a negative value"),
}


# -- composition with series ----------------------------------------------------

def _sin_taylor(c: float, order: int):
    cyc = (math.sin(c), math.cos(c), -math.sin(c), -math.cos(c))
    return [cyc[k % 4] / math.factorial(k) for k in range(order + 1)]


def _cos_taylor(c: float, order: int):
    cyc = (math.cos(c), -math.sin(c), -math.cos(c), math.sin(c))
    return [cyc[k % 4] / math.factorial(k) for k in range(order + 1)]


def _exp_taylor(c: float, order: int):
    e = math.exp(c)
    return [e / math.factorial(k) for k in range(order + 1)]


def _log_taylor(c: float, order: int):
    if c <= 0:
        raise DomainError("log of a non-positive value in a jet")
    out = [math.log(c)]
    for k in range(1, order + 1):
        out.append((-1.0) ** (k + 1) / (k * c**k))
    return out


def _sqrt_taylor(c: float, order: int):
    if c <= 0:
        raise DomainError("sqrt jet needs a strictly positive argument")
    out = [math.sqrt(c)]
    for k in range(order):
        out.append(out[-1] * (0.5 - k) / ((k + 1) * c))
    return out


_TAYLOR = {"sin": _sin_taylor, "cos": _cos_taylor, "exp": _exp_taylor,
           "log": _log_taylor, "sqrt": _sqrt_taylor}


def compose(nodes, bindings: dict | None, inner):
    """The expression with x1, x2, x3 replaced by the three series ``inner``.

    ``nodes`` is one expression or a list of them; the result is one series,
    or a list, over the variables and order of ``inner``.  Subexpressions
    free of x1, x2, x3 stay numbers, which scale the series they meet.  The
    nodes of a list share the values of common subtrees by node identity.
    """
    a, b, c = inner
    a._check(b), a._check(c)
    ev = _Composition(inner, bindings or {})
    out = [ev(n) for n in (nodes if isinstance(nodes, (list, tuple)) else [nodes])]
    out = [v if isinstance(v, TruncatedSeries)
           else TruncatedSeries.constant(a.vars, a.order, v, a.kind) for v in out]
    return out if isinstance(nodes, (list, tuple)) else out[0]


class _Composition:
    """The walk of :func:`compose`, memoised by node identity.  A class and
    not nested recursive closures, which would leave a reference cycle holding
    the cache of series until the cyclic collector runs."""

    def __init__(self, inner, bindings: dict):
        self.inner = inner
        self.bindings = bindings
        self.cache = {}

    def __call__(self, n):
        hit = self.cache.get(id(n))
        if hit is None:
            hit = self.cache[id(n)] = (n, self.value(n))  # holding the node keeps its id unique
        return hit[1]

    def value(self, n):
        # a bound method: calling the instance would count a C-level call
        # against the recursion limit as well, a third frame per level
        ev, inner, bindings = self.__call__, self.inner, self.bindings
        a, k = inner[0], inner[0].kind
        if isinstance(n, Var):
            return inner[n.index]
        if isinstance(n, Num):
            return k.coerce(n.value)
        if isinstance(n, Param):
            if n.name not in bindings:
                raise DomainError(f"unbound parameter {n.name!r}")
            return k.coerce(_as_number(bindings[n.name]))
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, Add):
            return ev(n.lhs) + ev(n.rhs)
        if isinstance(n, Sub):
            return ev(n.lhs) - ev(n.rhs)
        if isinstance(n, Mul):
            return ev(n.lhs) * ev(n.rhs)
        if isinstance(n, Div):
            den = ev(n.rhs)
            if isinstance(den, TruncatedSeries):
                return ev(n.lhs) * den.reciprocal()
            if den == 0:
                raise DomainError("division by zero")
            return ev(n.lhs) * (1 / den)
        if isinstance(n, Pow):
            return _power(ev(n.base), n.exp, k.coerce(1))
        if isinstance(n, Func):
            if k is RATIONAL:
                raise DomainError(
                    f"rational mode requires a polynomial expression (found {n.name})"
                )
            arg = ev(n.arg)
            series = isinstance(arg, TruncatedSeries)
            at = float(arg.constant_term()) if series else arg
            # a number is one point: it takes evaluate's domain and the math value
            if not series and n.name in _DOMAIN and _DOMAIN[n.name][0](at):
                raise DomainError(_DOMAIN[n.name][1])
            try:
                if not series:
                    return getattr(math, n.name)(at)
                taylor = _TAYLOR[n.name](at, a.space.top)
            except (OverflowError, ValueError):
                raise DomainError(f"{n.name}({at!r}) leaves the double range") from None
            return apply_univariate(arg, taylor)
        raise TypeError(f"not an expression node: {n!r}")


def jet(node, bindings: dict | None, point, order: int, mode: str = "double") -> TruncatedSeries:
    """Taylor expansion of the expression at `point` through total degree `order`:
    the expression composed with the coordinate series ``p_i + x_i``.

    ``mode`` names the coefficient kind (``series.kind``).  Rational mode
    takes ``+ - * / ^``, with every divisor nonzero at the point, and no
    transcendental function; its bindings and point must be rational.
    """
    if order < 0:
        raise DomainError("jet order must be >= 0")
    k = kind(mode)
    shift = [TruncatedSeries.variable(VAR_NAMES, order, v, k) for v in VAR_NAMES]
    return compose(node, bindings, tuple(s + c for s, c in zip(shift, point)))


_ZERO, _ONE = Num(Fraction(0)), Num(Fraction(1))
_OUTER = {  # f'(u) for the node f(u)
    "sin": lambda n: Func("cos", n.arg),
    "cos": lambda n: Neg(Func("sin", n.arg)),
    "exp": lambda n: n,
    "log": lambda n: Div(_ONE, n.arg),
    "sqrt": lambda n: Div(_ONE, Mul(Num(Fraction(2)), n)),
}


def _times(d, cofactor):
    """d * cofactor, derivative factor first; a zero d drops the cofactor."""
    return _ZERO if d is _ZERO else cofactor if d is _ONE else Mul(d, cofactor)


def _plus(lhs, rhs, cls=Add):
    if rhs is _ZERO:
        return lhs
    return (rhs if cls is Add else Neg(rhs)) if lhs is _ZERO else cls(lhs, rhs)


def diff(node, i: int):
    """Symbolic partial derivative in x_(i+1).  It shares the subtrees of
    ``node``, so ``compose`` on f and its partials evaluates each once."""
    if isinstance(node, Var):
        return _ONE if node.index == i else _ZERO
    if isinstance(node, (Num, Param)):
        return _ZERO
    if isinstance(node, Neg):
        return _plus(_ZERO, diff(node.arg, i), Sub)
    if isinstance(node, (Add, Sub)):
        return _plus(diff(node.lhs, i), diff(node.rhs, i), type(node))
    if isinstance(node, Mul):
        return _plus(_times(diff(node.lhs, i), node.rhs), _times(diff(node.rhs, i), node.lhs))
    if isinstance(node, Div):  # (u/v)' = (u' - v' (u/v)) / v
        top = _plus(diff(node.lhs, i), _times(diff(node.rhs, i), node), Sub)
        return _ZERO if top is _ZERO else Div(top, node.rhs)
    if isinstance(node, Pow):
        if node.exp < 2:
            return diff(node.base, i) if node.exp else _ZERO
        return _times(diff(node.base, i),
                      Mul(Num(Fraction(node.exp)), Pow(node.base, node.exp - 1)))
    if isinstance(node, Func):
        return _times(diff(node.arg, i), _OUTER[node.name](node))
    raise TypeError(f"not an expression node: {node!r}")


def is_affine(node) -> bool:
    """Whether every second partial is the zero node of :func:`diff`: affine in
    x1, x2, x3, short of second partials that cancel without vanishing."""
    return all(diff(diff(node, i), j) is _ZERO for i in range(3) for j in range(i, 3))
