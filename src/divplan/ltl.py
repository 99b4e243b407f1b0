"""Finite-trace temporal logic: evaluation and three-valued prefix monitoring.

Formulas are built from atoms, boolean connectives, always (G) and
eventually (F), interpreted over non-empty finite traces of proposition
valuations. The monitor classifies a trace prefix by syntactic progression:
a definite verdict means every (respectively no) finite completion of the
prefix satisfies the formula; Undetermined is always a sound answer.

Text grammar: ``G``, ``F``, ``FG``, ``!``, ``&``, ``|``, parentheses, and
atom identifiers (``G``, ``F``, ``FG``, ``true``, ``false`` are reserved).

A formula node is a tuple whose item 0 is a tag for its kind, followed by
its fields, so hashing and equality run in C and the functions below
dispatch on the tag. Hashing and equality still recurse on a formula's
depth, as progression and evaluation do, so the parser refuses more than
MAX_FORMULA_DEPTH operators on one path, or prefix operators and
parentheses around one position.
"""

from __future__ import annotations

import enum
import re
from operator import itemgetter
from typing import Mapping, Sequence, Union


class LtlError(Exception):
    pass


class UnknownAtom(LtlError):
    """A formula atom is missing from a trace valuation."""


class LtlSyntaxError(LtlError):
    pass


# item 0 of every formula node, one per kind
_ATOM, _NOT, _AND, _OR, _ALWAYS, _EVENTUALLY, _TRUE, _FALSE = range(8)

_new = tuple.__new__  # a node from its finished tuple, without __new__'s call


class _Formula(tuple):
    """A formula node: the plain tuple (tag, *fields), so formulas hash and
    compare in C, and nodes of two kinds, whose tags differ, are never equal."""

    __slots__ = ()
    _fields: tuple = ()

    def __getnewargs__(self) -> tuple:
        return self[1:]  # copy and pickle call __new__ with the fields only

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"


class Atom(_Formula):
    __slots__ = ()
    _fields = ("name",)
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return _new(cls, (_ATOM, name))


class Not(_Formula):
    __slots__ = ()
    _fields = ("arg",)
    arg = property(itemgetter(1))

    def __new__(cls, arg: "LtlFormula"):
        return _new(cls, (_NOT, arg))


class And(_Formula):
    __slots__ = ()
    _fields = ("left", "right")
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: "LtlFormula", right: "LtlFormula"):
        return _new(cls, (_AND, left, right))


class Or(_Formula):
    __slots__ = ()
    _fields = ("left", "right")
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: "LtlFormula", right: "LtlFormula"):
        return _new(cls, (_OR, left, right))


class Always(_Formula):
    __slots__ = ()
    _fields = ("arg",)
    arg = property(itemgetter(1))

    def __new__(cls, arg: "LtlFormula"):
        return _new(cls, (_ALWAYS, arg))


class Eventually(_Formula):
    __slots__ = ()
    _fields = ("arg",)
    arg = property(itemgetter(1))

    def __new__(cls, arg: "LtlFormula"):
        return _new(cls, (_EVENTUALLY, arg))


class TrueFormula(_Formula):
    __slots__ = ()

    def __new__(cls):
        return _new(cls, (_TRUE,))


class FalseFormula(_Formula):
    __slots__ = ()

    def __new__(cls):
        return _new(cls, (_FALSE,))


TRUE = TrueFormula()
FALSE = FalseFormula()

LtlFormula = Union[Atom, Not, And, Or, Always, Eventually, TrueFormula, FalseFormula]

Valuation = Mapping[str, bool]
PropTrace = Sequence[Valuation]  # non-empty; one valuation per trace state


def _tag(formula: LtlFormula) -> int:
    """The formula's tag. The public functions below check their argument
    here, so the recursion into its fields can index a tag without a type
    check; a field that is not a formula ends in their own TypeError."""
    if isinstance(formula, _Formula):
        return formula[0]
    raise TypeError(f"not a formula: {formula!r}")


def atoms(formula: LtlFormula) -> frozenset:
    if _tag(formula) == _ATOM:
        return frozenset((formula[1],))
    return frozenset().union(*map(atoms, formula[1:]))


def _lookup(valuation: Valuation, name: str) -> bool:
    try:
        return bool(valuation[name])
    except KeyError:
        raise UnknownAtom(f"atom {name!r} not assigned by valuation") from None


def eval_finite(formula: LtlFormula, trace: PropTrace) -> bool:
    """Truth of the formula at position 0 of a non-empty finite trace.

    Computed bottom-up over bitmasks: each subformula is evaluated once, as
    an int whose bit i is its truth at position i, so G and F cost a
    constant number of integer operations instead of a sweep.
    """
    _tag(formula)
    if len(trace) == 0:
        raise ValueError("trace must be non-empty")
    return bool(_mask(formula, trace, (1 << len(trace)) - 1) & 1)


def _mask(formula: LtlFormula, trace: PropTrace, full: int) -> int:
    tag = formula[0]
    if tag == _ATOM:
        mask = 0
        for i, valuation in enumerate(trace):
            if _lookup(valuation, formula[1]):
                mask |= 1 << i
        return mask
    if tag == _TRUE:
        return full
    if tag == _FALSE:
        return 0
    if tag == _NOT:
        return full ^ _mask(formula[1], trace, full)
    if tag == _AND:
        return _mask(formula[1], trace, full) & _mask(formula[2], trace, full)
    if tag == _OR:
        return _mask(formula[1], trace, full) | _mask(formula[2], trace, full)
    if tag == _ALWAYS:
        # holds above the last position where the argument fails
        cut = (full ^ _mask(formula[1], trace, full)).bit_length()
        return full >> cut << cut
    if tag == _EVENTUALLY:
        # holds up to the last position where the argument holds
        return (1 << _mask(formula[1], trace, full).bit_length()) - 1
    raise TypeError(f"not a formula: {formula!r}")


# -- simplifying constructors (used by progression only, never the parser) ---
# Their callers pass formulas only, so they read tags unchecked.


def mk_not(f: LtlFormula) -> LtlFormula:
    tag = f[0]
    if tag == _TRUE:
        return FALSE
    if tag == _FALSE:
        return TRUE
    if tag == _NOT:
        return f[1]
    return _new(Not, (_NOT, f))


def mk_and(left: LtlFormula, right: LtlFormula) -> LtlFormula:
    ltag, rtag = left[0], right[0]
    if ltag == _FALSE or rtag == _FALSE:
        return FALSE
    if ltag == _TRUE:
        return right
    if rtag == _TRUE:
        return left
    if left == right:
        return left
    # x & Gx == Gx over non-empty traces
    if rtag == _ALWAYS and right[1] == left:
        return right
    if ltag == _ALWAYS and left[1] == right:
        return left
    return _new(And, (_AND, left, right))


def mk_or(left: LtlFormula, right: LtlFormula) -> LtlFormula:
    ltag, rtag = left[0], right[0]
    if ltag == _TRUE or rtag == _TRUE:
        return TRUE
    if ltag == _FALSE:
        return right
    if rtag == _FALSE:
        return left
    if left == right:
        return left
    # x | Fx == Fx over non-empty traces
    if rtag == _EVENTUALLY and right[1] == left:
        return right
    if ltag == _EVENTUALLY and left[1] == right:
        return left
    return _new(Or, (_OR, left, right))


def progress(formula: LtlFormula, valuation: Valuation) -> LtlFormula:
    """One progression step: the obligation left for the rest of the trace.

    For any non-empty continuation w, eval(f, v.w) == eval(progress(f, v), w).
    Says nothing about the trace ending at v; see final_eval for that.
    """
    _tag(formula)
    return _progress(formula, valuation)


def _progress(formula: LtlFormula, valuation: Valuation) -> LtlFormula:
    tag = formula[0]
    if tag == _ATOM:
        return TRUE if _lookup(valuation, formula[1]) else FALSE
    if tag == _AND:
        return mk_and(_progress(formula[1], valuation), _progress(formula[2], valuation))
    if tag == _ALWAYS:
        return mk_and(_progress(formula[1], valuation), formula)
    if tag == _EVENTUALLY:
        return mk_or(_progress(formula[1], valuation), formula)
    if tag == _NOT:
        return mk_not(_progress(formula[1], valuation))
    if tag == _OR:
        return mk_or(_progress(formula[1], valuation), _progress(formula[2], valuation))
    if tag == _TRUE or tag == _FALSE:
        return formula
    raise TypeError(f"not a formula: {formula!r}")


def final_eval(formula: LtlFormula, valuation: Valuation) -> bool:
    """Truth of the formula on the one-state trace [valuation]."""
    _tag(formula)
    return _final_eval(formula, valuation)


def _final_eval(formula: LtlFormula, valuation: Valuation) -> bool:
    tag = formula[0]
    if tag == _ATOM:
        return _lookup(valuation, formula[1])
    if tag == _AND:
        return _final_eval(formula[1], valuation) and _final_eval(formula[2], valuation)
    if tag == _OR:
        return _final_eval(formula[1], valuation) or _final_eval(formula[2], valuation)
    if tag == _NOT:
        return not _final_eval(formula[1], valuation)
    if tag == _ALWAYS or tag == _EVENTUALLY:
        return _final_eval(formula[1], valuation)
    if tag == _TRUE or tag == _FALSE:
        return tag == _TRUE
    raise TypeError(f"not a formula: {formula!r}")


class Verdict(enum.Enum):
    SATISFIED_ALL_EXTENSIONS = "satisfied-all-extensions"
    VIOLATED_ALL_EXTENSIONS = "violated-all-extensions"
    UNDETERMINED = "undetermined"


def monitor(formula: LtlFormula, prefix: PropTrace) -> Verdict:
    """Three-valued verdict over all finite completions of the prefix.

    A completion is the prefix itself or the prefix extended by any finite
    state sequence. Sound by the progression identity; not complete (a
    residual that is equivalent to true or false without simplifying to it
    yields Undetermined, which only costs search time).
    """
    if len(prefix) == 0:
        raise ValueError("prefix must be non-empty")
    residual: LtlFormula = formula
    for valuation in prefix:
        residual = progress(residual, valuation)
    prefix_value = eval_finite(formula, prefix)
    if residual[0] == _TRUE and prefix_value:
        return Verdict.SATISFIED_ALL_EXTENSIONS
    if residual[0] == _FALSE and not prefix_value:
        return Verdict.VIOLATED_ALL_EXTENSIONS
    return Verdict.UNDETERMINED


# -- text grammar -------------------------------------------------------------

MAX_FORMULA_DEPTH = 200  # formulas at this depth plan on --domain urban
_TOO_DEEP = f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][\w-]*)|([&|!()])|(\S))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        word, sym, bad = m.groups()
        if bad is not None:
            raise LtlSyntaxError(f"unexpected character {bad!r} at offset {m.start(3)}")
        if word is not None:
            tokens.append(word)
        elif sym is not None:
            tokens.append(sym)
        pos = m.end()
    return tokens


def _depth(formula: LtlFormula) -> int:
    """The most operators on a path from the root to a leaf."""
    deepest, stack = 0, [(formula, 0)]
    while stack:
        f, depth = stack.pop()
        deepest = max(deepest, depth)
        if f[0] != _ATOM:
            stack.extend((g, depth + 1) for g in f[1:])
    return deepest


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0  # prefix operators and parentheses around the position

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise LtlSyntaxError("unexpected end of formula")
        self.pos += 1
        return tok

    def parse(self) -> LtlFormula:
        f = self.disjunction()
        if self.peek() is not None:
            raise LtlSyntaxError(f"trailing input at token {self.peek()!r}")
        return f

    def disjunction(self) -> LtlFormula:
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> LtlFormula:
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def nested(self, rule) -> LtlFormula:
        """rule's formula inside one more prefix operator or parenthesis."""
        self.open += 1
        if self.open > MAX_FORMULA_DEPTH:
            raise LtlSyntaxError(_TOO_DEEP)
        f = rule()
        self.open -= 1
        return f

    def unary(self) -> LtlFormula:
        tok = self.take()
        if tok == "!":
            return Not(self.nested(self.unary))
        if tok == "G":
            return Always(self.nested(self.unary))
        if tok == "F":
            return Eventually(self.nested(self.unary))
        if tok == "FG":
            return Eventually(Always(self.nested(self.unary)))
        if tok == "(":
            f = self.nested(self.disjunction)
            if self.take() != ")":
                raise LtlSyntaxError("expected ')'")
            return f
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        if tok in {")", "&", "|"}:
            raise LtlSyntaxError(f"unexpected token {tok!r}")
        return Atom(tok)


def parse_formula(text: str) -> LtlFormula:
    formula = _Parser(_tokenize(text)).parse()
    if _depth(formula) > MAX_FORMULA_DEPTH:
        raise LtlSyntaxError(_TOO_DEEP)
    return formula

