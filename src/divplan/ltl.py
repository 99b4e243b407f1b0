"""Finite-trace temporal logic: evaluation and three-valued prefix monitoring.

Formulas are built from atoms, boolean connectives, always (G) and
eventually (F), interpreted over non-empty finite traces of proposition
valuations. The monitor classifies a trace prefix by syntactic progression:
a definite verdict means every (respectively no) finite completion of the
prefix satisfies the formula; Undetermined is always a sound answer.

Text grammar: ``G``, ``F``, ``FG``, ``!``, ``&``, ``|``, parentheses, and
atom identifiers (``G``, ``F``, ``FG``, ``true``, ``false`` are reserved).
Progression, evaluation and even hashing recurse on a formula's depth, so
the parser refuses more than MAX_FORMULA_DEPTH operators on one path, or
prefix operators and parentheses around one position.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union


class LtlError(Exception):
    pass


class UnknownAtom(LtlError):
    """A formula atom is missing from a trace valuation."""


class LtlSyntaxError(LtlError):
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    arg: "LtlFormula"


@dataclass(frozen=True)
class And:
    left: "LtlFormula"
    right: "LtlFormula"


@dataclass(frozen=True)
class Or:
    left: "LtlFormula"
    right: "LtlFormula"


@dataclass(frozen=True)
class Always:
    arg: "LtlFormula"


@dataclass(frozen=True)
class Eventually:
    arg: "LtlFormula"


@dataclass(frozen=True)
class TrueFormula:
    pass


@dataclass(frozen=True)
class FalseFormula:
    pass


TRUE = TrueFormula()
FALSE = FalseFormula()

LtlFormula = Union[Atom, Not, And, Or, Always, Eventually, TrueFormula, FalseFormula]

Valuation = Mapping[str, bool]
PropTrace = Sequence[Valuation]  # non-empty; one valuation per trace state


def atoms(formula: LtlFormula) -> frozenset:
    if isinstance(formula, Atom):
        return frozenset({formula.name})
    if isinstance(formula, (Not, Always, Eventually)):
        return atoms(formula.arg)
    if isinstance(formula, (And, Or)):
        return atoms(formula.left) | atoms(formula.right)
    return frozenset()


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
    if len(trace) == 0:
        raise ValueError("trace must be non-empty")
    return bool(_mask(formula, trace, (1 << len(trace)) - 1) & 1)


def _mask(formula: LtlFormula, trace: PropTrace, full: int) -> int:
    if isinstance(formula, Atom):
        mask = 0
        for i, valuation in enumerate(trace):
            if _lookup(valuation, formula.name):
                mask |= 1 << i
        return mask
    if isinstance(formula, TrueFormula):
        return full
    if isinstance(formula, FalseFormula):
        return 0
    if isinstance(formula, Not):
        return full ^ _mask(formula.arg, trace, full)
    if isinstance(formula, And):
        return _mask(formula.left, trace, full) & _mask(formula.right, trace, full)
    if isinstance(formula, Or):
        return _mask(formula.left, trace, full) | _mask(formula.right, trace, full)
    if isinstance(formula, Always):
        # holds above the last position where the argument fails
        cut = (full ^ _mask(formula.arg, trace, full)).bit_length()
        return full >> cut << cut
    if isinstance(formula, Eventually):
        # holds up to the last position where the argument holds
        return (1 << _mask(formula.arg, trace, full).bit_length()) - 1
    raise TypeError(f"not a formula: {formula!r}")


# -- simplifying constructors (used by progression only, never the parser) ---


def mk_not(f: LtlFormula) -> LtlFormula:
    if f is TRUE or isinstance(f, TrueFormula):
        return FALSE
    if f is FALSE or isinstance(f, FalseFormula):
        return TRUE
    if isinstance(f, Not):
        return f.arg
    return Not(f)


def mk_and(left: LtlFormula, right: LtlFormula) -> LtlFormula:
    if isinstance(left, FalseFormula) or isinstance(right, FalseFormula):
        return FALSE
    if isinstance(left, TrueFormula):
        return right
    if isinstance(right, TrueFormula):
        return left
    if left == right:
        return left
    # x & Gx == Gx over non-empty traces
    if isinstance(right, Always) and right.arg == left:
        return right
    if isinstance(left, Always) and left.arg == right:
        return left
    return And(left, right)


def mk_or(left: LtlFormula, right: LtlFormula) -> LtlFormula:
    if isinstance(left, TrueFormula) or isinstance(right, TrueFormula):
        return TRUE
    if isinstance(left, FalseFormula):
        return right
    if isinstance(right, FalseFormula):
        return left
    if left == right:
        return left
    # x | Fx == Fx over non-empty traces
    if isinstance(right, Eventually) and right.arg == left:
        return right
    if isinstance(left, Eventually) and left.arg == right:
        return left
    return Or(left, right)


def progress(formula: LtlFormula, valuation: Valuation) -> LtlFormula:
    """One progression step: the obligation left for the rest of the trace.

    For any non-empty continuation w, eval(f, v.w) == eval(progress(f, v), w).
    Says nothing about the trace ending at v; see final_eval for that.
    """
    if isinstance(formula, Atom):
        return TRUE if _lookup(valuation, formula.name) else FALSE
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Not):
        return mk_not(progress(formula.arg, valuation))
    if isinstance(formula, And):
        return mk_and(
            progress(formula.left, valuation), progress(formula.right, valuation)
        )
    if isinstance(formula, Or):
        return mk_or(
            progress(formula.left, valuation), progress(formula.right, valuation)
        )
    if isinstance(formula, Always):
        return mk_and(progress(formula.arg, valuation), formula)
    if isinstance(formula, Eventually):
        return mk_or(progress(formula.arg, valuation), formula)
    raise TypeError(f"not a formula: {formula!r}")


def final_eval(formula: LtlFormula, valuation: Valuation) -> bool:
    """Truth of the formula on the one-state trace [valuation]."""
    if isinstance(formula, Atom):
        return _lookup(valuation, formula.name)
    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, FalseFormula):
        return False
    if isinstance(formula, Not):
        return not final_eval(formula.arg, valuation)
    if isinstance(formula, And):
        return final_eval(formula.left, valuation) and final_eval(
            formula.right, valuation
        )
    if isinstance(formula, Or):
        return final_eval(formula.left, valuation) or final_eval(
            formula.right, valuation
        )
    if isinstance(formula, (Always, Eventually)):
        return final_eval(formula.arg, valuation)
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
    if isinstance(residual, TrueFormula) and prefix_value:
        return Verdict.SATISFIED_ALL_EXTENSIONS
    if isinstance(residual, FalseFormula) and not prefix_value:
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
        stack.extend((g, depth + 1) for g in vars(f).values() if not isinstance(g, str))
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

