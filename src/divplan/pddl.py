"""Typed STRIPS PDDL subset: parser and grounder.

Supported: ``:strips :typing :negative-preconditions :equality`` and
``exists`` in problem goals. Anything outside the subset raises
UnsupportedFeature rather than misparsing silently. Parse errors carry
line/column positions.

Each rule is checked in one place:

* the parser (`_read_define`, `_parse_*`) checks the document's shape:
  balanced parentheses, the ``(define (KIND NAME) ...)`` header, known
  sections and keywords, literal syntax, and the unsupported features;
* `_validate_domain` checks types, unique action and parameter names, and
  that no action adds and deletes one atom;
* `_check_atom` checks one atom of an action schema, the init or the goal:
  a known predicate (or ``=``), its arity, and that every argument is in
  scope (the schema's parameters; the problem's objects, plus the variables
  of the enclosing ``exists`` in a goal);
* `_validate_problem` checks object types, unique object names, the
  ``:domain`` name, and every init and goal atom. `parse_problem` runs it
  when given the domain, and `ground` always does, so grounding never meets
  an unchecked atom.

Grounding instantiates action schemas over type-respecting object tuples,
expands existential goals into a disjunction over groundings (DNF), decides
equality literals statically, and drops actions whose static preconditions
can never hold.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional, Union

from .core import Fluent, GoalFormula, GroundAction, GroundProblem

ROOT_TYPE = "object"
SUPPORTED_REQUIREMENTS = (":strips", ":typing", ":negative-preconditions", ":equality")
GROUND_ACTION_CAP = 200_000
# the parser and grounder recurse on list nesting, so _read_sexps stops here
MAX_NESTING = 100


class PddlError(Exception):
    """A PDDL input the parser or grounder rejects; positioned when the
    offending node is known."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class PddlSyntaxError(PddlError):
    pass


class UnsupportedFeature(PddlError):
    """Input uses PDDL outside the supported subset."""


class UndeclaredObjectType(PddlError):
    pass


class GroundingExplosion(PddlError):
    """Instantiation would exceed the ground-action cap."""


# -- s-expressions -------------------------------------------------------------


@dataclass(frozen=True)
class _SAtom:
    text: str
    line: int
    col: int


class _SList(list):
    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int):
        super().__init__()
        self.line = line
        self.col = col


_Sexp = Union[_SAtom, _SList]

_ATOM_RE = re.compile(r"[^\s();]+")


def _tokenize(text: str):
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, line, col
            col += 1
            i += 1
        else:
            m = _ATOM_RE.match(text, i)
            yield m.group(0), line, col
            col += len(m.group(0))
            i = m.end()


def _read_sexps(text: str) -> list:
    stack: list[_SList] = []
    top: list = []
    for tok, line, col in _tokenize(text):
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise PddlSyntaxError(f"lists nested deeper than {MAX_NESTING}", line, col)
            stack.append(_SList(line, col))
        elif tok == ")":
            if not stack:
                raise PddlSyntaxError("unbalanced ')'", line, col)
            done = stack.pop()
            (stack[-1] if stack else top).append(done)
        else:
            atom = _SAtom(tok.lower(), line, col)
            if stack:
                stack[-1].append(atom)
            else:
                top.append(atom)
    if stack:
        raise PddlSyntaxError("unbalanced '('", stack[-1].line, stack[-1].col)
    return top


def _err(node: _Sexp, message: str) -> PddlSyntaxError:
    return PddlSyntaxError(message, node.line, node.col)


def _unsupported(node: _Sexp, what: str) -> UnsupportedFeature:
    return UnsupportedFeature(what, node.line, node.col)


def _expect_atom(node: _Sexp, what: str) -> _SAtom:
    if not isinstance(node, _SAtom):
        raise _err(node, f"expected {what}, got a list")
    return node


def _expect_list(node: _Sexp, what: str) -> _SList:
    if not isinstance(node, _SList):
        raise _err(node, f"expected {what}, got {node.text!r}")
    return node


# -- AST -----------------------------------------------------------------------


@dataclass(frozen=True)
class TypedName:
    """A name with its declared type (parameter, object, or type declaration)."""

    name: str
    type: str = ROOT_TYPE


@dataclass(frozen=True)
class PredicateDecl:
    name: str
    params: tuple[TypedName, ...] = ()


@dataclass(frozen=True)
class LiteralAst:
    """A possibly negated predicate application; ``=`` is the equality atom."""

    pred: str
    args: tuple[str, ...]
    positive: bool = True


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[TypedName, ...]
    pre: tuple[LiteralAst, ...]
    add: tuple[LiteralAst, ...]
    delete: tuple[LiteralAst, ...]


@dataclass(frozen=True)
class DomainAst:
    name: str
    requirements: tuple[str, ...]
    types: tuple[TypedName, ...]
    predicates: tuple[PredicateDecl, ...]
    actions: tuple[ActionSchema, ...]

    def type_parents(self) -> dict:
        parents = {ROOT_TYPE: None}
        for t in self.types:
            parents[t.name] = t.type
        return parents

    def predicate(self, name: str) -> Optional[PredicateDecl]:
        for p in self.predicates:
            if p.name == name:
                return p
        return None


@dataclass(frozen=True)
class GoalAtom:
    literal: LiteralAst


@dataclass(frozen=True)
class GoalAnd:
    children: tuple


@dataclass(frozen=True)
class GoalOr:
    children: tuple


@dataclass(frozen=True)
class GoalExists:
    params: tuple[TypedName, ...]
    body: "GoalAst"


GoalAst = Union[GoalAtom, GoalAnd, GoalOr, GoalExists]


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple[TypedName, ...]
    init: tuple[LiteralAst, ...]
    goal: GoalAst


# -- parsing -------------------------------------------------------------------


def _read_define(text: str, kind: str) -> tuple[str, list]:
    """NAME and the (head, section) pairs of ``(define (KIND NAME) ...)``."""
    forms = _read_sexps(text)
    if not forms:
        raise PddlSyntaxError("no PDDL content found")
    root = _expect_list(forms[0], "(define ...)")
    if len(root) < 2 or _expect_atom(root[0], "define").text != "define":
        raise _err(root, f"expected (define ({kind} ...) ...)")
    header = _expect_list(root[1], f"({kind} NAME)")
    if len(header) != 2 or _expect_atom(header[0], kind).text != kind:
        raise _err(header, f"expected ({kind} NAME)")
    name = _expect_atom(header[1], f"{kind} name").text
    sections = []
    for section in root[2:]:
        lst = _expect_list(section, f"a {kind} section")
        if not lst or not isinstance(lst[0], _SAtom):
            raise _err(lst, f"malformed {kind} section")
        sections.append((lst[0].text, lst))
    return name, sections


def _parse_typed_names(nodes: list, what: str) -> tuple[TypedName, ...]:
    """``a b - t c d - u e`` style typed lists; untyped names get the root type."""
    out: list[TypedName] = []
    pending: list[str] = []
    it = iter(nodes)
    for node in it:
        atom = _expect_atom(node, what)
        if atom.text == "-":
            try:
                type_node = next(it)
            except StopIteration:
                raise _err(atom, "dangling '-' in typed list") from None
            type_name = _expect_atom(type_node, "type name").text
            if not pending:
                raise _err(atom, "'-' with no names before it")
            out.extend(TypedName(n, type_name) for n in pending)
            pending = []
        else:
            pending.append(atom.text)
    out.extend(TypedName(n) for n in pending)
    return tuple(out)


def _parse_literal(node: _Sexp, allow_equality: bool) -> LiteralAst:
    lst = _expect_list(node, "a literal")
    if not lst or not isinstance(lst[0], _SAtom):
        raise _err(lst, "empty or malformed literal")
    head = lst[0].text
    if head == "not":
        if len(lst) != 2:
            raise _err(lst, "'not' takes exactly one literal")
        inner = _parse_literal(lst[1], allow_equality)
        if not inner.positive:
            raise _err(lst, "double negation is not supported")
        return LiteralAst(inner.pred, inner.args, positive=False)
    if head in ("and", "or", "exists", "forall", "when", "imply"):
        raise _err(lst, f"expected a literal, got '{head}'")
    if head == "=" and not allow_equality:
        raise _err(lst, "equality is not allowed here")
    args = tuple(_expect_atom(a, "a term").text for a in lst[1:])
    return LiteralAst(head, args)


def _parse_literal_conjunction(node: _Sexp, allow_equality: bool) -> tuple[LiteralAst, ...]:
    lst = _expect_list(node, "a condition")
    if lst and isinstance(lst[0], _SAtom) and lst[0].text == "and":
        return tuple(_parse_literal(child, allow_equality) for child in lst[1:])
    if not lst:
        return ()
    return (_parse_literal(lst, allow_equality),)


_UNSUPPORTED_EFFECT_HEADS = {
    "when": "conditional effects",
    "forall": "quantified effects",
    "increase": "numeric fluents",
    "decrease": "numeric fluents",
    "assign": "numeric fluents",
    "oneof": "nondeterministic effects",
}


def _parse_effect(node: _Sexp) -> tuple[tuple[LiteralAst, ...], tuple[LiteralAst, ...]]:
    literals = _parse_literal_conjunction(node, allow_equality=False)
    add = tuple(l for l in literals if l.positive)
    delete = tuple(LiteralAst(l.pred, l.args) for l in literals if not l.positive)
    return add, delete


def _check_effect_tree(node: _Sexp) -> None:
    if isinstance(node, _SList) and node and isinstance(node[0], _SAtom):
        head = node[0].text
        if head in _UNSUPPORTED_EFFECT_HEADS:
            raise _unsupported(node, _UNSUPPORTED_EFFECT_HEADS[head])
        for child in node[1:]:
            _check_effect_tree(child)


def parse_domain(text: str) -> DomainAst:
    name, sections = _read_define(text, "domain")
    requirements: tuple[str, ...] = ()
    types: tuple[TypedName, ...] = ()
    predicates: tuple[PredicateDecl, ...] = ()
    actions: list[ActionSchema] = []

    for head, lst in sections:
        if head == ":requirements":
            requirements = tuple(_expect_atom(r, "requirement").text for r in lst[1:])
            for req in requirements:
                if req not in SUPPORTED_REQUIREMENTS:
                    raise _unsupported(lst, f"requirement {req}")
        elif head == ":types":
            types = _parse_typed_names(lst[1:], "type name")
        elif head == ":predicates":
            decls = []
            for p in lst[1:]:
                plist = _expect_list(p, "a predicate declaration")
                if not plist or not isinstance(plist[0], _SAtom):
                    raise _err(plist, "malformed predicate declaration")
                decls.append(
                    PredicateDecl(
                        plist[0].text, _parse_typed_names(plist[1:], "parameter")
                    )
                )
            predicates = tuple(decls)
        elif head == ":action":
            actions.append(_parse_action(lst))
        elif head in (":constants", ":functions", ":derived", ":durative-action"):
            raise _unsupported(lst, f"section {head}")
        else:
            raise _err(lst, f"unknown domain section {head!r}")

    domain = DomainAst(name, requirements, types, predicates, tuple(actions))
    _validate_domain(domain)
    return domain


def _parse_action(lst: _SList) -> ActionSchema:
    if len(lst) < 2:
        raise _err(lst, "action needs a name")
    name = _expect_atom(lst[1], "action name").text
    params: tuple[TypedName, ...] = ()
    pre: tuple[LiteralAst, ...] = ()
    add: tuple[LiteralAst, ...] = ()
    delete: tuple[LiteralAst, ...] = ()
    i = 2
    while i < len(lst):
        key = _expect_atom(lst[i], "an action keyword").text
        if i + 1 >= len(lst):
            raise _err(lst[i], f"{key} needs a value")
        value = lst[i + 1]
        if key == ":parameters":
            params = _parse_typed_names(_expect_list(value, "parameter list"), "parameter")
        elif key == ":precondition":
            _check_effect_tree(value)
            pre = _parse_literal_conjunction(value, allow_equality=True)
        elif key == ":effect":
            _check_effect_tree(value)
            add, delete = _parse_effect(value)
        else:
            raise _err(lst[i], f"unknown action keyword {key!r}")
        i += 2
    return ActionSchema(name, params, pre, add, delete)


def _validate_domain(domain: DomainAst) -> None:
    parents = domain.type_parents()
    for t in domain.types:
        if t.type != ROOT_TYPE and t.type not in parents:
            raise PddlSyntaxError(f"type {t.name!r} has undeclared parent {t.type!r}")
        ancestor = t.type
        for _ in parents:  # a cycle through t is at most len(parents) long
            if ancestor == t.name:
                raise PddlSyntaxError(f"type {t.name!r} is its own ancestor")
            ancestor = parents.get(ancestor)
    for decl in domain.predicates:
        for p in decl.params:
            if p.type not in parents:
                raise PddlSyntaxError(
                    f"predicate {decl.name!r} uses undeclared type {p.type!r}"
                )
    names = [a.name for a in domain.actions]
    if len(set(names)) != len(names):
        raise PddlSyntaxError("duplicate action names")
    for schema in domain.actions:
        scope = {p.name for p in schema.params}
        if len(scope) != len(schema.params):
            raise PddlSyntaxError(f"action {schema.name!r} repeats a parameter")
        for p in schema.params:
            if p.type not in parents:
                raise PddlSyntaxError(
                    f"action {schema.name!r} uses undeclared type {p.type!r}"
                )
        for lit in schema.pre + schema.add + schema.delete:
            _check_atom(domain, lit, scope, f"action {schema.name!r}")
        adds = {(l.pred, l.args) for l in schema.add}
        dels = {(l.pred, l.args) for l in schema.delete}
        if adds & dels:
            raise PddlSyntaxError(f"action {schema.name!r} adds and deletes one atom")


def _check_atom(domain: DomainAst, lit: LiteralAst, scope, where: str) -> None:
    """A declared predicate (or ``=``) at its arity, over names in scope."""
    if lit.pred == "=":
        arity = 2
    else:
        decl = domain.predicate(lit.pred)
        if decl is None:
            raise PddlSyntaxError(f"{where}: unknown predicate {lit.pred!r}")
        arity = len(decl.params)
    if len(lit.args) != arity:
        raise PddlSyntaxError(
            f"{where}: {lit.pred!r} expects {arity} arguments, got {len(lit.args)}"
        )
    for arg in lit.args:
        if arg not in scope:
            raise PddlSyntaxError(f"{where}: unbound name {arg!r}")


def parse_problem(text: str, domain: Optional[DomainAst] = None) -> ProblemAst:
    name, sections = _read_define(text, "problem")
    domain_name = ""
    objects: tuple[TypedName, ...] = ()
    init: tuple[LiteralAst, ...] = ()
    goal: Optional[GoalAst] = None

    for head, lst in sections:
        if head == ":domain":
            if len(lst) != 2:
                raise _err(lst, "expected (:domain NAME)")
            domain_name = _expect_atom(lst[1], "domain name").text
        elif head == ":objects":
            objects = _parse_typed_names(lst[1:], "object")
        elif head == ":init":
            init = tuple(_parse_literal(child, allow_equality=False) for child in lst[1:])
            for lit in init:
                if not lit.positive:
                    raise _err(lst, "negative init literals are not supported")
        elif head == ":goal":
            if len(lst) != 2:
                raise _err(lst, ":goal takes one formula")
            goal = _parse_goal(lst[1])
        elif head in (":metric", ":constraints"):
            raise _unsupported(lst, f"section {head}")
        else:
            raise _err(lst, f"unknown problem section {head!r}")

    if goal is None:
        raise PddlSyntaxError("problem has no :goal")
    problem = ProblemAst(name, domain_name, objects, init, goal)
    if domain is not None:
        _validate_problem(domain, problem)
    return problem


def _parse_goal(node: _Sexp) -> GoalAst:
    lst = _expect_list(node, "a goal formula")
    if not lst or not isinstance(lst[0], _SAtom):
        raise _err(lst, "malformed goal formula")
    head = lst[0].text
    if head == "and":
        return GoalAnd(tuple(_parse_goal(c) for c in lst[1:]))
    if head == "or":
        return GoalOr(tuple(_parse_goal(c) for c in lst[1:]))
    if head == "exists":
        if len(lst) != 3:
            raise _err(lst, "exists takes a variable list and a body")
        params = _parse_typed_names(_expect_list(lst[1], "variable list"), "variable")
        for p in params:
            if not p.name.startswith("?"):
                raise _err(lst, f"exists binds variables, got {p.name!r}")
        return GoalExists(params, _parse_goal(lst[2]))
    if head == "forall":
        raise _unsupported(lst, "universal quantification in goals")
    return GoalAtom(_parse_literal(node, allow_equality=True))


def _validate_problem(domain: DomainAst, problem: ProblemAst) -> None:
    if problem.domain_name and problem.domain_name != domain.name:
        raise PddlSyntaxError(
            f"problem is for domain {problem.domain_name!r}, not {domain.name!r}"
        )
    parents = domain.type_parents()
    for obj in problem.objects:
        if obj.type not in parents:
            raise UndeclaredObjectType(
                f"object {obj.name!r} has undeclared type {obj.type!r}"
            )
    objects = {o.name for o in problem.objects}
    if len(objects) != len(problem.objects):
        raise PddlSyntaxError("duplicate object names")
    for lit in problem.init:
        _check_atom(domain, lit, objects, "init")
    _validate_goal(domain, problem.goal, objects)


def _validate_goal(domain: DomainAst, goal: GoalAst, scope: set) -> None:
    if isinstance(goal, GoalAtom):
        _check_atom(domain, goal.literal, scope, "goal")
    elif isinstance(goal, (GoalAnd, GoalOr)):
        for child in goal.children:
            _validate_goal(domain, child, scope)
    elif isinstance(goal, GoalExists):
        parents = domain.type_parents()
        for p in goal.params:
            if p.type not in parents:
                raise UndeclaredObjectType(
                    f"exists variable {p.name!r} has undeclared type {p.type!r}"
                )
        _validate_goal(domain, goal.body, scope | {p.name for p in goal.params})


# -- grounding -----------------------------------------------------------------


def _objects_by_type(domain: DomainAst, problem: ProblemAst) -> dict:
    """Type name -> object names of that type or a subtype, declaration order."""
    parents = domain.type_parents()
    out: dict = {t: [] for t in parents}
    for obj in problem.objects:
        t = obj.type
        while t is not None:
            out.setdefault(t, []).append(obj.name)
            t = parents.get(t)
    return out


def _substitute(lit: LiteralAst, binding: dict) -> LiteralAst:
    return LiteralAst(
        lit.pred, tuple(binding.get(a, a) for a in lit.args), lit.positive
    )


def _ground_fluent(lit: LiteralAst) -> Fluent:
    return Fluent(lit.pred, lit.args)


def ground(domain: DomainAst, problem: ProblemAst) -> GroundProblem:
    """Instantiate the problem into the grounded closed-world model.

    Equality preconditions are decided here and removed. Static fluents
    (never added or deleted by any schema) prune instantiations whose
    preconditions cannot hold in any reachable state. Raises
    GroundingExplosion when the instantiation count would exceed
    GROUND_ACTION_CAP.
    """
    _validate_problem(domain, problem)
    by_type = _objects_by_type(domain, problem)

    dynamic = {
        l.pred for schema in domain.actions for l in (schema.add + schema.delete)
    }
    init = frozenset(_ground_fluent(l) for l in problem.init)

    total = 0
    for schema in domain.actions:
        count = 1
        for p in schema.params:
            count *= len(by_type.get(p.type, []))
        total += count
        if total > GROUND_ACTION_CAP:
            raise GroundingExplosion(
                f"the problem grounds to more than {GROUND_ACTION_CAP} actions"
            )

    actions: list[GroundAction] = []
    for schema in domain.actions:
        pools = [by_type.get(p.type, []) for p in schema.params]
        for combo in itertools.product(*pools):
            binding = {p.name: obj for p, obj in zip(schema.params, combo)}
            ground_action = _instantiate(schema, binding, dynamic, init)
            if ground_action is not None:
                actions.append(ground_action)

    goal = _ground_goal(problem.goal, {}, by_type, dynamic, init)

    universe = init | goal.fluents()
    for a in actions:
        universe |= a.fluents()
    return GroundProblem(
        fluents=frozenset(universe),
        actions=tuple(actions),
        init=init,
        goal=goal,
    )


def _instantiate(schema, binding, dynamic, init) -> Optional[GroundAction]:
    pre_pos: set = set()
    pre_neg: set = set()
    for lit in schema.pre:
        glit = _substitute(lit, binding)
        if glit.pred == "=":
            if (glit.args[0] == glit.args[1]) != glit.positive:
                return None
            continue
        fluent = _ground_fluent(glit)
        if glit.pred not in dynamic:
            # static: truth is fixed by init for the whole run
            if (fluent in init) != glit.positive:
                return None
            continue
        (pre_pos if glit.positive else pre_neg).add(fluent)

    add = {_ground_fluent(_substitute(l, binding)) for l in schema.add}
    delete = {_ground_fluent(_substitute(l, binding)) for l in schema.delete}
    # standard delete-then-add semantics: add wins on overlap
    delete -= add

    if schema.params:
        label = f"{schema.name}({','.join(binding[p.name] for p in schema.params)})"
    else:
        label = schema.name
    return GroundAction(
        name=label,
        pre_pos=frozenset(pre_pos),
        pre_neg=frozenset(pre_neg),
        add=frozenset(add),
        delete=frozenset(delete),
    )


_TRUE = "true"


def _ground_goal(goal, binding, by_type, dynamic, init) -> GoalFormula:
    disjuncts = _goal_dnf(goal, binding, by_type, dynamic, init)
    if disjuncts is _TRUE:
        return GoalFormula.trivial()
    if not disjuncts:
        raise PddlError("goal is unsatisfiable after grounding")
    canonical = sorted(
        {tuple(sorted(d)) for d in disjuncts},
        key=lambda d: (len(d), d),
    )
    return GoalFormula(tuple(canonical))


def _goal_dnf(goal, binding, by_type, dynamic, init):
    """DNF as a list of frozensets of (Fluent, polarity), or the _TRUE marker."""
    if isinstance(goal, GoalAtom):
        lit = _substitute(goal.literal, binding)
        if lit.pred == "=":
            holds = (lit.args[0] == lit.args[1]) == lit.positive
            return _TRUE if holds else []
        fluent = _ground_fluent(lit)
        if lit.pred not in dynamic:
            holds = (fluent in init) == lit.positive
            return _TRUE if holds else []
        return [frozenset({(fluent, lit.positive)})]
    if isinstance(goal, GoalAnd):
        result = _TRUE
        for child in goal.children:
            result = _dnf_and(result, _goal_dnf(child, binding, by_type, dynamic, init))
        return result
    if isinstance(goal, GoalOr):
        out: list = []
        for child in goal.children:
            child_dnf = _goal_dnf(child, binding, by_type, dynamic, init)
            if child_dnf is _TRUE:
                return _TRUE
            out.extend(child_dnf)
        return out
    if isinstance(goal, GoalExists):
        pools = [by_type.get(p.type, []) for p in goal.params]
        out = []
        for combo in itertools.product(*pools):
            extended = dict(binding)
            extended.update({p.name: obj for p, obj in zip(goal.params, combo)})
            child_dnf = _goal_dnf(goal.body, extended, by_type, dynamic, init)
            if child_dnf is _TRUE:
                return _TRUE
            out.extend(child_dnf)
        return out
    raise TypeError(goal)


def _dnf_and(left, right):
    if left is _TRUE:
        return right
    if right is _TRUE:
        return left
    out = []
    for dl in left:
        for dr in right:
            merged = dl | dr
            fluents = {f for f, _ in merged}
            if len(fluents) == len(merged):  # no p & !p contradiction
                out.append(merged)
    return out


def _read_text(path: str) -> str:
    """A PDDL file's text; bytes that do not decode are a PddlError naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise PddlError(f"{path}: not a text file: {exc}") from exc


def load_domain(path: str) -> DomainAst:
    return parse_domain(_read_text(path))


def load_problem_file(path: str, domain: Optional[DomainAst] = None) -> ProblemAst:
    return parse_problem(_read_text(path), domain)
