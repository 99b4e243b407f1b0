import os
import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divplan import pddl
from divplan.core import Fluent
from divplan.pddl import (
    GoalAnd,
    GoalAtom,
    GoalExists,
    GroundingExplosion,
    LiteralAst,
    PddlError,
    PddlSyntaxError,
    TypedName,
    UndeclaredObjectType,
    UnsupportedFeature,
    ground,
    load_domain,
    load_problem_file,
    parse_domain,
    parse_problem,
)
from oracles import enumerate_plans, reference_ground, reference_read_sexps

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "divplan", "domains", "data")


def data_file(name):
    return os.path.join(DATA, name)


TINY_DOMAIN = """
(define (domain tiny)
  (:requirements :strips :typing :negative-preconditions :equality)
  (:types block - object)
  (:predicates (clear ?b - block) (shiny ?b - block))
  (:action polish
    :parameters (?b - block)
    :precondition (and (clear ?b) (not (shiny ?b)))
    :effect (shiny ?b))
  (:action smudge
    :parameters (?b - block)
    :precondition (shiny ?b)
    :effect (not (shiny ?b)))
)
"""

TINY_PROBLEM = """
(define (problem tiny-1)
  (:domain tiny)
  (:objects a b - block)
  (:init (clear a) (clear b))
  (:goal (and (shiny a) (shiny b)))
)
"""


# -- parsing -------------------------------------------------------------------

def test_parse_domain_structure():
    d = parse_domain(TINY_DOMAIN)
    assert d.name == "tiny"
    assert d.types == (TypedName("block", "object"),)
    assert [p.name for p in d.predicates] == ["clear", "shiny"]
    assert [a.name for a in d.actions] == ["polish", "smudge"]
    polish = d.actions[0]
    assert polish.params == (TypedName("?b", "block"),)
    assert polish.pre == (
        LiteralAst("clear", ("?b",)),
        LiteralAst("shiny", ("?b",), positive=False),
    )
    assert polish.add == (LiteralAst("shiny", ("?b",)),)
    assert polish.delete == ()


def test_parse_problem_structure():
    p = parse_problem(TINY_PROBLEM)
    assert p.name == "tiny-1"
    assert p.domain_name == "tiny"
    assert p.objects == (TypedName("a", "block"), TypedName("b", "block"))
    assert p.init == (LiteralAst("clear", ("a",)), LiteralAst("clear", ("b",)))
    assert p.goal == GoalAnd(
        (GoalAtom(LiteralAst("shiny", ("a",))), GoalAtom(LiteralAst("shiny", ("b",))))
    )


def test_parse_is_case_insensitive():
    d = parse_domain(TINY_DOMAIN.replace("polish", "POLISH").replace("(clear", "(Clear"))
    assert [a.name for a in d.actions] == ["polish", "smudge"]


def test_empty_input_is_a_syntax_error():
    with pytest.raises(PddlSyntaxError):
        parse_domain("")
    with pytest.raises(PddlSyntaxError):
        parse_problem("   ; just a comment\n")


def test_unbalanced_parens_positioned():
    try:
        parse_domain("(define (domain x)\n  (:types a\n")
        assert False, "expected a syntax error"
    except PddlSyntaxError as e:
        assert e.line == 2 and e.col == 3  # the innermost unclosed paren


# whitespace other than space, tab, CR and LF: form feed, vertical tab and a
# non-breaking space
RARE_SPACES = {"form-feed": "\f", "vertical-tab": "\v", "nbsp": "\u00a0"}


@pytest.mark.parametrize("space", RARE_SPACES.values(), ids=RARE_SPACES.keys())
def test_any_whitespace_separates_tokens_like_a_space(space):
    d = parse_domain(TINY_DOMAIN.replace(" ", space))
    assert d == parse_domain(TINY_DOMAIN)
    assert parse_problem(TINY_PROBLEM.replace(" ", space), d) == parse_problem(TINY_PROBLEM, d)
    assert parse_domain(f"{space}(define{space}(domain x));{space}\n") == parse_domain(
        "(define (domain x))"
    )


@pytest.mark.parametrize("space", RARE_SPACES.values(), ids=RARE_SPACES.keys())
def test_an_error_after_rare_whitespace_keeps_its_line_and_column(space):
    # each whitespace character is one column, as a tab is; only \n starts a line
    with pytest.raises(PddlSyntaxError, match="unbalanced '\\)'") as info:
        parse_domain(f"(define (domain x)\n{space}\t(:predicates{space}(p)))\r\n {space})")
    assert (info.value.line, info.value.col) == (3, 3)
    with pytest.raises(PddlSyntaxError, match=r"line 2, col 21: unbalanced '\)'"):
        parse_domain(f"(define (domain x)\n{space}\t(:predicates (p))))")


def sexp_shape(forms) -> list:
    """Each node as (kind, line, col, text or children), so trees from the
    reader and its reference compare by content and position alone."""
    return [
        ("list", f.line, f.col, sexp_shape(f)) if isinstance(f, list)
        else ("atom", f.line, f.col, f.text)
        for f in forms
    ]


def assert_reads_as_the_reference(text):
    """_read_sexps and reference_read_sexps give the same tree, or the same
    PddlSyntaxError message and position."""
    try:
        expected = reference_read_sexps(text)
    except PddlSyntaxError as exc:
        with pytest.raises(PddlSyntaxError) as info:
            pddl._read_sexps(text)
        got = (str(info.value), info.value.line, info.value.col)
        assert got == (str(exc), exc.line, exc.col)
        return
    assert sexp_shape(pddl._read_sexps(text)) == sexp_shape(expected)


# atoms (one lowercasing to a longer string), parentheses, comments and
# every kind of whitespace the reader meets, and runs of '(' deep enough,
# two or three together, to pass MAX_NESTING
_SEXP_PIECES = (
    "(", ")", "define", "Domain", "?X", "-", ":action", "a\u0130b", "x;y",
    "; a (comment)", ";", " ", "\t", "\r", "\f", "\v", "\u00a0", "\n", "\r\n",
    "(" * 40, ")" * 40,
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_SEXP_PIECES), max_size=40).map("".join))
def test_the_reader_matches_the_whole_text_tokenizer(text):
    assert_reads_as_the_reference(text)


def _nested(depth):
    """Lists depth deep, all but the outermost opened after tabs on line 2."""
    return "(a\n" + "\t(" * (depth - 1) + "b" + ")" * depth


READER_CASES = {
    **{name: open(data_file(name)).read() for name in (
        "aladdin-domain.pddl", "aladdin-problem.pddl",
        "story-tiny-domain.pddl", "story-tiny-problem.pddl",
    )},
    **{f"nested-{d}": _nested(d) for d in range(pddl.MAX_NESTING - 1, pddl.MAX_NESTING + 2)},
}


@pytest.mark.parametrize("case", READER_CASES)
def test_bundled_and_deep_texts_read_as_the_reference(case):
    assert_reads_as_the_reference(READER_CASES[case])


def test_nesting_deeper_than_the_cap_is_a_positioned_syntax_error():
    flat = "(and (shiny a) (shiny b))"  # its atoms sit 4 lists deep

    def nested(wraps):
        return TINY_PROBLEM.replace(flat, "(and " * wraps + flat + ")" * wraps)

    domain = parse_domain(TINY_DOMAIN)
    at_cap = parse_problem(nested(pddl.MAX_NESTING - 4))
    assert ground(domain, at_cap).goal == ground(domain, parse_problem(TINY_PROBLEM)).goal
    with pytest.raises(PddlSyntaxError, match="nested deeper than") as info:
        parse_problem(nested(pddl.MAX_NESTING - 3))
    assert info.value.line == 6 and info.value.col is not None


def test_error_position_points_at_reference_site():
    bad = TINY_DOMAIN.replace("(shiny ?b))", "(glossy ?b))", 1)
    with pytest.raises(PddlSyntaxError, match="glossy"):
        parse_domain(bad)


def test_unknown_requirement_is_unsupported():
    text = TINY_DOMAIN.replace(":equality", ":conditional-effects")
    with pytest.raises(UnsupportedFeature, match="conditional-effects"):
        parse_domain(text)


def test_conditional_effect_is_unsupported():
    text = TINY_DOMAIN.replace(
        ":effect (shiny ?b)", ":effect (when (clear ?b) (shiny ?b))"
    )
    with pytest.raises(UnsupportedFeature, match="conditional"):
        parse_domain(text)


# each construct outside the subset: a form of it, and the message it is refused with
UNSUPPORTED_FORMS = {
    "when": ("(when (clear ?b) (shiny ?b))", "conditional effects"),
    "forall": ("(forall (?c - block) (shiny ?c))", "universal quantification"),
    "increase": ("(increase (total-cost) 1)", "numeric fluents"),
    "decrease": ("(decrease (total-cost) 1)", "numeric fluents"),
    "assign": ("(assign (total-cost) 1)", "numeric fluents"),
    "oneof": ("(oneof (shiny ?b) (clear ?b))", "nondeterministic effects"),
    "or": ("(or (shiny ?b) (clear ?b))", "disjunctive preconditions"),
    "exists": ("(exists (?c - block) (shiny ?c))", "existential preconditions"),
    "imply": ("(imply (clear ?b) (shiny ?b))", "implication"),
    "and": ("(and (clear ?b) (shiny ?b))", "nested conjunctions"),
}
# where a construct can stand: (domain, problem) with FORM in its place
UNSUPPORTED_PLACES = {
    "precondition": (
        TINY_DOMAIN.replace(":precondition (shiny ?b)", ":precondition FORM"), None
    ),
    "effect": (TINY_DOMAIN.replace(":effect (shiny ?b)", ":effect FORM"), None),
    "under-and": (
        TINY_DOMAIN.replace(
            ":effect (not (shiny ?b))", ":effect (and (not (shiny ?b)) FORM)"
        ),
        None,
    ),
    "under-not": (
        TINY_DOMAIN.replace(":precondition (shiny ?b)", ":precondition (not FORM)"),
        None,
    ),
    "init": (TINY_DOMAIN, TINY_PROBLEM.replace("(clear a) (clear b)", "(clear a) FORM")),
    "goal": (TINY_DOMAIN, TINY_PROBLEM.replace("(and (shiny a) (shiny b))", "FORM")),
}


def test_every_unsupported_head_has_a_case():
    assert set(UNSUPPORTED_FORMS) == set(pddl._UNSUPPORTED_HEADS)


# where a head is part of the subset: a goal's DNF, and a condition's top level
SUPPORTED_AT = {
    ("or", "goal"), ("exists", "goal"),
    ("and", "goal"), ("and", "precondition"), ("and", "effect"),
}


@pytest.mark.parametrize(
    "head, place",
    [
        pytest.param(head, place, id=f"{head}-{place}")
        for place in UNSUPPORTED_PLACES
        for head in UNSUPPORTED_FORMS
        if (head, place) not in SUPPORTED_AT
    ],
)
def test_an_unsupported_construct_is_refused_at_its_list(head, place):
    # refused at the construct's own list, whichever parser reached it
    form, message = UNSUPPORTED_FORMS[head]
    domain_text, problem_text = UNSUPPORTED_PLACES[place]
    if problem_text is None:
        text, parse = domain_text.replace("FORM", form), parse_domain
    else:
        text = problem_text.replace("FORM", form)
        parse = partial(parse_problem, domain=parse_domain(domain_text))
    at = text.index(form)
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    with pytest.raises(UnsupportedFeature) as info:
        parse(text)
    assert str(info.value) == f"line {line}, col {col}: {message}"
    assert (info.value.line, info.value.col) == (line, col)


@pytest.mark.parametrize(
    "old, new, error, message",
    [
        (
            ":precondition (shiny ?b)",
            ":precondition (or (when (clear ?b) (shiny ?b)))",
            UnsupportedFeature,
            "disjunctive preconditions",
        ),
        (
            ":effect (shiny ?b)",
            ":effect (shiny (when (clear ?b) (shiny ?b)))",
            PddlSyntaxError,
            "expected a term, got a list",
        ),
    ],
    ids=["or-over-when", "when-as-a-term"],
)
def test_a_construct_where_no_literal_stands_is_a_syntax_error(old, new, error, message):
    # the parser stops at the first list that cannot stand where it is,
    # before it meets the `when` inside
    with pytest.raises(error, match=message) as info:
        parse_domain(TINY_DOMAIN.replace(old, new))
    assert type(info.value) is error


def test_arity_mismatch_rejected():
    text = TINY_DOMAIN.replace(":effect (shiny ?b)", ":effect (shiny ?b ?b)")
    with pytest.raises(PddlSyntaxError, match="arguments"):
        parse_domain(text)


def test_unbound_variable_rejected():
    text = TINY_DOMAIN.replace(":effect (shiny ?b)", ":effect (shiny ?c)")
    with pytest.raises(PddlSyntaxError, match="unbound"):
        parse_domain(text)


def test_problem_validation_against_domain():
    d = parse_domain(TINY_DOMAIN)
    with pytest.raises(UndeclaredObjectType):
        parse_problem(TINY_PROBLEM.replace("- block", "- brick"), d)
    with pytest.raises(PddlSyntaxError, match="glossy"):
        parse_problem(TINY_PROBLEM.replace("(shiny a)", "(glossy a)"), d)
    with pytest.raises(PddlSyntaxError):
        parse_problem(TINY_PROBLEM.replace("(clear a)", "(clear zzz)"), d)


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        ("(clear a) (clear b)", "(clear a b) (clear b)", "init: 'clear' expects 1"),
        ("(clear a) (clear b)", "(clear a) (glossy b)", "init: unknown predicate"),
        ("(and (shiny a) (shiny b))", "(shiny ?x)", "goal: unbound name '?x'"),
        ("(and (shiny a) (shiny b))", "(= a b a)", "goal: '=' expects 2"),
        ("(:domain tiny)", "(:domain other)", "domain 'other', not 'tiny'"),
        ("(:domain tiny)", "(:domain)", "expected (:domain NAME)"),
    ],
)
def test_problem_atoms_checked_against_domain(old, new, fragment):
    d = parse_domain(TINY_DOMAIN)
    with pytest.raises(PddlSyntaxError) as info:
        parse_problem(TINY_PROBLEM.replace(old, new), d)
    assert fragment in str(info.value)


def test_schema_arguments_must_be_parameters():
    # without :constants a bare name in a schema is bound by nothing
    text = TINY_DOMAIN.replace(":effect (shiny ?b)", ":effect (shiny a)")
    with pytest.raises(PddlSyntaxError, match="action 'polish': unbound name 'a'"):
        parse_domain(text)


def test_negative_init_rejected():
    d = parse_domain(TINY_DOMAIN)
    with pytest.raises(PddlSyntaxError, match="negative init"):
        parse_problem(TINY_PROBLEM.replace("(clear a)", "(not (clear a))"), d)


def test_forall_goal_unsupported():
    text = TINY_PROBLEM.replace(
        "(and (shiny a) (shiny b))", "(forall (?b - block) (shiny ?b))"
    )
    with pytest.raises(UnsupportedFeature, match="universal"):
        parse_problem(text)


def test_nested_exists_goal_ast():
    text = TINY_PROBLEM.replace(
        "(and (shiny a) (shiny b))",
        "(exists (?x - block) (exists (?y - block) (and (shiny ?x) (not (= ?x ?y)))))",
    )
    p = parse_problem(text)
    assert p.goal == GoalExists(
        (TypedName("?x", "block"),),
        GoalExists(
            (TypedName("?y", "block"),),
            GoalAnd(
                (
                    GoalAtom(LiteralAst("shiny", ("?x",))),
                    GoalAtom(LiteralAst("=", ("?x", "?y"), positive=False)),
                )
            ),
        ),
    )


# -- grounding -----------------------------------------------------------------

def test_ground_tiny():
    d = parse_domain(TINY_DOMAIN)
    p = parse_problem(TINY_PROBLEM, d)
    g = ground(d, p)
    assert sorted(a.name for a in g.actions) == [
        "polish(a)",
        "polish(b)",
        "smudge(a)",
        "smudge(b)",
    ]
    assert g.init == frozenset({Fluent.parse("clear(a)"), Fluent.parse("clear(b)")})
    assert g.goal.disjuncts == (
        ((Fluent.parse("shiny(a)"), True), (Fluent.parse("shiny(b)"), True)),
    )
    # clear is static here: it stays a satisfied precondition, not a fluent var
    polish = g.action("polish(a)")
    assert polish.pre_pos == frozenset()
    assert polish.pre_neg == frozenset({Fluent.parse("shiny(a)")})


ZERO_DOMAIN = """
(define (domain z)
  (:predicates (done))
  (:action finish :parameters () :precondition (and) :effect (done)))
"""
ZERO_PROBLEM = "(define (problem z1) (:domain z) (:objects) (:init) (:goal (done)))"


def test_ground_zero_parameter_schema():
    d = parse_domain(ZERO_DOMAIN)
    g = ground(d, parse_problem(ZERO_PROBLEM, d))
    assert [a.name for a in g.actions] == ["finish"]
    assert len(enumerate_plans(g, 1)) == 1


def test_ground_aladdin_counts():
    d = load_domain(data_file("aladdin-domain.pddl"))
    p = load_problem_file(data_file("aladdin-problem.pddl"), d)
    g = ground(d, p)
    by_schema = {}
    for a in g.actions:
        by_schema.setdefault(a.name.split("(")[0], []).append(a)
    # 5 chars, 3 locs; equality literals pruned at instantiation time
    assert len(by_schema["move"]) == 5 * 3 * 2
    assert len(by_schema["give-lamp"]) == 5 * 4 * 3
    assert len(by_schema["cast-love-spell"]) == 5 * 5 * 4
    assert len(by_schema["marry"]) == 5 * 4
    assert len(g.actions) == 210
    assert "move(aladdin,castle,castle)" not in {a.name for a in g.actions}


def test_ground_aladdin_goal_is_twenty_ordered_pairs():
    d = load_domain(data_file("aladdin-domain.pddl"))
    p = load_problem_file(data_file("aladdin-problem.pddl"), d)
    g = ground(d, p)
    assert len(g.goal.disjuncts) == 20
    assert all(len(disj) == 1 and disj[0][1] for disj in g.goal.disjuncts)
    chars = ["aladdin", "jasmine", "genie", "jafar", "dragon"]
    expected = {
        Fluent("married-to", (c2, c1)) for c1 in chars for c2 in chars if c1 != c2
    }
    assert g.goal.fluents() == expected
    # grounding is deterministic
    assert ground(d, p).goal == g.goal
    assert [a.name for a in ground(d, p).actions] == [a.name for a in g.actions]


def test_ground_story_tiny_static_pruning():
    d = load_domain(data_file("story-tiny-domain.pddl"))
    p = load_problem_file(data_file("story-tiny-problem.pddl"), d)
    g = ground(d, p)
    assert sorted(a.name for a in g.actions) == [
        "cast-love-spell(ala,ala,jas)",
        "cast-love-spell(ala,jas,ala)",
        "marry(ala,jas)",
        "marry(jas,ala)",
    ]
    assert len(g.goal.disjuncts) == 2
    # cross-check with the brute-force enumerator: first plans appear at length 3
    plans = enumerate_plans(g, 3)
    assert len(plans) == 4
    assert all(len(pl) == 3 for pl in plans)


NO_INEQUALITY = ("(and (married-to ?c2 ?c1) (not (= ?c1 ?c2)))", "(married-to ?c2 ?c1)")


def test_exists_without_inequality_includes_identical_pairs():
    d = load_domain(data_file("story-tiny-domain.pddl"))
    text = open(data_file("story-tiny-problem.pddl")).read().replace(*NO_INEQUALITY)
    p = parse_problem(text, d)
    g = ground(d, p)
    assert len(g.goal.disjuncts) == 4  # ordered pairs incl. (ala,ala), (jas,jas)


def test_grounding_explosion_cap(monkeypatch):
    d = load_domain(data_file("aladdin-domain.pddl"))
    p = load_problem_file(data_file("aladdin-problem.pddl"), d)
    monkeypatch.setattr(pddl, "GROUND_ACTION_CAP", 100)
    with pytest.raises(GroundingExplosion):
        ground(d, p)


GOAL = "(and (shiny a) (shiny b))"
FALSE_GOAL = (GOAL, "(= a b)")


def test_statically_false_goal_rejected():
    d = parse_domain(TINY_DOMAIN)
    text = TINY_PROBLEM.replace(*FALSE_GOAL)
    with pytest.raises(PddlError, match="unsatisfiable"):
        ground(d, parse_problem(text, d))


def test_ground_fluent_universe_closed():
    d = load_domain(data_file("aladdin-domain.pddl"))
    p = load_problem_file(data_file("aladdin-problem.pddl"), d)
    g = ground(d, p)
    for a in g.actions:
        assert a.fluents() <= g.fluents
    assert g.init <= g.fluents
    assert g.goal.fluents() <= g.fluents


# -- the grounder against the reference grounder -------------------------------------


def _bundled(name):
    """The (domain, problem) texts of a bundled PDDL pair."""
    texts = []
    for part in ("domain", "problem"):
        with open(data_file(f"{name}-{part}.pddl")) as fh:
            texts.append(fh.read())
    return tuple(texts)


CAST = ("aladdin", "jasmine", "genie", "jafar", "dragon")
PLACES = ("castle", "market", "cave")
MOVE_IN_PLACE = ("(and (at ?c ?from) (not (= ?from ?to)))", "(at ?c ?from)")
WEDDING = "(exists (?c1 - char ?c2 - char) (and (married-to ?c2 ?c1) (not (= ?c1 ?c2))))"


def full_cast_variant(seed, n_chars, n_places):
    """An aladdin problem over a seeded cast, start places and lamp holder."""
    rng = random.Random(seed)
    cast, places = rng.sample(CAST, n_chars), rng.sample(PLACES, n_places)
    init = [f"(at {c} {rng.choice(places)})" for c in cast]
    init.append(f"(has-lamp {rng.choice(cast)})")
    return (
        f"(define (problem variant-{seed}) (:domain aladdin)\n"
        f"  (:objects {' '.join(cast)} - char {' '.join(places)} - loc)\n"
        f"  (:init {' '.join(init)})\n  (:goal {WEDDING}))"
    )


def _ground_cases():
    cases = {
        "aladdin": _bundled("aladdin"),
        "story-tiny": _bundled("story-tiny"),
        "story-tiny-no-inequality": (
            _bundled("story-tiny")[0], _bundled("story-tiny")[1].replace(*NO_INEQUALITY)
        ),
        # move(c,l,l) adds and deletes at(c,l): the add wins
        "aladdin-move-in-place": (
            _bundled("aladdin")[0].replace(*MOVE_IN_PLACE), _bundled("aladdin")[1]
        ),
        "zero-parameters": (ZERO_DOMAIN, ZERO_PROBLEM),
        "static-pruning": (TINY_DOMAIN, TINY_PROBLEM),
        "false-goal": (TINY_DOMAIN, TINY_PROBLEM.replace(*FALSE_GOAL)),
    }
    # goal shapes whose DNF is true, false or has a branch that always holds
    # or never does; `clear` is static in the tiny domain and holds for a
    # and b, and no object has the type `gem`
    gem_domain = TINY_DOMAIN.replace("(:types block - object)", "(:types block gem - object)")
    for name, goal in {
        "and-empty": "(and)",
        "or-empty": "(or)",
        "and-always-true": "(and (= a a) (clear b))",
        "and-with-a-true-branch": "(and (shiny a) (= b b) (clear a))",
        "or-always-true-equality": "(or (shiny a) (= a a))",
        "or-always-true-static": "(or (shiny a) (clear b))",
        "or-always-false-equality": "(or (shiny a) (= a b))",
        "or-always-false-static": "(or (not (clear a)) (shiny b))",
        "or-over-an-empty-and": "(or (shiny a) (and))",
        "exists-always-true": "(exists (?x - block) (or (= ?x b) (shiny ?x)))",
        "exists-always-true-static": "(exists (?x - block) (and (clear ?x) (= ?x a)))",
        "exists-always-false": "(exists (?x - block) (and (shiny ?x) (not (= ?x ?x))))",
        "exists-one-false-branch": "(exists (?x - block) (and (shiny ?x) (not (= ?x a))))",
        "exists-empty-type": "(exists (?g - gem) (shiny ?g))",
        "or-over-exists-empty-type": "(or (shiny a) (exists (?g - gem) (= ?g ?g)))",
    }.items():
        cases[f"goal-{name}"] = (gem_domain, TINY_PROBLEM.replace(GOAL, goal))
    for n_chars in (4, 5):
        for n_places in (2, 3):
            for seed in range(3):
                cases[f"variant-{n_chars}x{n_places}-{seed}"] = (
                    _bundled("aladdin")[0], full_cast_variant(seed, n_chars, n_places)
                )
    return cases


GROUND_CASES = _ground_cases()


def assert_grounds_as_the_reference(domain, problem):
    """ground and reference_ground agree: the same problem, actions in the
    same order, or the same PddlError class and message."""
    try:
        expected = reference_ground(domain, problem)
    except PddlError as exc:
        with pytest.raises(PddlError) as info:
            ground(domain, problem)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    got = ground(domain, problem)
    assert [a.name for a in got.actions] == [a.name for a in expected.actions]
    assert got == expected  # each action's pre/add/delete, init, goal and fluents


@pytest.mark.parametrize("case", GROUND_CASES)
def test_ground_matches_the_reference_grounder(case):
    domain_text, problem_text = GROUND_CASES[case]
    d = parse_domain(domain_text)
    assert_grounds_as_the_reference(d, parse_problem(problem_text, d))


def test_ground_matches_the_reference_at_the_action_cap(monkeypatch):
    domain_text, problem_text = _bundled("aladdin")
    d = parse_domain(domain_text)
    p = parse_problem(problem_text, d)
    for cap in (269, 270):  # 270 instantiations, 210 of them kept
        monkeypatch.setattr(pddl, "GROUND_ACTION_CAP", cap)
        assert_grounds_as_the_reference(d, p)


# -- type hierarchies and malformed input ------------------------------------------


@pytest.mark.parametrize(
    "types, name",
    [("char loc object", "object"), ("char - loc loc - char", "char")],
    ids=["object-listed", "two-type-cycle"],
)
def test_type_cycle_is_one_syntax_error(types, name):
    # a listed `object` defaults to parent `object`; grounding walks each
    # object's type up to the root, so parsing refuses a cycle first
    text = open(data_file("story-tiny-domain.pddl")).read()
    assert "(:types char loc - object)" in text
    text = text.replace("(:types char loc - object)", f"(:types {types})")
    with pytest.raises(PddlSyntaxError, match=f"type '{name}' is its own ancestor"):
        parse_domain(text)


_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_INSERTS = (
    "(", ")", "-", "object", "either", "and", "or", "not", "=", "exists",
    "forall", "when", ":types", ":objects", ":init", ":goal", "?c", "char", "loc",
)


def _tokens(name):
    with open(data_file(name)) as fh:
        return _TOKEN.findall(re.sub(r";[^\n]*", "", fh.read()))


def _mutated(tokens, edits):
    tokens = list(tokens)
    for op, i, j, insert in edits:
        i, j = i % len(tokens), j % len(tokens)
        if op == "delete" and len(tokens) > 1:
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        elif op == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == "insert":
            tokens.insert(i, insert)
    return tokens


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("delete", "duplicate", "swap", "insert")),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.sampled_from(_INSERTS),
    ),
    min_size=1,
    max_size=3,
)


_SPACES = st.lists(
    st.sampled_from((" ", "\t", "\n", "\r\n", "\f", "\v", "\u00a0")), min_size=1, max_size=8
)


def _joined(tokens, spaces):
    """The tokens, the i-th gap filled with spaces[i % len(spaces)]."""
    return "".join(tok + spaces[i % len(spaces)] for i, tok in enumerate(tokens))


@settings(max_examples=300, deadline=None)
@given(edits=_EDITS, in_domain=st.booleans(), spaces=_SPACES)
def test_token_mutations_parse_or_raise_a_pddl_error(edits, in_domain, spaces):
    domain, problem = _tokens("story-tiny-domain.pddl"), _tokens("story-tiny-problem.pddl")
    if in_domain:
        domain = _mutated(domain, edits)
    else:
        problem = _mutated(problem, edits)
    try:
        d = parse_domain(_joined(domain, spaces))
        p = parse_problem(_joined(problem, spaces), d)
    except PddlError:
        return
    assert_grounds_as_the_reference(d, p)
