import os

import pytest

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
from oracles import enumerate_plans

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


def test_ground_zero_parameter_schema():
    d = parse_domain(
        """
        (define (domain z)
          (:predicates (done))
          (:action finish :parameters () :precondition (and) :effect (done)))
        """
    )
    p = parse_problem("(define (problem z1) (:domain z) (:objects) (:init) (:goal (done)))", d)
    g = ground(d, p)
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


def test_exists_without_inequality_includes_identical_pairs():
    d = load_domain(data_file("story-tiny-domain.pddl"))
    text = open(data_file("story-tiny-problem.pddl")).read().replace(
        "(and (married-to ?c2 ?c1) (not (= ?c1 ?c2)))", "(married-to ?c2 ?c1)"
    )
    p = parse_problem(text, d)
    g = ground(d, p)
    assert len(g.goal.disjuncts) == 4  # ordered pairs incl. (ala,ala), (jas,jas)


def test_grounding_explosion_cap(monkeypatch):
    d = load_domain(data_file("aladdin-domain.pddl"))
    p = load_problem_file(data_file("aladdin-problem.pddl"), d)
    monkeypatch.setattr(pddl, "GROUND_ACTION_CAP", 100)
    with pytest.raises(GroundingExplosion):
        ground(d, p)


def test_statically_false_goal_rejected():
    d = parse_domain(TINY_DOMAIN)
    text = TINY_PROBLEM.replace("(and (shiny a) (shiny b))", "(= a b)")
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
