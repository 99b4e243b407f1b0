import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from divplan.ltl import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    MAX_FORMULA_DEPTH,
    LtlSyntaxError,
    Not,
    Or,
    TrueFormula,
    UnknownAtom,
    Verdict,
    atoms,
    eval_finite,
    final_eval,
    mk_and,
    mk_not,
    mk_or,
    monitor,
    parse_formula,
    progress,
)
from oracles import (
    format_formula,
    from_reference,
    random_formula,
    reference_eval_finite,
    reference_final_eval,
    reference_mk_and,
    reference_mk_not,
    reference_mk_or,
    reference_progress,
    to_reference,
    truth_vector,
)

A, B = Atom("a"), Atom("b")


def oracle_eval(f, trace, i=0):
    """Textbook recursive semantics, deliberately independent of eval_finite."""
    if isinstance(f, Atom):
        return trace[i][f.name]
    if f == TRUE:
        return True
    if f == FALSE:
        return False
    if isinstance(f, Not):
        return not oracle_eval(f.arg, trace, i)
    if isinstance(f, And):
        return oracle_eval(f.left, trace, i) and oracle_eval(f.right, trace, i)
    if isinstance(f, Or):
        return oracle_eval(f.left, trace, i) or oracle_eval(f.right, trace, i)
    if isinstance(f, Always):
        return all(oracle_eval(f.arg, trace, j) for j in range(i, len(trace)))
    if isinstance(f, Eventually):
        return any(oracle_eval(f.arg, trace, j) for j in range(i, len(trace)))
    raise TypeError(f)


VALS = [{"a": x, "b": y} for x in (False, True) for y in (False, True)]


def all_traces(max_len, vals=VALS):
    out = []
    for n in range(1, max_len + 1):
        out.extend(tuple(c) for c in itertools.product(vals, repeat=n))
    return out


def formulas_to_depth(depth, leaves=(A, B)):
    pool = list(leaves)
    for _ in range(depth):
        layer = []
        for f in pool:
            layer += [Not(f), Always(f), Eventually(f)]
        for f, g in itertools.product(pool, repeat=2):
            layer += [And(f, g), Or(f, g)]
        pool = pool + layer
    return pool


# -- grammar -------------------------------------------------------------------

ROUNDTRIP_CASES = [
    ("a", A),
    ("! a", Not(A)),
    ("G a", Always(A)),
    ("F a", Eventually(A)),
    ("FG a", Eventually(Always(A))),
    ("a & b", And(A, B)),
    ("a | b & a", Or(A, And(B, A))),
    ("(a | b) & a", And(Or(A, B), A)),
    ("G (a & b)", Always(And(A, B))),
    ("! G ! a", Not(Always(Not(A)))),
    ("true | false", Or(TRUE, FALSE)),
    ("l-reached", Atom("l-reached")),
]


@pytest.mark.parametrize("text,expected", ROUNDTRIP_CASES)
def test_parse(text, expected):
    assert parse_formula(text) == expected


@pytest.mark.parametrize("text,expected", ROUNDTRIP_CASES)
def test_format_parse_roundtrip(text, expected):
    assert parse_formula(format_formula(expected)) == expected


def test_parse_is_left_associative_and_and_binds_tighter():
    assert parse_formula("a & b & a") == And(And(A, B), A)
    assert parse_formula("a | b | a") == Or(Or(A, B), A)
    assert parse_formula("a | b & a | b") == Or(Or(A, And(B, A)), B)


def test_parse_errors():
    for text in ["", "a &", "& a", "(a", "a)", "a b", "G", "a ? b"]:
        with pytest.raises(LtlSyntaxError):
            parse_formula(text)


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "!" * n + "a",
        lambda n: "G " * n + "a",
        lambda n: "(" * n + "a" + ")" * n,
        lambda n: " & ".join("a" * (n + 1)),
        lambda n: " | ".join("ab"[i % 2] for i in range(n + 1)),
    ],
    ids=["not", "always", "parentheses", "and-chain", "or-chain"],
)
def test_nesting_is_capped(nest):
    parse_formula(nest(MAX_FORMULA_DEPTH))
    with pytest.raises(LtlSyntaxError, match="nested deeper than"):
        parse_formula(nest(MAX_FORMULA_DEPTH + 1))
    with pytest.raises(LtlSyntaxError, match="nested deeper than"):
        parse_formula(nest(5000))


def test_atoms_collection():
    f = parse_formula("G (a & ! b) | F c")
    assert atoms(f) == frozenset({"a", "b", "c"})
    assert atoms(TRUE) == frozenset()


_formulas = st.recursive(
    st.sampled_from([A, B, TRUE, FALSE]),
    lambda inner: st.one_of(
        inner.map(Not),
        inner.map(Always),
        inner.map(Eventually),
        st.tuples(inner, inner).map(lambda p: And(*p)),
        st.tuples(inner, inner).map(lambda p: Or(*p)),
    ),
    max_leaves=8,
)
_traces = st.lists(st.sampled_from(VALS), min_size=1, max_size=5).map(tuple)


@given(_formulas)
def test_roundtrip_property(f):
    assert parse_formula(format_formula(f)) == f


# -- formulas as values ----------------------------------------------------------

KINDS = [
    (lambda: Atom("a"), "Atom(name='a')"),
    (lambda: Not(Atom("a")), "Not(arg=Atom(name='a'))"),
    (lambda: And(Atom("a"), TrueFormula()), "And(left=Atom(name='a'), right=TrueFormula())"),
    (lambda: Or(Atom("a"), FalseFormula()), "Or(left=Atom(name='a'), right=FalseFormula())"),
    (lambda: Always(Atom("a")), "Always(arg=Atom(name='a'))"),
    (lambda: Eventually(Atom("a")), "Eventually(arg=Atom(name='a'))"),
    (TrueFormula, "TrueFormula()"),
    (FalseFormula, "FalseFormula()"),
]
# each kind's fields, given to every other kind of the same arity
SAME_ARITY = [(Not, Always, Eventually), (And, Or), (TrueFormula, FalseFormula)]


@pytest.mark.parametrize("build,text", KINDS, ids=[text.split("(")[0] for _, text in KINDS])
def test_formulas_are_values(build, text):
    f = build()
    assert repr(f) == text
    twin = build()
    assert twin == f and hash(twin) == hash(f)
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(copied) is type(f)
        assert copied == f and hash(copied) == hash(f)
    for other in next((kinds for kinds in SAME_ARITY if type(f) in kinds), ()):
        if other is not type(f):
            assert other(*(getattr(f, n) for n in f._fields)) != f


def test_a_non_formula_is_a_type_error():
    valuation = {"a": True, "b": True}
    for call in (
        lambda: progress(None, valuation),
        lambda: final_eval("a", valuation),
        lambda: eval_finite(3, (valuation,)),
        lambda: atoms(object()),
        # a field that is not a formula
        lambda: progress(Not("a"), valuation),
        lambda: final_eval(And(A, "b"), valuation),
        lambda: eval_finite(Eventually("a"), (valuation,)),
        lambda: atoms(Or(A, "b")),
    ):
        with pytest.raises(TypeError, match="not a formula"):
            call()


# every node kind, to depth 6; depth 0 draws a leaf
_random_formulas = st.builds(
    random_formula, st.randoms(use_true_random=False), st.integers(0, 6), st.just((A, B, TRUE, FALSE))
)


@given(
    _random_formulas,
    _random_formulas,
    st.sampled_from(["free", "same", "always", "eventually", "not"]),
    st.booleans(),
    st.sampled_from(VALS),
    _traces,
)
@settings(max_examples=300, deadline=None)
def test_tagged_formulas_match_the_dataclass_reference(f, free, pairing, swap, v, trace):
    # results are compared as dataclasses, which are equal only within a class
    ref = to_reference(f)
    assert from_reference(ref) == f
    assert repr(f) == repr(ref).replace("Ref", "")
    assert to_reference(progress(f, v)) == reference_progress(ref, v)
    assert final_eval(f, v) == reference_final_eval(ref, v)
    assert eval_finite(f, trace) == reference_eval_finite(ref, trace)
    assert to_reference(mk_not(f)) == reference_mk_not(ref)
    # a second operand that each of the mk_* rewrites can fire on
    g = {
        "free": free,
        "same": f,
        "always": Always(f),
        "eventually": Eventually(f),
        "not": Not(f),
    }[pairing]
    left, right = (g, f) if swap else (f, g)
    refs = to_reference(left), to_reference(right)
    assert to_reference(mk_and(left, right)) == reference_mk_and(*refs)
    assert to_reference(mk_or(left, right)) == reference_mk_or(*refs)


# -- finite-trace evaluation -----------------------------------------------------

def test_eval_hand_cases():
    t = ({"a": True}, {"a": False}, {"a": True})
    assert eval_finite(Atom("a"), t) is True
    assert eval_finite(Always(Atom("a")), t) is False
    assert eval_finite(Eventually(Atom("a")), t) is True
    assert eval_finite(Eventually(Always(Atom("a"))), t) is True  # suffix [T]
    assert eval_finite(Always(Eventually(Atom("a"))), t) is True
    t2 = ({"a": True}, {"a": False})
    assert eval_finite(Eventually(Always(Atom("a"))), t2) is False


def test_eval_rejects_empty_trace():
    with pytest.raises(ValueError):
        eval_finite(A, ())


def test_eval_unknown_atom():
    with pytest.raises(UnknownAtom):
        eval_finite(Atom("zzz"), ({"a": True},))


def test_eval_matches_oracle_exhaustive_depth2():
    traces = all_traces(4)
    for f in formulas_to_depth(2):
        for t in traces:
            assert eval_finite(f, t) == oracle_eval(f, t), (format_formula(f), t)


def test_eval_matches_the_truth_vectors_it_replaced():
    # position i of a trace is position 0 of its suffix from i
    traces = all_traces(4)
    for f in formulas_to_depth(2):
        for t in traces:
            got = [eval_finite(f, t[i:]) for i in range(len(t))]
            assert got == truth_vector(f, t), (format_formula(f), t)


def test_eventually_always_is_last_state_for_atoms():
    for bits in itertools.product((False, True), repeat=6):
        t = tuple({"a": b} for b in bits)
        assert eval_finite(Eventually(Always(Atom("a"))), t) == bits[-1]


@given(_formulas, _traces)
def test_negation_duality(f, t):
    assert eval_finite(Not(f), t) == (not eval_finite(f, t))


@given(_formulas, _traces)
def test_progress_identity(f, t):
    # progression peels one state off the front, for any non-empty remainder
    full = ({"a": True, "b": False},) + tuple(t)
    assert eval_finite(f, full) == eval_finite(progress(f, full[0]), t)


def test_final_eval_is_singleton_trace():
    for f in formulas_to_depth(2):
        for v in VALS:
            assert final_eval(f, v) == eval_finite(f, (v,))


# -- simplifying constructors ------------------------------------------------------

def test_mk_constructors():
    assert mk_not(TRUE) == FALSE and mk_not(FALSE) == TRUE
    assert mk_not(Not(A)) == A
    assert mk_and(TRUE, A) == A and mk_and(A, FALSE) == FALSE
    assert mk_or(FALSE, A) == A and mk_or(A, TRUE) == TRUE
    assert mk_and(A, A) == A and mk_or(A, A) == A
    assert mk_or(Always(A), Eventually(Always(A))) == Eventually(Always(A))
    assert mk_and(Eventually(A), Always(Eventually(A))) == Always(Eventually(A))
    assert mk_or(A, B) == Or(A, B)


@given(_formulas, st.sampled_from(VALS), _traces)
@settings(max_examples=300)
def test_progress_simplification_is_sound(f, v, rest):
    # whatever mk_* rewrites do, progression must preserve trace semantics
    assert eval_finite(progress(f, v), rest) == eval_finite(f, (v,) + tuple(rest))


# -- monitor -------------------------------------------------------------------

def T(a):
    return {"a": a, "b": False}


def test_monitor_hand_cases():
    assert monitor(Always(A), (T(True), T(False))) == Verdict.VIOLATED_ALL_EXTENSIONS
    assert monitor(Always(A), (T(True), T(True))) == Verdict.UNDETERMINED
    assert monitor(Eventually(A), (T(False), T(True))) == (
        Verdict.SATISFIED_ALL_EXTENSIONS
    )
    assert monitor(Eventually(A), (T(False),)) == Verdict.UNDETERMINED
    # FG a can flip on any extension, in both directions
    assert monitor(Eventually(Always(A)), (T(True),)) == Verdict.UNDETERMINED
    assert monitor(Eventually(Always(A)), (T(False),)) == Verdict.UNDETERMINED
    assert monitor(TRUE, (T(False),)) == Verdict.SATISFIED_ALL_EXTENSIONS
    assert monitor(FALSE, (T(False),)) == Verdict.VIOLATED_ALL_EXTENSIONS


def test_monitor_rejects_empty_prefix():
    with pytest.raises(ValueError):
        monitor(A, ())


MONITOR_SHAPES = [
    "G a",
    "F a",
    "FG a",
    "G ! a",
    "F (a & b)",
    "FG (a & ! b)",
    "G a | F b",
    "! F a",
    "G (a | b)",
    "FG a & FG b",
]


@pytest.mark.parametrize("text", MONITOR_SHAPES)
def test_monitor_soundness_small(text):
    # a definite verdict must agree with evaluation on every completion,
    # including the prefix itself (the empty extension)
    f = parse_formula(text)
    extensions = [()] + [tuple(c) for n in (1, 2) for c in itertools.product(VALS, repeat=n)]
    for prefix in all_traces(3):
        verdict = monitor(f, prefix)
        if verdict == Verdict.UNDETERMINED:
            continue
        expected = verdict == Verdict.SATISFIED_ALL_EXTENSIONS
        for ext in extensions:
            assert oracle_eval(f, prefix + ext) == expected, (text, prefix, ext)


def test_monitor_catches_definite_verdicts_for_safety_and_guarantee():
    # G: any observed violation is final; F: any observed witness is final
    assert (
        monitor(parse_formula("G (a | b)"), ({"a": False, "b": False},))
        == Verdict.VIOLATED_ALL_EXTENSIONS
    )
    assert (
        monitor(parse_formula("F (a & b)"), ({"a": True, "b": True},))
        == Verdict.SATISFIED_ALL_EXTENSIONS
    )
