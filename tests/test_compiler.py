"""End-to-end checks of the formula -> automaton -> membership pipeline.

Oracle notes:
- [DERIVED] sentence verdicts are cross-checked against the independent
  semantic evaluator in gslmc.oracle on instances where it is exact.
- [TRIVIAL] hand-computable verdicts on the two-state toggle structure are
  asserted directly.
"""

import itertools
import json
import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gslmc import compiler
from gslmc import formula as fm
from gslmc.cgs import load_cgs, FiniteStrategy
from gslmc.automata import is_npt
from gslmc.compiler import check_sentence, check_assignment
from gslmc.errors import ModelError, ResourceBudgetError, UnsupportedGradeError
from gslmc.oracle import enumerate_strategies, oracle_check, EXACT
from gslmc.solutions import load_objectives, ne_formula_general, uniqueness_formula

from conftest import make_cgs, no_witnesses, unpooled, TOGGLE, SINGLE_ACTION
from test_determinize import ring_model


def parse(text, agents):
    return fm.parse_formula(text, set(agents))


@pytest.fixture(scope="module")
def toggle():
    return load_cgs(TOGGLE)


@pytest.fixture(scope="module")
def single():
    return load_cgs(SINGLE_ACTION)


class TestToggleSentences:
    # [TRIVIAL] On the toggle structure, playing "a" from s0 reaches p.
    def test_exists_next_p_holds(self, toggle):
        f = parse("<<x>>^>=1 (a0,x) X p", toggle.agents)
        assert check_sentence(f, toggle)[0] is True

    def test_forall_next_p_fails(self, toggle):
        # action "b" stays in s0, so not every strategy reaches p next
        f = parse("[[x]]^<1 (a0,x) X !p", toggle.agents)
        assert check_sentence(f, toggle)[0] is False

    def test_exists_eventually_p(self, toggle):
        f = parse("<<x>>^>=1 (a0,x) F p", toggle.agents)
        assert check_sentence(f, toggle)[0] is True

    def test_no_strategy_avoids_p_forever_is_false(self, toggle):
        # constantly playing "b" stays in s0 forever, so avoidance exists
        f = parse("[[x]]^<1 (a0,x) F p", toggle.agents)
        assert check_sentence(f, toggle)[0] is False

    def test_two_distinct_strategies_for_next_p(self, toggle):
        # off-path behaviour may differ, so two distinct witnesses exist
        f = parse("<<x>>^>=2 (a0,x) X p", toggle.agents)
        assert check_sentence(f, toggle)[0] is True

    def test_until_with_left_constraint(self, toggle):
        f = parse("<<x>>^>=1 (a0,x) (!p U p)", toggle.agents)
        assert check_sentence(f, toggle)[0] is True


class TestSingleActionSentences:
    # [TRIVIAL] with one action all strategies coincide
    def test_grade_two_unsatisfiable(self, single):
        f = parse("<<x>>^>=2 (a0,x)(a1,x) X p", single.agents)
        assert check_sentence(f, single)[0] is False

    def test_grade_one_satisfiable(self, single):
        f = parse("<<x>>^>=1 (a0,x)(a1,x) X p", single.agents)
        assert check_sentence(f, single)[0] is True


class TestAssignmentChecking:
    def test_free_placeholder_with_explicit_machine(self, toggle):
        f = parse("(a0,x) X p", toggle.agents)
        always_a = FiniteStrategy(
            (0,), 0, {(0, s): 0 for s in toggle.states},
            {(0, s): "a" for s in toggle.states},
        )
        always_b = FiniteStrategy(
            (0,), 0, {(0, s): 0 for s in toggle.states},
            {(0, s): "b" for s in toggle.states},
        )
        assert check_assignment(f, toggle, {"x": always_a})[0] is True
        assert check_assignment(f, toggle, {"x": always_b})[0] is False

    def test_missing_assignment_rejected(self, toggle):
        f = parse("(a0,x) X p", toggle.agents)
        with pytest.raises(ModelError):
            check_assignment(f, toggle, {})

    def test_non_sentence_rejected_by_check_sentence(self, toggle):
        f = parse("(a0,x) X p", toggle.agents)
        with pytest.raises(ModelError):
            check_sentence(f, toggle)


class TestModesAndStages:
    # the stages pinned here are the g-copy blocks', which the witness
    # search would mostly skip
    @pytest.fixture(autouse=True)
    def _no_witnesses(self):
        with no_witnesses():
            yield

    def test_block_and_single_modes_agree(self, toggle):
        # each sentence pools two quantifiers into one block, so the
        # per-quantifier reference finishes one stage more
        texts = [
            "<<x>>^>=1 <<y>>^>=1 ((a0,x) X p || (a0,y) X !p)",
            "<<x>>^>=2 !!<<y>>^>=1 ((a0,x) F p || (a0,y) X p)",
            "[[x]]^<2 [[y]]^<1 ((a0,x) X p || (a0,y) X !p)",
        ]
        for t in texts:
            f = parse(t, toggle.agents)
            v_block, block = check_sentence(f, toggle)
            with unpooled():
                v_single, single = check_sentence(f, toggle)
            assert v_block == v_single, t
            assert (len(block.stages), len(single.stages)) == (1, 2), t

    def test_pooled_block_removes_alternation_once(self, toggle):
        f = parse("<<x,y>>^>=1 ((a0,x) X p || (a0,y) X !p)", toggle.agents)
        _, ctx = check_sentence(f, toggle)
        assert len(ctx.stages) == 1
        assert ctx.stage_count() == 1

    def test_nested_blocks_count_by_depth(self, single):
        # existential block around a universal block: two nested removals
        f = parse("<<x>>^>=1 [[y]]^<1 ((a0,x)(a1,y) X p)", single.agents)
        _, ctx = check_sentence(f, single)
        assert ctx.stage_count() == 2

    def test_infinite_grade_rejected(self, toggle):
        f = parse("<<x>>^>=aleph0 (a0,x) X p", toggle.agents)
        with pytest.raises(UnsupportedGradeError):
            check_sentence(f, toggle)


class TestPipelineAgainstOracle:
    # [DERIVED] the semantic evaluator is an independent implementation;
    # compare it with the automata pipeline where the evaluator is exact.
    def test_random_single_action_models_agree_with_oracle(self, rng):
        texts = [
            "<<x>>^>=1 (a0,x) X p",
            "<<x>>^>=2 (a0,x) X p",
            "<<x>>^>=1 (a0,x) F p",
            "<<x>>^>=1 (a0,x) (p U !p)",
            "[[x]]^<1 (a0,x) F p",
        ]
        checked = 0
        for i in range(8):
            g = make_cgs(rng, n_states=rng.randint(2, 4), n_agents=1, n_actions=1)
            for t in texts:
                f = parse(t, g.agents)
                res = oracle_check(g, f)
                assert res.confidence == EXACT
                assert check_sentence(f, g)[0] == res.verdict, (i, t)
                checked += 1
        assert checked == 40

    def test_random_two_action_models_agree_with_oracle(self, rng):
        # memoryless-exact family: single quantifier over reachability
        texts = [
            "<<x>>^>=1 (a0,x) F p",
            "<<x>>^>=1 (a0,x) X p",
        ]
        for i in range(6):
            g = make_cgs(rng, n_states=3, n_agents=1, n_actions=2)
            for t in texts:
                f = parse(t, g.agents)
                res = oracle_check(g, f, justification="memoryless-sufficient")
                assert check_sentence(f, g)[0] == res.verdict, (i, t)


# ---------------------------------------------------------------------------
# properties over random sentences

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples_data")


def load_example(name):
    with open(os.path.join(DATA, f"{name}.json")) as fh:
        return load_cgs(json.load(fh))


MODELS = {name: load_example(name) for name in ("toggle", "pennies")}
FIXTURES = st.sampled_from([MODELS[name] for name in sorted(MODELS)])
# random single-action structures, where the oracle is exact
SINGLE_ACTION_MODELS = st.builds(
    lambda seed, n_states, n_agents: make_cgs(random.Random(seed), n_states, n_agents, 1),
    st.integers(0, 2**16), st.integers(2, 3), st.integers(1, 2),
)


def formula_text(draw, agents, depth, bound, kinds=None):
    """A formula over the agents, drawn with draw: at most two nested
    quantifiers, the placeholders in `bound` already quantified, grades
    0-2, and every temporal operator under bindings of all agents."""

    def formula(depth, bound, kinds=None):
        if kinds is None:
            kinds = ["atom"]
            if depth:
                kinds += ["not", "binary"] + ["temporal", "until"] * bool(bound)
                kinds += ["quantifier"] * (len(bound) < 2)
        kind = draw(st.sampled_from(kinds))
        if kind == "atom":
            return draw(st.sampled_from(["p", "true", "false"]))
        if kind == "not":
            return "!" + formula(depth - 1, bound)
        if kind == "binary":
            op = draw(st.sampled_from(["&&", "||", "->"]))
            return f"({formula(depth - 1, bound)} {op} {formula(depth - 1, bound)})"
        if kind == "quantifier":
            var, grade = "xy"[len(bound)], draw(st.integers(0, 2))
            prefix = draw(st.sampled_from(["", "!", "!!"]))
            quant = draw(st.sampled_from([f"<<{var}>>^>={grade}", f"[[{var}]]^<{grade}"]))
            return f"{prefix}{quant} {formula(depth - 1, bound + [var])}"
        binds = "".join(f"({a},{draw(st.sampled_from(bound))})" for a in agents)
        if kind == "until":
            return f"{binds} ({formula(depth - 1, bound)} U {formula(depth - 1, bound)})"
        return f"{binds} {draw(st.sampled_from('XFG'))} {formula(depth - 1, bound)}"

    return formula(depth, bound, kinds)


@st.composite
def sentences(draw, models):
    """(model, sentence text) over a model drawn from `models`, with a
    quantifier at the top."""
    g = draw(models)
    return g, formula_text(draw, g.agents, 4, [], kinds=["quantifier"])


@st.composite
def graded_bodies(draw, models):
    """(model, text of a body under the quantified x, a grade 0-1)."""
    g = draw(models)
    return g, formula_text(draw, g.agents, 3, ["x"]), draw(st.integers(0, 1))


def check_within_budget(g, f):
    """(verdict, context), or None when the check stops on the budget."""
    try:
        return check_sentence(f, g, budget=3000)
    except ResourceBudgetError:
        return None


def check_property(prop, cases):
    """Run prop(model, formula, *rest) over the drawn cases (model, formula
    text, *rest); it returns False when a check stopped on the budget.  Most
    cases must be decided."""
    decided = []

    @given(cases)
    def run(case):
        g, text, *rest = case
        decided.append(prop(g, parse(text, g.agents), *rest))

    run()
    assert decided.count(True) >= 0.9 * len(decided)


def test_block_and_single_modes_agree_and_pool():
    def prop(g, f):
        with no_witnesses():
            block = check_within_budget(g, f)
            with unpooled():
                single = check_within_budget(g, f)
        if block is None or single is None:
            return False
        assert block[0] == single[0]
        assert block[1].stage_count() == fm.quantifier_block_rank(f)
        assert block[1].stage_count() <= single[1].stage_count()
        assert len(block[1].stages) <= len(single[1].stages)
        # projection trusts alternation removal to return an NPT
        for _, ctx in (block, single):
            assert all(is_npt(s["npt"]) for s in ctx.stages)
            # a priority and a row of transitions per state, one entry per letter
            for s in ctx.stages:
                for a in (s["apt"], s["npt"]):
                    assert len(a.priority) == len(a.trans)
                    assert all(len(row) == len(a.alphabet) for row in a.trans)
        return True

    check_property(prop, sentences(FIXTURES))


def test_negation_complements_the_verdict():
    # a top-level ! is decided by the checker itself, so the negation is put
    # under a binding of a fresh variable, where it is compiled: the binding
    # is vacuous, since the sentence !f does not read the agent
    def prop(g, f):
        neg = fm.Bind(g.agents[0], "z", fm.Not(f))
        pos, neg = (check_within_budget(g, h) for h in (f, neg))
        if pos is None or neg is None:
            return False
        assert neg[0] == (not pos[0])
        return True

    check_property(prop, sentences(FIXTURES))


@st.composite
def boolean_combinations(draw, models):
    """(model, text of a !, && and || combination of two sentences over it)."""
    g = draw(models)
    a, b = (formula_text(draw, g.agents, 3, [], kinds=["quantifier"]) for _ in range(2))
    neg = st.sampled_from(["", "!"])
    op = draw(st.sampled_from(["&&", "||"]))
    return g, f"{draw(neg)}({draw(neg)}({a}) {op} {draw(neg)}({b}))"


def agrees_with_the_exact_oracle(g, f):
    # with one action the oracle's memory-1 enumeration is exact
    got = check_within_budget(g, f)
    if got is None:
        return False
    res = oracle_check(g, f)
    assert res.confidence == EXACT
    assert got[0] == res.verdict
    return True


def test_single_action_models_agree_with_the_oracle():
    check_property(agrees_with_the_exact_oracle, sentences(SINGLE_ACTION_MODELS))


def test_boolean_combinations_agree_with_the_oracle():
    # the checker decides the top-level connectives and compiles each part
    check_property(agrees_with_the_exact_oracle, boolean_combinations(SINGLE_ACTION_MODELS))


def test_grades_are_monotone():
    # at least g + 1 witnesses include at least g
    def prop(g, body, grade):
        more, fewer = (
            check_within_budget(g, fm.ExistsGraded(("x",), fm.finite(k), body))
            for k in (grade + 1, grade)
        )
        if more is None or fewer is None:
            return False
        assert fewer[0] or not more[0]
        return True

    check_property(prop, graded_bodies(FIXTURES))


# ---------------------------------------------------------------------------
# the witness search on top-level graded blocks


def test_witness_search_agrees_with_the_g_copy_block():
    outcomes = []

    def prop(g, f):
        searched = check_within_budget(g, f)
        with no_witnesses():
            built = check_within_budget(g, f)
        if searched is None or built is None:
            return False
        assert searched[0] == built[0]
        outcomes.extend(r["outcome"] for r in searched[1].searches)
        return True

    check_property(prop, sentences(FIXTURES))
    assert {"decided", "fell back"} <= set(outcomes)


def test_candidates_are_the_memoryless_strategies():
    # every candidate satisfies `true`, so a search for more witnesses than
    # there are tries them all: one per memoryless behaviour on the
    # histories from the initial state, whose count is below
    # |actions| ** |states| where a random structure leaves a state
    # unreachable
    models = [make_cgs(random.Random(seed), 4, 1, 2) for seed in range(6)]
    models += [load_example("desk3"), load_example("toggle")]
    counts = []
    for g in models:
        with pytest.raises(ResourceBudgetError) as stop:
            check_sentence(parse("<<x>>^>=100000 true", g.agents), g)
        counts.append(len(enumerate_strategies(g, 1, 10**6, g.initial)))
        assert stop.value.context.searches[0]["tried"] == counts[-1]
    assert any(n < 2 ** len(g.states) for n, g in zip(counts, models))


@pytest.mark.parametrize("model, objectives", [
    ("desk3", "desk3_obj"), ("desk3", "desk3_next_obj"), ("single", "single_obj"),
])
def test_unique_ne_witnesses_pass_the_oracle(model, objectives):
    g = load_example(model)
    with open(os.path.join(DATA, f"{objectives}.json")) as fh:
        objs = load_objectives(json.load(fh), g)
    xvars = [f"x{i + 1}" for i in range(len(g.agents))]
    yvars = [f"y{i + 1}" for i in range(len(g.agents))]
    body = ne_formula_general(list(g.agents), xvars, yvars, objs)
    _, ctx = check_sentence(uniqueness_formula(xvars, body), g)
    witnesses = [w for r in ctx.searches for w in r["witnesses"]]
    assert witnesses
    for w in witnesses:
        assert oracle_check(g, body, assignment=w).verdict is True


def test_equal_bodies_compile_once():
    # both parts of a uniqueness sentence read the same body: the second
    # lists the first's stages again without building them
    g = load_example("desk3")
    with open(os.path.join(DATA, "desk3_next_obj.json")) as fh:
        objs = load_objectives(json.load(fh), g)
    body = ne_formula_general(list(g.agents), ["x1", "x2"], ["y1", "y2"], objs)
    with no_witnesses():
        holds, ctx = check_sentence(uniqueness_formula(["x1", "x2"], body), g)
    assert holds is False and len(ctx.stages) == 4
    assert ctx.stages[2] is ctx.stages[0]


def test_the_two_agent_ring_builds_no_candidate(monkeypatch):
    # 2 ** 13 candidates x 13 nodes is over the budget before phi's states
    g = load_cgs(ring_model(13, ("a0", "a1")))
    built = []
    monkeypatch.setattr(compiler, "memoryless", lambda *args: built.append(args))
    holds, ctx = check_sentence(parse("<<x>>^>=1 [[y]]^<1 (a0,x) (a1,y) F p", g.agents), g)
    assert holds is False and not built
    assert ctx.searches == [
        {"grade": 1, "tried": 0, "witnesses": [], "outcome": "skipped (over the budget)"},
    ]


def test_witness_search_under_an_assignment_with_memory():
    # the candidates' trees follow a two-state machine for the free z
    rng = random.Random(5)
    outcomes = []
    for _ in range(10):
        g = make_cgs(rng, 3, 2, 2)
        cells = [(m, q) for m in (0, 1) for q in g.states]
        z = FiniteStrategy((0, 1), 0, {c: rng.choice((0, 1)) for c in cells},
                           {c: rng.choice(g.actions) for c in cells})
        for text in ["<<y>>^>={} (a0,z)(a1,y) F p", "<<y>>^>={} (a0,y)(a1,z) G !p"]:
            for k in (1, 2):
                f = parse(text.format(k), g.agents)
                searched, ctx = check_assignment(f, g, {"z": z})
                with no_witnesses():
                    assert check_assignment(f, g, {"z": z})[0] == searched, (text, k)
                outcomes.extend(r["outcome"] for r in ctx.searches)
    assert {"decided", "fell back"} <= set(outcomes)
