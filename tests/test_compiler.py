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

from gslmc import formula as fm
from gslmc.cgs import load_cgs, FiniteStrategy
from gslmc.compiler import check_sentence, check_assignment, compile_formula
from gslmc.errors import ModelError, ResourceBudgetError, UnsupportedGradeError
from gslmc.oracle import oracle_check, EXACT

from conftest import make_cgs, TOGGLE, SINGLE_ACTION


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
    def test_block_and_single_modes_agree(self, toggle):
        texts = [
            "<<x>>^>=1 (a0,x) X p",
            "<<x>>^>=2 (a0,x) F p",
            "[[x]]^<2 (a0,x) X p",
            "<<x>>^>=1 <<y>>^>=1 ((a0,x) X p || (a0,y) X !p)",
        ]
        for t in texts:
            f = parse(t, toggle.agents)
            v_block = check_sentence(f, toggle, mode="block")[0]
            v_single = check_sentence(f, toggle, mode="single")[0]
            assert v_block == v_single, t

    def test_pooled_block_removes_alternation_once(self, toggle):
        f = parse("<<x,y>>^>=1 ((a0,x) X p || (a0,y) X !p)", toggle.agents)
        _, _, ctx = compile_formula(f, toggle, mode="block")
        assert len(ctx.stages) == 1
        assert ctx.stage_count() == 1

    def test_nested_blocks_count_by_depth(self, single):
        # existential block around a universal block: two nested removals
        f = parse("<<x>>^>=1 [[y]]^<1 ((a0,x)(a1,y) X p)", single.agents)
        _, _, ctx = compile_formula(f, single, mode="block")
        assert ctx.stage_count() == 2

    def test_infinite_grade_rejected(self, toggle):
        f = parse("<<x>>^>=aleph0 (a0,x) X p", toggle.agents)
        with pytest.raises(UnsupportedGradeError):
            compile_formula(f, toggle)


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


@st.composite
def sentences(draw):
    """(model name, sentence text) over toggle or pennies: a quantifier at
    the top, at most two nested, grades 0-2, and every temporal operator
    under bindings of all agents."""
    name = draw(st.sampled_from(sorted(MODELS)))
    agents = MODELS[name].agents

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

    return name, formula(4, [], kinds=["quantifier"])


def check_within_budget(name, f, mode):
    """(verdict, context), or None when the check stops on the budget."""
    try:
        return check_sentence(f, MODELS[name], mode=mode, budget=3000)
    except ResourceBudgetError:
        return None


def check_property(prop):
    """Run prop over the drawn sentences; it returns False when a check
    stopped on the budget.  Most sentences must be decided."""
    decided = []

    @given(sentences())
    def run(case):
        name, text = case
        decided.append(prop(name, fm.parse_formula(text, set(MODELS[name].agents))))

    run()
    assert decided.count(True) >= 0.9 * len(decided)


def test_block_and_single_modes_agree_and_pool():
    def prop(name, f):
        block, single = (check_within_budget(name, f, mode) for mode in ("block", "single"))
        if block is None or single is None:
            return False
        assert block[0] == single[0]
        assert block[1].stage_count() == fm.quantifier_block_rank(f)
        assert block[1].stage_count() <= single[1].stage_count()
        assert len(block[1].stages) <= len(single[1].stages)
        return True

    check_property(prop)


def test_negation_complements_the_verdict():
    def prop(name, f):
        pos, neg = (check_within_budget(name, g, "block") for g in (f, fm.Not(f)))
        if pos is None or neg is None:
            return False
        assert neg[0] == (not pos[0])
        return True

    check_property(prop)
