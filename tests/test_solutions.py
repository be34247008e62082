"""Tests for objective loading and the equilibrium/uniqueness formula
builders.

Oracle notes:
- [TRIVIAL] gd sets and eta conjunctions on small payoff tables are written
  out by hand.
- [DERIVED] built formulas are re-parsed and structurally compared against
  hand-assembled ASTs.
"""

import pytest

from gslmc import formula as fm
from gslmc.cgs import load_cgs
from gslmc.errors import ModelError
from gslmc.solutions import (
    ObjectiveTuple,
    bind_all,
    eta_formula,
    gd_set,
    is_ltl,
    load_objectives,
    ne_formula_general,
    spe_formula,
    uniqueness_formula,
    winning_count_formula,
)

from conftest import TOGGLE, SINGLE_ACTION


def parse(text, agents=("a0", "a1")):
    return fm.parse_formula(text, set(agents))


FP = parse("F p")
GQ = parse("G q", ("a0",))


class TestIsLtl:
    def test_temporal_boolean_accepted(self):
        assert is_ltl(parse("p U (q && X !p)"))

    def test_quantifier_rejected(self):
        assert not is_ltl(parse("<<x>>^>=1 p"))

    def test_binding_rejected(self):
        assert not is_ltl(parse("(a0,x) F p"))


class TestObjectiveTuple:
    def test_valid(self):
        ObjectiveTuple((FP,), {"1": 2, "0": 0})

    def test_payoff_table_must_be_total(self):
        with pytest.raises(ModelError):
            ObjectiveTuple((FP,), {"1": 1})

    def test_goals_must_be_ltl(self):
        with pytest.raises(ModelError):
            ObjectiveTuple((parse("<<x>>^>=1 p"),), {"1": 1, "0": 0})

    def test_goal_cap(self):
        goals = tuple(FP for _ in range(9))
        payoff = {format(v, "09b"): 0 for v in range(2**9)}
        with pytest.raises(ModelError):
            ObjectiveTuple(goals, payoff)


class TestLoadObjectives:
    def test_round_trip(self):
        g = load_cgs(SINGLE_ACTION)
        doc = {
            "agents": {
                "a0": {"goals": ["F p"], "payoff": {"1": 1, "0": -1}},
                "a1": {"goals": ["F p"], "payoff": {"1": -1, "0": 1}},
            }
        }
        objs = load_objectives(doc, g)
        assert set(objs) == {"a0", "a1"}
        assert objs["a0"].goals == (parse("F p", g.agents),)

    def test_agents_must_match(self):
        g = load_cgs(TOGGLE)
        with pytest.raises(ModelError):
            load_objectives({"agents": {"zz": {"goals": [], "payoff": {"": 0}}}}, g)


class TestGdEta:
    def test_gd_set_orders_by_payoff(self):
        obj = ObjectiveTuple((FP, FP), {"11": 2, "10": 1, "01": 1, "00": 0})
        # [TRIVIAL] at-least-as-good-as "10" means payoff >= 1
        assert gd_set(obj, "10") == ("01", "10", "11")
        assert gd_set(obj, "00") == ("00", "01", "10", "11")
        assert gd_set(obj, "11") == ("11",)

    def test_eta_is_the_signed_goal_conjunction(self):
        obj = ObjectiveTuple((FP, GQ), {"11": 1, "10": 0, "01": 0, "00": 0})
        f = eta_formula(obj, "10")
        assert f == fm.f_and(FP, fm.Not(GQ))


class TestBuilders:
    def test_bind_all_nests_left_to_right(self):
        f = bind_all(("a0", "a1"), ("x0", "x1"), fm.Atom("p"))
        assert f == fm.Bind("a0", "x0", fm.Bind("a1", "x1", fm.Atom("p")))

    def test_winlose_ne_shape(self):
        # with one win/lose goal per agent, the only pattern that constrains
        # is the winning one: a winning deviation implies the profile wins
        goals = (parse("F p"), parse("G q"))
        objs = {a: ObjectiveTuple((g,), {"1": 1, "0": -1}) for a, g in zip(("a0", "a1"), goals)}
        f = ne_formula_general(("a0", "a1"), ("x0", "x1"), ("y0", "y1"), objs)
        expected = fm.forall_graded(
            ("y0",),
            fm.finite(1),
            fm.forall_graded(
                ("y1",),
                fm.finite(1),
                fm.f_and(
                    fm.f_implies(
                        bind_all(("a0", "a1"), ("y0", "x1"), goals[0]),
                        bind_all(("a0", "a1"), ("x0", "x1"), goals[0]),
                    ),
                    fm.f_implies(
                        bind_all(("a0", "a1"), ("x0", "y1"), goals[1]),
                        bind_all(("a0", "a1"), ("x0", "x1"), goals[1]),
                    ),
                ),
            ),
        )
        assert f == expected

    def test_an_agent_who_wins_when_its_goal_fails_binds_the_negated_goal(self):
        # pennies' a1 pays 1 when X p fails: both the deviation side and the
        # profile side read !goal
        goal = parse("X p")
        objs = {
            "a0": ObjectiveTuple((goal,), {"1": 1, "0": -1}),
            "a1": ObjectiveTuple((goal,), {"1": -1, "0": 1}),
        }
        f = ne_formula_general(("a0", "a1"), ("x0", "x1"), ("y0", "y1"), objs)
        expected = fm.forall_graded(
            ("y0",),
            fm.finite(1),
            fm.forall_graded(
                ("y1",),
                fm.finite(1),
                fm.f_and(
                    fm.f_implies(
                        bind_all(("a0", "a1"), ("y0", "x1"), goal),
                        bind_all(("a0", "a1"), ("x0", "x1"), goal),
                    ),
                    fm.f_implies(
                        bind_all(("a0", "a1"), ("x0", "y1"), fm.Not(goal)),
                        bind_all(("a0", "a1"), ("x0", "x1"), fm.Not(goal)),
                    ),
                ),
            ),
        )
        assert f == expected

    def test_general_ne_reduces_to_winlose_on_binary_payoffs(self):
        # with a single win/lose goal per agent, the only non-trivial
        # deviation pattern is the winning one, so the general form carries
        # the same implication per agent
        goals = (parse("F p"), parse("F p"))
        objs = {
            "a0": ObjectiveTuple((goals[0],), {"1": 1, "0": -1}),
            "a1": ObjectiveTuple((goals[1],), {"1": 1, "0": -1}),
        }
        f = ne_formula_general(("a0", "a1"), ("x0", "x1"), ("y0", "y1"), objs)
        # strip the two universal quantifiers, inspect the conjunction
        body = f
        for _ in range(2):
            assert isinstance(body, fm.Not)
            inner = body.sub
            assert isinstance(inner, fm.ExistsGraded)
            body = inner.sub
            assert isinstance(body, fm.Not)
            body = body.sub
        # each agent's deviation variable must appear in the body
        text = fm.print_formula(f)
        assert "y0" in text and "y1" in text and "x0" in text and "x1" in text

    def test_general_ne_trivial_patterns_omitted(self):
        obj = ObjectiveTuple((FP,), {"1": 1, "0": 1})  # constant payoff
        objs = {"a0": obj}
        f = ne_formula_general(("a0",), ("x0",), ("y0",), objs)
        # every pattern is trivially covered; the body is just truth
        body = f
        assert isinstance(body, fm.Not)  # forall is not-exists-not
        inner = body.sub.sub
        assert isinstance(inner, fm.Not)
        assert inner.sub == fm.f_true()

    def test_spe_wraps_globally_under_fresh_profile(self):
        ne = fm.Atom("p")
        f = spe_formula(("a0",), ("z0",), ne)
        expected = fm.forall_graded(
            ("z0",), fm.finite(1), fm.Bind("a0", "z0", fm.f_globally(fm.Atom("p")))
        )
        assert f == expected

    def test_uniqueness_is_one_but_not_two(self):
        phi = fm.Atom("p")
        f = uniqueness_formula(("x",), phi)
        assert f == fm.f_and(
            fm.ExistsGraded(("x",), fm.finite(1), phi),
            fm.Not(fm.ExistsGraded(("x",), fm.finite(2), phi)),
        )

    def test_winning_count_shape(self):
        goal = parse("F p")
        f = winning_count_formula(2, "a0", ("a1",), "x", ("y",), goal)
        body = bind_all(("a0", "a1"), ("x", "y"), goal)
        at_least = lambda g: fm.ExistsGraded(
            ("x",), fm.finite(g), fm.forall_graded(("y",), fm.finite(1), body)
        )
        assert f == fm.f_and(at_least(2), fm.Not(at_least(3)))

    def test_built_formulas_reparse(self):
        goals = (parse("F p"), parse("G q"))
        objs = {a: ObjectiveTuple((g,), {"1": 1, "0": -1}) for a, g in zip(("a0", "a1"), goals)}
        f = ne_formula_general(("a0", "a1"), ("x0", "x1"), ("y0", "y1"), objs)
        u = uniqueness_formula(("x0", "x1"), f)
        text = fm.print_formula(u)
        assert fm.parse_formula(text, {"a0", "a1"}) == u
