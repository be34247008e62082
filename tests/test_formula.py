import gc
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gslmc import formula as fm
from gslmc.errors import ParseError

AG = {"a"}
AG2 = {"a", "b"}


def parse(text, agents=AG):
    return fm.parse_formula(text, agents)


class TestParsing:
    def test_graded_exists_with_shorthand_goal(self):
        f = parse("<<x>>^>=2 (a,x) F p")
        assert f == fm.ExistsGraded(
            ("x",), fm.finite(2), fm.Bind("a", "x", fm.Until(fm.f_true(), fm.Atom("p")))
        )

    def test_universal_desugars_by_definition(self):
        f = parse("[[x]]^<1 p")
        assert f == fm.Not(fm.ExistsGraded(("x",), fm.finite(1), fm.Not(fm.Atom("p"))))

    def test_duplicate_tuple_variable_rejected(self):
        with pytest.raises((ParseError, ValueError)):
            parse("<<x,x>>^>=1 p")

    def test_omitted_grade_defaults(self):
        assert parse("<<x>> p") == parse("<<x>>^>=1 p")
        assert parse("[[x]] p") == parse("[[x]]^<1 p")

    def test_precedence(self):
        f = parse("p U q && r -> s", {"a"} | set())
        # -> binds loosest, && next, U tightest of the binary trio
        assert isinstance(f, fm.Or)  # implication is !lhs || rhs

    def test_until_right_associative(self):
        f = parse("p U q U r")
        assert f == fm.Until(fm.Atom("p"), fm.Until(fm.Atom("q"), fm.Atom("r")))

    def test_binding_vs_parenthesis(self):
        f = parse("(a,x) X p", AG2)
        assert isinstance(f, fm.Bind)
        g = parse("(p || q)", AG2)
        assert isinstance(g, fm.Or)

    def test_infinite_grades_parse(self):
        for word, grade in [
            ("aleph0", fm.ALEPH0),
            ("aleph1", fm.ALEPH1),
            ("cont", fm.CONTINUUM),
        ]:
            f = parse(f"<<x>>^>={word} p")
            assert f.grade == grade
            assert not fm.grades_all_finite(f)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError):
            parse("<<x>>^>= p")

    def test_unknown_token(self):
        with pytest.raises(ParseError):
            parse("p $ q")

    def test_tt_is_an_atom_and_true_false_are_constants(self):
        # the printer spells true as (tt || !tt), so tt must stay an atom
        assert parse("tt") == fm.Atom("tt")
        assert parse("true") == fm.f_true()
        assert parse("false") == fm.f_false()


TOKENS = [
    "<<", ">>", "[[", "]]", "^>=", "^<", "&&", "||", "->", "(", ")", ",", "!",
    "X", "F", "G", "U", "true", "false", "tt", "aleph0", "cont", "0", "2",
    "p", "x", "a", "b", "$", "^", "-",
]


@given(st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(["", " "])), max_size=30))
def test_parse_returns_a_formula_or_raises_parse_error(tokens):
    text = "".join(tok + gap for tok, gap in tokens)
    try:
        f = parse(text, AG2)
    except ParseError:
        return
    assert isinstance(f, fm.Formula)


class TestPrinting:
    def test_atom(self):
        assert fm.print_formula(fm.Atom("p")) == "p"

    def test_simple_quantifier(self):
        assert fm.print_formula(fm.ExistsGraded(("x",), fm.finite(1), fm.Atom("p"))) == (
            "<<x>>^>=1 p"
        )

    def test_round_trip_random_asts(self):
        rng = random.Random(5)
        names = ["p", "q"]
        variables = ["x", "y", "z"]

        def gen(depth):
            k = rng.randrange(7) if depth > 0 else 0
            if k == 0:
                return fm.Atom(rng.choice(names))
            if k == 1:
                return fm.Not(gen(depth - 1))
            if k == 2:
                return fm.Or(gen(depth - 1), gen(depth - 1))
            if k == 3:
                return fm.Next(gen(depth - 1))
            if k == 4:
                return fm.Until(gen(depth - 1), gen(depth - 1))
            if k == 5:
                vs = tuple(rng.sample(variables, rng.randint(1, 2)))
                return fm.ExistsGraded(vs, fm.finite(rng.randint(0, 3)), gen(depth - 1))
            return fm.Bind("a", rng.choice(variables), gen(depth - 1))

        for _ in range(1000):
            f = gen(3)
            assert fm.parse_formula(fm.print_formula(f), AG) == f


class TestFreePlaceholders:
    def test_next_adds_all_agents(self):
        f = parse("X p", AG2)
        assert fm.free_placeholders(f, AG2) == {"a", "b"}

    def test_binding_removes_agent_adds_var(self):
        f = parse("(a,x) X p", AG2)
        assert fm.free_placeholders(f, AG2) == {"b", "x"}

    def test_atom_has_none(self):
        assert fm.free_placeholders(fm.Atom("p"), AG2) == set()

    def test_redundant_binding_keeps_free_set(self):
        # binding an agent that is not free leaves the set unchanged
        f = fm.Bind("a", "x", fm.Atom("p"))
        assert fm.free_placeholders(f, AG2) == set()

    def test_quantifier_removes_tuple(self):
        f = parse("<<x,y>>^>=1 (a,x) (b,y) X p", AG2)
        assert fm.free_placeholders(f, AG2) == set()

    def test_walk_leaves_nothing_to_the_cyclic_collector(self):
        f = parse("<<x>>^>=1 (a,x) ((b,x) X p U <<y>> (b,y) F !p)", AG2)
        gc.collect()
        gc.disable()
        try:
            assert fm.free_placeholders(f, AG2) == {"b"}  # the until reads b
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_double_implementation_agreement(self):
        # independent re-statement of the defining clauses
        def free2(f, agents):
            if isinstance(f, fm.Atom):
                return frozenset()
            if isinstance(f, fm.Not):
                return free2(f.sub, agents)
            if isinstance(f, fm.Or):
                return free2(f.left, agents) | free2(f.right, agents)
            if isinstance(f, fm.Next):
                return frozenset(agents) | free2(f.sub, agents)
            if isinstance(f, fm.Until):
                return (
                    frozenset(agents)
                    | free2(f.left, agents)
                    | free2(f.right, agents)
                )
            if isinstance(f, fm.ExistsGraded):
                return free2(f.sub, agents) - frozenset(f.vars)
            inner = free2(f.sub, agents)
            if f.agent in inner:
                return (inner - {f.agent}) | {f.var}
            return inner

        rng = random.Random(9)
        texts = [
            "X p", "(a,x) X p", "(b,y) (a,x) p U q", "<<x>>^>=2 (a,x) X p",
            "<<x,y>>^>=1 (a,x) (b,y) G p", "[[z]]^<2 (a,z) F q",
            "p || <<x>>^>=1 (a,x) X q", "!(a,x) X p",
        ]
        for _ in range(1000):
            t = rng.choice(texts)
            f = parse(t, AG2)
            assert fm.free_placeholders(f, AG2) == free2(f, AG2)


class TestFragment:
    def test_rank_two_example(self):
        # prefix quantifier over a conjunction of depth-1 quantified goals
        text = (
            "<<x>>^>=2 (a,x) "
            "((<<y>>^>=1 (a,y) X p) -> (a,x) X p)"
        )
        f = parse(text)
        assert fm.quantifier_rank(f) == 2

    def test_alternation_prefix_switches(self):
        f = parse("<<x>> <<y>> [[z]] <<w>> (a,x) X p")
        prefix, _ = fm.strip_prefix(f)
        kinds = [k for k, _, _ in prefix]
        assert kinds == ["E", "E", "A", "E"]
        assert sum(1 for u, v in zip(kinds, kinds[1:]) if u != v) == 2

    def test_atom_ranks_zero(self):
        r = fm.analyze_fragment(fm.Atom("p"), AG)
        assert (r.quantifier_rank, r.quantifier_block_rank, r.alternation_number) == (
            0,
            0,
            0,
        )

    def test_block_rank_counts_desugared_universal_chain(self):
        f = parse("<<x,y>>^>=1 [[u]]^<1 [[v]]^<1 (a,x) X p")
        assert fm.quantifier_block_rank(f) == 2
        assert fm.quantifier_rank(f) == 3

    def test_one_goal_sentence(self):
        f = parse("<<x>>^>=1 (a,x) F p")
        r = fm.analyze_fragment(f, AG)
        assert r.is_sentence and r.is_nested_goal and r.is_one_goal
        assert r.alternation_number == 0

    def test_block_rank_never_exceeds_rank(self):
        rng = random.Random(3)
        for _ in range(200):
            parts = []
            for _ in range(rng.randint(1, 3)):
                q = rng.choice(["<<{v}>>^>=1 ", "[[{v}]]^<1 "])
                parts.append(q.format(v=rng.choice("xyzuvw") + str(rng.randrange(99))))
            f = parse("".join(parts) + "(a,x0) X p", AG)
            assert fm.quantifier_block_rank(f) <= fm.quantifier_rank(f)

    @pytest.mark.parametrize(
        "text, nested_goal, one_goal, finite",
        [
            # the inner block leaves the agent free
            ("<<z>> (a0,z) <<x>> X p", False, False, True),
            ("p || <<z>> (a0,z) <<x>> X p", False, False, True),
            # a goal that does not bind every agent at once
            ("<<x>> ((a0,x) X p || (a0,x) X !p)", True, False, True),
            ("<<x>> (a0,x) (p || (a0,x) X p)", True, False, True),
            ("p || <<x>> ((a0,x) X p || (a0,x) X !p)", True, False, True),
            ("p || <<x>>^>=aleph0 (a0,x) X p", True, True, False),
        ],
    )
    def test_fragment_rejections(self, text, nested_goal, one_goal, finite):
        r = fm.analyze_fragment(parse(text, {"a0"}), {"a0"})
        assert r.is_sentence
        assert (r.is_nested_goal, r.is_one_goal, r.grades_all_finite) == (
            nested_goal, one_goal, finite)

    def test_sentencehood_gates_nested_goal(self):
        f = parse("(a,x) X p", AG)
        r = fm.analyze_fragment(f, AG)
        assert not r.is_sentence and not r.is_nested_goal
        assert r.alternation_number is None
