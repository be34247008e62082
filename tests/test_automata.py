import gc
import itertools
import random

import pytest

from gslmc import posbool as pb
from gslmc.automata import (
    Apt,
    RegularTree,
    accept_all,
    conjoin,
    disjoin,
    distinctness_apt,
    dualize,
    encoding_tree,
    is_npt,
    member,
    membership_game,
    project,
    relabel,
    simplify,
)
from gslmc.cgs import load_cgs
from gslmc.determinize import DEFAULT_BUDGET
from conftest import TOGGLE


def random_posbool(rng, dirs, nq, depth=2):
    r = rng.random()
    if depth == 0 or r < 0.35:
        return pb.atom((rng.choice(dirs), rng.randrange(nq)))
    if r < 0.42:
        return pb.TRUE
    if r < 0.47:
        return pb.FALSE
    kids = [random_posbool(rng, dirs, nq, depth - 1) for _ in range(rng.randint(2, 3))]
    return (pb.conj if rng.random() < 0.5 else pb.disj)(kids)


def random_apt(rng, max_states=4, max_pr=3, alpha=(0, 1), dirs=(0, 1)):
    nq = rng.randint(1, max_states)
    trans = [tuple([random_posbool(rng, dirs, nq) for _ in alpha]) for _ in range(nq)]
    prio = tuple(rng.randrange(max_pr) for _ in range(nq))
    return Apt(tuple(alpha), tuple(dirs), 0, trans, prio)


def reject_all(alphabet, directions):
    return Apt(tuple(alphabet), tuple(directions), 0, [(pb.FALSE,) * len(alphabet)], (0,))


def random_tree(rng, alpha, dirs, max_nodes=3):
    n = rng.randint(1, max_nodes)
    letters = {i: rng.choice(alpha) for i in range(n)}
    children = {(i, d): rng.randrange(n) for i in range(n) for d in dirs}
    return RegularTree(letters, children, 0)


class TestBooleanOperations:
    def test_dualize_complements_membership(self, rng):
        for _ in range(30):
            a = random_apt(rng)
            for _ in range(10):
                t = random_tree(rng, a.alphabet, a.directions)
                assert member(a, t) != member(dualize(a), t)

    def test_conjoin_disjoin_membership(self, rng):
        for _ in range(40):
            parts = [random_apt(rng) for _ in range(rng.randint(1, 4))]
            t = random_tree(rng, parts[0].alphabet, parts[0].directions)
            ms = [member(a, t) for a in parts]
            assert member(conjoin(parts), t) == all(ms)
            assert member(disjoin(parts), t) == any(ms)

    def test_conjoin_walks_each_copy_once(self, monkeypatch):
        # a fold of two-part joins re-walks every transition built so far,
        # quadratic in k; the n-ary join walks each copy once
        calls = [0]
        map_atoms = pb.map_atoms

        def counted(f, fn, memo):
            calls[0] += 1
            return map_atoms(f, fn, memo)

        monkeypatch.setattr(pb, "map_atoms", counted)
        rng = random.Random(7)
        a = random_apt(rng, max_states=4)

        def walks(k):
            calls[0] = 0
            conjoin([a] * k)
            return calls[0]

        assert walks(40) <= 2.2 * walks(20)

    def test_accept_and_reject_all(self, rng):
        acc = accept_all((0, 1), (0, 1))
        rej = reject_all((0, 1), (0, 1))
        for _ in range(5):
            t = random_tree(rng, (0, 1), (0, 1))
            assert member(acc, t) and not member(rej, t)

    @pytest.mark.parametrize("op", [conjoin, disjoin])
    def test_combining_reads_letters_in_any_order(self, op):
        a = accept_all((0, 1), (0, 1))
        assert op([a, accept_all((1, 0), (1, 0))]).n_states == 3

    def test_relabel_reads_through_mapping(self, rng):
        a = random_apt(rng, alpha=(0, 1))
        b = relabel(a, ("x", "y"), lambda s: 0 if s == "x" else 1)
        for _ in range(10):
            t = random_tree(rng, ("x", "y"), a.directions)
            t0 = RegularTree(
                {n: (0 if v == "x" else 1) for n, v in t.letters.items()},
                t.children,
                t.root,
            )
            assert member(b, t) == member(a, t0)


class TestSimplify:
    def test_membership_preserved(self, rng):
        for _ in range(20):
            a = random_apt(rng)
            s = simplify(a, DEFAULT_BUDGET)
            assert s.n_states <= a.n_states
            for _ in range(10):
                t = random_tree(rng, a.alphabet, a.directions)
                assert member(a, t) == member(s, t)


class TestDistinctness:
    def _all_small_trees(self, alphabet, dirs):
        """Every labeled tree presented by a generator with <= 2 nodes."""
        for n in (1, 2):
            nodes = list(range(n))
            for letters in itertools.product(alphabet, repeat=n):
                child_cells = [(i, d) for i in nodes for d in dirs]
                for targets in itertools.product(nodes, repeat=len(child_cells)):
                    children = dict(zip(child_cells, targets))
                    yield RegularTree(dict(enumerate(letters)), children, 0)

    def test_exhaustive_against_depth_bounded_scan(self):
        # one pair of copies over a single variable each; full-tree walkers
        dirs = ("d0", "d1")
        alphabet = tuple(
            ((("u", au), ("v", av)), "s") for au in "ab" for av in "ab"
        )
        grid = (("u",), ("v",))
        apt = distinctness_apt(grid, alphabet, dirs, lambda letter: dirs)
        for tree in self._all_small_trees(alphabet, dirs):
            # brute-force: difference must appear within |gen|^2 depth
            found = False
            frontier = [tree.root]
            for _depth in range(len(tree.letters) ** 2 + 1):
                nxt = []
                for node in frontier:
                    val = dict(tree.letter(node)[0])
                    if val["u"] != val["v"]:
                        found = True
                    nxt.extend(tree.child(node, d) for d in dirs)
                frontier = nxt
                if found:
                    break
            assert member(apt, tree) == found

    def test_restricted_directions_hide_witnesses(self):
        # difference exists only in a direction the walker may not take
        dirs = ("d0", "d1")
        alphabet = tuple(((("u", au), ("v", av)), "s") for au in "ab" for av in "ab")
        same = ((("u", "a"), ("v", "a")), "s")
        diff = ((("u", "a"), ("v", "b")), "s")
        letters = {0: same, 1: diff}
        children = {(0, "d0"): 0, (0, "d1"): 1, (1, "d0"): 1, (1, "d1"): 1}
        tree = RegularTree(letters, children, 0)
        free = distinctness_apt((("u",), ("v",)), alphabet, dirs, lambda letter: dirs)
        caged = distinctness_apt((("u",), ("v",)), alphabet, dirs, lambda letter: ("d0",))
        assert member(free, tree)
        assert not member(caged, tree)


class TestProjection:
    def test_requires_npt_shape(self, rng):
        alphabet = (((("x", "a"),), "s"), ((("x", "b"),), "s"))
        trans = [(pb.conj([pb.atom(("d0", 0)), pb.atom(("d0", 0))]),) * len(alphabet)]
        a = Apt(alphabet, ("d0",), 0, trans, (0,))
        assert is_npt(a)
        alternating = Apt(
            alphabet,
            ("d0", "d1"),
            0,
            [(pb.atom(("d0", 0)),) * len(alphabet)],
            (0,),
        )
        # project does not check the shape: its input is alternation
        # removal's output, which tests/test_determinize.py pins as an NPT
        assert not is_npt(alternating)

    def test_npt_shape_is_syntactic(self):
        alphabet = ("l",)
        dirs = ("d0", "d1")

        def apt(f):
            return Apt(alphabet, dirs, 0, [(f,), (f,)], (0, 1))

        a0, a1, b0, b1 = (pb.atom(m) for m in [("d0", 0), ("d0", 1), ("d1", 0), ("d1", 1)])
        assert is_npt(apt(pb.TRUE)) and is_npt(apt(pb.FALSE))
        assert is_npt(apt(pb.disj([pb.conj([a0, b0]), pb.conj([a1, b1])])))
        assert not is_npt(apt(a0))  # no move along d1
        assert not is_npt(apt(pb.conj([a0, a1, b0])))  # two moves along d0
        # equivalent to (a0 & b0) | (a0 & b1), but nested: alternating
        assert not is_npt(apt(pb.conj([a0, pb.disj([b0, b1])])))

    def test_projection_soundness_on_memoryless_witnesses(self, rng):
        # if some per-node relabeling is accepted, the projection accepts;
        # if the projection rejects, no relabeling is accepted.  (Witnesses
        # beyond generator-constant labelings are not enumerated here.)
        dirs = ("d0", "d1")
        alphabet = tuple(((("x", ax),), s) for ax in "ab" for s in ("s0", "s1"))
        plain = tuple(((), s) for s in ("s0", "s1"))
        for _ in range(15):
            nq = rng.randint(1, 3)
            trans = []
            for _q in range(nq):
                row = []
                for _letter in alphabet:
                    models = []
                    for _k in range(rng.randint(1, 2)):
                        models.append(
                            pb.conj([pb.atom((d, rng.randrange(nq))) for d in dirs])
                        )
                    row.append(pb.disj(models))
                trans.append(tuple(row))
            a = Apt(alphabet, dirs, 0, trans, tuple(rng.randrange(3) for _ in range(nq)))
            assert is_npt(a)
            p = project(a, ("x",))
            t = random_tree(rng, plain, dirs, max_nodes=2)
            projected = member(p, t)
            witnessed = False
            for assign in itertools.product("ab", repeat=len(t.letters)):
                letters = {
                    n: ((("x", assign[i]),), t.letter(n)[1])
                    for i, n in enumerate(t.letters)
                }
                if member(a, RegularTree(letters, t.children, t.root)):
                    witnessed = True
                    break
            if witnessed:
                assert projected
            if not projected:
                assert not witnessed


class TestMembershipGame:
    def test_building_leaves_nothing_to_the_cyclic_collector(self, rng):
        # the game's lists are freed when it is dropped, not at the next
        # collection, so peak memory follows live data
        gc.collect()
        gc.disable()
        sizes = []
        try:
            for _ in range(20):
                a = random_apt(rng)
                game, _ = membership_game(a, random_tree(rng, a.alphabet, a.directions))
                sizes.append(game.n)
                del game
                assert gc.collect() == 0
        finally:
            gc.enable()
        # a lone atom looping at the root is a one-vertex game, but not all are
        assert max(sizes) > 1


class TestUnwinding:
    def test_unwinding_labels_follow_states(self):
        cgs = load_cgs(TOGGLE)
        # the empty assignment's encoding is the unwinding a sentence is checked on
        t = encoding_tree(cgs, {})
        assert t.letter(t.root) == ((), "s0")
        s1 = t.child(t.root, "s1")
        assert t.letter(s1) == ((), "s1")
        assert t.child(s1, "s0") == t.root
