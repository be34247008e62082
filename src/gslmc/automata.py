"""Alternating and nondeterministic parity tree automata.

An automaton runs on full Delta-branching Sigma-labeled trees.  Transition
formulas are positive Boolean formulas over moves (direction, state); states
are integers 0..n-1; acceptance is a min-parity priority function.

Transitions and priorities are per-state rows, in state order, and the
state count n is their length.  `trans[q]` is a tuple holding state q's
transition on each letter in alphabet order, `trans[q][i]` the one on
`alphabet[i]`; `priority[q]` is state q's priority.

Trees are presented by finite generators (RegularTree): a total transducer
assigning every node a letter and a child node per direction.

Every composed automaton is built by the one n-ary `join`, in one pass over
its parts: the boolean operations, the compiler's X and U, and each graded
level.  `join` is the only code that offsets state numbers.
"""

from collections import deque
from dataclasses import dataclass

from gslmc import posbool as pb
from gslmc.errors import ResourceBudgetError
from gslmc.paritygame import ParityGame, solve_zielonka, VERIFIER


@dataclass
class Apt:
    alphabet: tuple
    directions: tuple
    initial: int
    # one row per state, in state order: a tuple of the state's transitions,
    # posbool over (direction, state) moves, on the letters in alphabet order
    trans: list
    priority: tuple  # one nat per state, in state order

    @property
    def n_states(self):
        """The number of states: the length of the per-state rows."""
        return len(self.trans)


def accept_all(alphabet, directions):
    """One-state automaton accepting every tree (all branches die at once)."""
    return Apt(tuple(alphabet), tuple(directions), 0, [(pb.TRUE,) * len(alphabet)], (0,))


# ---------------------------------------------------------------------------
# boolean operations


def dualize(a):
    """Complement: swap and/or and true/false, shift priorities by 1."""
    memo = {}
    trans = [tuple([pb.dual(f, memo) for f in row]) for row in a.trans]
    priority = tuple([p + 1 for p in a.priority])
    return Apt(a.alphabet, a.directions, a.initial, trans, priority)


def join(parts, fresh, fresh_priority):
    """The parts side by side in one pass, each part's states after those
    of the parts before it, plus one fresh initial state after them all.
    The first part keeps its state numbers and its transitions as they are.
    The fresh state's transition on each letter is fresh(letter, firsts, q),
    where firsts are the parts' initial transitions on that letter, in
    order, and q is the fresh state's number.  All parts read the same
    alphabet and directions: the compiler lifts every operand to one
    alphabet over the structure's states."""
    first = parts[0]
    trans = list(first.trans)
    priority = list(first.priority)
    firsts = [[f] for f in trans[first.initial]]
    off = first.n_states
    for b in parts[1:]:

        def shift(move, off=off):
            return (move[0], move[1] + off)

        memo = {}
        trans.extend(tuple([pb.map_atoms(f, shift, memo) for f in row]) for row in b.trans)
        for fs, f in zip(firsts, trans[b.initial + off]):
            fs.append(f)
        priority.extend(b.priority)
        off += b.n_states
    trans.append(tuple([fresh(letter, fs, off) for letter, fs in zip(first.alphabet, firsts)]))
    priority.append(fresh_priority)
    return Apt(first.alphabet, first.directions, off, trans, tuple(priority))


def conjoin(parts):
    """Language intersection via a fresh initial state."""
    return join(parts, lambda _letter, fs, _q: pb.conj(fs), parts[0].priority[parts[0].initial])


def disjoin(parts):
    """Language union via a fresh initial state."""
    return join(parts, lambda _letter, fs, _q: pb.disj(fs), parts[0].priority[parts[0].initial])


def relabel(a, new_alphabet, h):
    """Automaton over new_alphabet with delta'(q, s) = delta(q, h(s))."""
    at = {letter: i for i, letter in enumerate(a.alphabet)}
    cols = [at[h(letter)] for letter in new_alphabet]
    trans = [tuple([row[i] for i in cols]) for row in a.trans]
    return Apt(tuple(new_alphabet), a.directions, a.initial, trans, a.priority)


# ---------------------------------------------------------------------------
# distinctness automaton


def distinctness_apt(grid, alphabet, directions, allowed_dirs):
    """Accepts trees where every pair of copies differs somewhere.

    grid[j] is the tuple of placeholder names of copy j (all the same
    length); letters are (valuation, state) pairs with the valuation given
    as a sorted tuple of (name, action) items.  For every pair of copies a
    walker state guesses a path to a node whose valuation separates them;
    allowed_dirs(letter) gives the directions the walker may take.  The
    compiler builds it for two copies or more only, each a renaming of the
    block's sorted variables.
    """
    g = len(grid)
    pairs = [(a, b) for a in range(g) for b in range(a + 1, g)]
    # state 0: initial (conjunction over all pairs); state 1 + i: walker of pair i
    priority = (1,) * (1 + len(pairs))

    columns = []  # per letter, the transition of every state
    for letter in alphabet:
        val = dict(letter[0])
        acts = [tuple([val[x] for x in names]) for names in grid]  # per copy
        dirs = tuple(allowed_dirs(letter))
        bodies = [
            pb.TRUE if acts[a] != acts[b]
            else pb.disj([pb.atom((d, 1 + i)) for d in dirs])
            for i, (a, b) in enumerate(pairs)
        ]
        columns.append((pb.conj(bodies), *bodies))
    trans = list(zip(*columns))
    return Apt(tuple(alphabet), tuple(directions), 0, trans, priority)


# ---------------------------------------------------------------------------
# NPT shape and projection


def is_npt(a):
    """Is every transition a disjunction of conjunctions of atoms, each
    conjunction moving exactly once along every direction?

    The test is syntactic: TRUE and FALSE pass, and any deeper nesting
    counts as alternating, even where the formula is equivalent to one of
    the NPT shape.
    """
    dirs = set(a.directions)
    for f in {f for row in a.trans for f in row}:
        if f == pb.TRUE or f == pb.FALSE:
            continue
        for c in f[1] if f[0] == "|" else (f,):
            moves = c[1] if c[0] == "&" else (c,)
            if (
                len(moves) != len(dirs)
                or any(m[0] != "a" for m in moves)
                or {m[1][0] for m in moves} != dirs
            ):
                return False
    return True


def project(a, coords):
    """Erase valuation coordinates `coords` existentially.

    Letters are (valuation, state) pairs; the result reads valuations without
    the projected names and its transition is the disjunction over all ways
    of re-adding them.  This is sound only on a nondeterministic automaton,
    whose disjuncts pick one move per direction: the caller passes the output
    of alternation removal (determinize.nondeterminize), whose NPT shape the
    tests pin, and the shape is not checked again here.  The result is not
    simplified.
    """
    coords = tuple(coords)
    if not coords:
        return a
    new_letters = sorted(
        {(tuple(kv for kv in val if kv[0] not in coords), s) for (val, s) in a.alphabet}
    )
    extensions = {}  # new letter -> the indices of the old letters extending it
    for i, (val, s) in enumerate(a.alphabet):
        key = (tuple(kv for kv in val if kv[0] not in coords), s)
        extensions.setdefault(key, []).append(i)
    ext = [extensions[nl] for nl in new_letters]
    disjs = {}  # the formulas on the extensions -> their disjunction
    trans = []
    for row in a.trans:
        out = []
        for cols in ext:
            fs = tuple([row[i] for i in cols])
            f = disjs.get(fs)
            if f is None:
                f = disjs[fs] = pb.disj(fs)
            out.append(f)
        trans.append(tuple(out))
    return Apt(tuple(new_letters), a.directions, a.initial, trans, a.priority)


# ---------------------------------------------------------------------------
# regular trees and membership


@dataclass(frozen=True)
class RegularTree:
    """Total finite generator of a Sigma-labeled Delta-tree."""

    letters: dict  # node -> letter
    children: dict  # (node, direction) -> node
    root: object

    def letter(self, node):
        return self.letters[node]

    def child(self, node, d):
        return self.children[(node, d)]


def membership_game(a, tree):
    """Acceptance game: Verifier wins from the initial position iff a accepts.

    A state position is a (tree node, state) pair: Verifier owns it, with
    the state's priority, and moves to the position of the state's
    transition on the node's letter.  A formula position is a (child row,
    formula) pair, a node's child row being the tuple of its children in
    a.directions order: Verifier owns disjunctions, Refuter conjunctions,
    and an atom (d, q) is the state position of q at the row's d-child.  A
    formula position's owner, priority and successors depend only on the
    formula and the children, so the nodes of one child row share it.  A
    sentence's unwinding, and the encoding tree of a memoryless candidate,
    has one child row, so each transition formula is expanded once per
    game.  Returns (game, index of the initial position).  The tree must be
    total over a's directions and labeled from a's alphabet, as every
    encoding_tree is.
    """
    build = _GameBuilder(a, tree)
    at = {letter: i for i, letter in enumerate(a.alphabet)}
    start = build.state_pos(tree.root, a.initial)
    while build.queue:
        node, q, idx = build.queue.popleft()
        f = a.trans[q][at[tree.letter(node)]]
        build.succs[idx].append(build.formula_pos(build.row(node), f))
    return ParityGame(build.owners, build.prios, build.succs), start


class _GameBuilder:
    """The positions of a membership game as they are discovered.

    Its methods call each other through the instance, so no closure refers
    to itself and the lists are freed as soon as the game is built.
    """

    def __init__(self, a, tree):
        self.a = a
        self.tree = tree
        self.neutral = max(a.priority) + 2
        self.states = {}  # (node, state) -> its position
        self.formulas = {}  # (row id, formula) -> its position
        self.node_rows = {}  # node -> the id of its child row
        self.row_ids = {}  # child row -> its id
        self.rows = []  # row id -> {direction: child}
        self.owners = []
        self.prios = []
        self.succs = []
        self.queue = deque()  # state positions whose transition is still unexpanded

    def add(self, owner, prio):
        self.owners.append(owner)
        self.prios.append(prio)
        self.succs.append([])
        return len(self.owners) - 1

    def row(self, node):
        """The id of node's child row, interned on the first call."""
        rid = self.node_rows.get(node)
        if rid is None:
            kids = tuple([self.tree.child(node, d) for d in self.a.directions])
            rid = self.row_ids.get(kids)
            if rid is None:
                rid = self.row_ids[kids] = len(self.rows)
                self.rows.append(dict(zip(self.a.directions, kids)))
            self.node_rows[node] = rid
        return rid

    def state_pos(self, node, q):
        idx = self.states.get((node, q))
        if idx is None:
            idx = self.states[(node, q)] = self.add(VERIFIER, self.a.priority[q])
            self.queue.append((node, q, idx))
        return idx

    def formula_pos(self, rid, f):
        if f[0] == "a":  # an atom moves straight to its state position
            d, q2 = f[1]
            return self.state_pos(self.rows[rid][d], q2)
        idx = self.formulas.get((rid, f))
        if idx is not None:
            return idx
        if f == pb.TRUE or f == pb.FALSE:
            # a self-loop: even priority, Verifier wins; odd, Verifier loses
            idx = self.formulas[(rid, f)] = self.add(VERIFIER, 0 if f == pb.TRUE else 1)
            self.succs[idx].append(idx)
        else:
            idx = self.formulas[(rid, f)] = self.add(
                VERIFIER if f[0] == "|" else 1 - VERIFIER, self.neutral)
            self.succs[idx].extend([self.formula_pos(rid, k) for k in f[1]])
        return idx


def member(a, tree):
    game, start = membership_game(a, tree)
    win, _ = solve_zielonka(game)
    return bool(win[start] == VERIFIER)


# ---------------------------------------------------------------------------
# trees built from game structures


def encoding_tree(cgs, assignment):
    """Tree encoding of a strategy assignment.

    assignment maps placeholder names to FiniteStrategy machines.  A node
    stands for a (state, memory vector) pair and is an integer id in
    discovery order (cheap to hash in the membership game), the root 0; its
    label pairs the valuation {name: action prescribed at this history} with
    the state; the d-child advances every machine by d.  Directions off the
    real play still carry well-defined labels, so the generator stays total.
    The empty assignment gives the structure's unwinding, where a sentence is
    checked.
    """
    names = tuple(sorted(assignment))
    machines = [assignment[x] for x in names]
    root = (cgs.initial, tuple(m.init for m in machines))
    ids = {root: 0}
    letters = {}
    children = {}
    frontier = [root]
    while frontier:
        pair = frontier.pop()
        node = ids[pair]
        q, mems = pair
        val = tuple([(x, m.output[(mem, q)]) for x, m, mem in zip(names, machines, mems)])
        letters[node] = (val, q)
        rows = list(zip(machines, mems))
        for d in cgs.states:
            nxt = (d, tuple([m.update[(mem, d)] for m, mem in rows]))
            child = ids.get(nxt)
            if child is None:
                child = ids[nxt] = len(ids)
                frontier.append(nxt)
            children[(node, d)] = child
    return RegularTree(letters, children, 0)


def assignment_alphabet(cgs, names):
    """All (valuation, state) letters over the given placeholder names."""
    from itertools import product

    names = tuple(sorted(names))
    letters = []
    for acts in product(cgs.actions, repeat=len(names)):
        val = tuple(zip(names, acts))
        for q in cgs.states:
            letters.append((val, q))
    return tuple(sorted(letters))


# ---------------------------------------------------------------------------
# simplification


def simplify(a, budget):
    """Drop unreachable states, compress priorities, merge states of equal
    priority and transitions until none merge.  Language-preserving.

    Priorities are compressed before the merges, so states whose priorities
    compress to one value can merge; a merge keeps every priority value, so
    the result is compressed, and simplifying it again changes nothing.  In
    the result, equal transition formulas are one shared object.
    """
    a = _restrict_reachable(a)
    a = Apt(a.alphabet, a.directions, a.initial, a.trans, compress_priorities(a.priority))
    while True:
        merged = _merge_equivalent(a)
        if merged.n_states == a.n_states:
            break
        a = merged
    if a.n_states > budget:
        raise ResourceBudgetError(f"automaton exceeds state budget ({a.n_states})")
    one = {}
    trans = [tuple([one.setdefault(f, f) for f in row]) for row in a.trans]
    return Apt(a.alphabet, a.directions, a.initial, trans, a.priority)


def _restrict_reachable(a):
    atom_sets = {}
    reach = {a.initial}
    frontier = [a.initial]
    while frontier:
        q = frontier.pop()
        for f in a.trans[q]:
            for _d, q2 in pb.atoms(f, atom_sets):
                if q2 not in reach:
                    reach.add(q2)
                    frontier.append(q2)
    return _renumber(a, {q: q for q in reach})


def _merge_equivalent(a):
    sig = {}
    rep = {}
    for q, key in enumerate(zip(a.priority, a.trans)):
        rep[q] = sig.setdefault(key, q)
    return _renumber(a, rep)


def _renumber(a, rep):
    """a on the states rep maps onto, numbered in ascending order, every move
    to q redirected to rep[q]; a itself when every state is kept."""
    keep = sorted(set(rep.values()))
    if len(keep) == a.n_states:
        return a
    new = {q: i for i, q in enumerate(keep)}
    full = {q: new[r] for q, r in rep.items()}

    def rename(m):
        return (m[0], full[m[1]])

    memo = {}
    trans = [tuple([pb.map_atoms(f, rename, memo) for f in a.trans[q]]) for q in keep]
    priority = tuple([a.priority[q] for q in keep])
    return Apt(a.alphabet, a.directions, full[a.initial], trans, priority)


def compress_priorities(priority):
    """The priorities renumbered from 0 or 1 up without gaps, keeping their
    order and parity; language-preserving in a min-parity automaton."""
    used = sorted(set(priority))
    out = {}
    cur = used[0] % 2
    out[used[0]] = cur
    for prev, nxt in zip(used, used[1:]):
        cur = cur + (0 if (nxt - prev) % 2 == 0 else 1)
        out[nxt] = cur
    return tuple([out[p] for p in priority])


# ---------------------------------------------------------------------------
# stage dump format


def dump_apt(a, kind="apt"):
    """Textual dump: header, then one line per (state, letter) transition."""
    k = len(set(a.priority))
    lines = [f"{kind} states={a.n_states} priorities={k}"]
    for q in range(a.n_states):
        lines.append(f"state {q} priority {a.priority[q]}")
        for letter, f in zip(a.alphabet, a.trans[q]):
            lines.append(f"  {q} {letter!r} -> {pb.render(f)}")
    return "\n".join(lines) + "\n"
