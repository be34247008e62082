"""Alternating and nondeterministic parity tree automata.

An automaton runs on full Delta-branching Sigma-labeled trees.  Transition
formulas are positive Boolean formulas over moves (direction, state); states
are integers 0..n-1; acceptance is a min-parity priority function.

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
    n_states: int
    initial: int
    trans: dict  # (state, letter) -> posbool over (direction, state) moves
    priority: dict  # state -> nat

    def max_priority(self):
        return max(self.priority.values())


def accept_all(alphabet, directions):
    """One-state automaton accepting every tree (all branches die at once)."""
    trans = {(0, a): pb.TRUE for a in alphabet}
    return Apt(tuple(alphabet), tuple(directions), 1, 0, trans, {0: 0})


# ---------------------------------------------------------------------------
# boolean operations


def dualize(a):
    """Complement: swap and/or and true/false, shift priorities by 1."""
    memo = {}
    trans = {k: pb.dual(f, memo) for k, f in a.trans.items()}
    priority = {q: p + 1 for q, p in a.priority.items()}
    return Apt(a.alphabet, a.directions, a.n_states, a.initial, trans, priority)


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
    trans = dict(first.trans)
    priority = dict(first.priority)
    firsts = {letter: [trans[(first.initial, letter)]] for letter in first.alphabet}
    off = first.n_states
    for b in parts[1:]:

        def shift(move, off=off):
            return (move[0], move[1] + off)

        memo = {}
        for (q, letter), f in b.trans.items():
            trans[(q + off, letter)] = pb.map_atoms(f, shift, memo)
        for letter, fs in firsts.items():
            fs.append(trans[(b.initial + off, letter)])
        for q, p in b.priority.items():
            priority[q + off] = p
        off += b.n_states
    for letter, fs in firsts.items():
        trans[(off, letter)] = fresh(letter, fs, off)
    priority[off] = fresh_priority
    return Apt(first.alphabet, first.directions, off + 1, off, trans, priority)


def conjoin(parts):
    """Language intersection via a fresh initial state."""
    return join(parts, lambda _letter, fs, _q: pb.conj(fs), parts[0].priority[parts[0].initial])


def disjoin(parts):
    """Language union via a fresh initial state."""
    return join(parts, lambda _letter, fs, _q: pb.disj(fs), parts[0].priority[parts[0].initial])


def relabel(a, new_alphabet, h):
    """Automaton over new_alphabet with delta'(q, s) = delta(q, h(s))."""
    old = [h(letter) for letter in new_alphabet]
    trans = {}
    for q in range(a.n_states):
        for letter, o in zip(new_alphabet, old):
            trans[(q, letter)] = a.trans[(q, o)]
    return Apt(tuple(new_alphabet), a.directions, a.n_states, a.initial, trans, dict(a.priority))


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
    n = len(grid[0])
    allowed = {letter: tuple(allowed_dirs(letter)) for letter in alphabet}

    pairs = [(a, b) for a in range(g) for b in range(a + 1, g)]
    # state 0: initial (conjunction over all pairs); state 1 + i: walker of pair i
    trans = {}
    priority = {0: 1}
    for i, _ in enumerate(pairs):
        priority[1 + i] = 1

    def differs(letter, a, b):
        val = dict(letter[0])
        return any(val[grid[a][i]] != val[grid[b][i]] for i in range(n))

    for letter in alphabet:
        bodies = []
        for i, (a, b) in enumerate(pairs):
            if differs(letter, a, b):
                body = pb.TRUE
            else:
                body = pb.disj([pb.atom((d, 1 + i)) for d in allowed[letter]])
            bodies.append(body)
            trans[(1 + i, letter)] = body
        trans[(0, letter)] = pb.conj(bodies)
    return Apt(tuple(alphabet), tuple(directions), 1 + len(pairs), 0, trans, priority)


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
    for f in set(a.trans.values()):
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
    extensions = {}
    for letter in a.alphabet:
        val, s = letter
        key = (tuple(kv for kv in val if kv[0] not in coords), s)
        extensions.setdefault(key, []).append(letter)
    disjs = {}  # the formulas on the extensions -> their disjunction
    trans = {}
    for q in range(a.n_states):
        for nl in new_letters:
            fs = tuple(a.trans[(q, ol)] for ol in extensions[nl])
            f = disjs.get(fs)
            if f is None:
                f = disjs[fs] = pb.disj(fs)
            trans[(q, nl)] = f
    return Apt(tuple(new_letters), a.directions, a.n_states, a.initial, trans, dict(a.priority))


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

    Positions are (generator node, state) pairs expanded through the
    transition formula's structure; Verifier owns disjunctions, Refuter
    conjunctions.  Returns (game, index of the initial position).  The tree
    must be total over a's directions and labeled from a's alphabet, as
    every encoding_tree is.
    """
    build = _GameBuilder(a, tree)
    start = build.state_pos(tree.root, a.initial)
    while build.queue:
        node, q, idx = build.queue.popleft()
        build.succs[idx].append(build.formula_pos(node, a.trans[(q, tree.letter(node))]))
    return ParityGame(build.owners, build.prios, build.succs), start


class _GameBuilder:
    """The positions of a membership game as they are discovered.

    Its methods call each other through the instance, so no closure refers
    to itself and the lists are freed as soon as the game is built.
    """

    def __init__(self, a, tree):
        self.a = a
        self.tree = tree
        self.neutral = a.max_priority() + 2
        self.positions = {}
        self.owners = []
        self.prios = []
        self.succs = []
        self.queue = deque()  # state positions whose transition is still unexpanded

    def add(self, key, owner, prio):
        idx = self.positions[key] = len(self.owners)
        self.owners.append(owner)
        self.prios.append(prio)
        self.succs.append([])
        return idx

    def state_pos(self, node, q):
        idx = self.positions.get(("q", node, q))
        if idx is None:
            idx = self.add(("q", node, q), VERIFIER, self.a.priority[q])
            self.queue.append((node, q, idx))
        return idx

    def formula_pos(self, node, f):
        key = ("f", node, f)
        idx = self.positions.get(key)
        if idx is not None:
            return idx
        if f == pb.TRUE or f == pb.FALSE:
            # a self-loop: even priority, Verifier wins; odd, Verifier loses
            idx = self.add(key, VERIFIER, 0 if f == pb.TRUE else 1)
            self.succs[idx].append(idx)
        elif f[0] == "a":
            d, q2 = f[1]
            idx = self.add(key, VERIFIER, self.neutral)
            self.succs[idx].append(self.state_pos(self.tree.child(node, d), q2))
        else:
            idx = self.add(key, VERIFIER if f[0] == "|" else 1 - VERIFIER, self.neutral)
            self.succs[idx].extend([self.formula_pos(node, k) for k in f[1]])
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
    """Drop unreachable states, merge transition-identical states, compress
    priorities.  Language-preserving.

    In the result, equal transition formulas are one shared object.
    """
    a = _restrict_reachable(a)
    while True:
        merged = _merge_equivalent(a)
        if merged.n_states == a.n_states:
            break
        a = merged
    a = compress_priorities(a)
    if a.n_states > budget:
        raise ResourceBudgetError(f"automaton exceeds state budget ({a.n_states})")
    one = {}
    trans = {k: one.setdefault(f, f) for k, f in a.trans.items()}
    return Apt(a.alphabet, a.directions, a.n_states, a.initial, trans, a.priority)


def _restrict_reachable(a):
    atom_sets = {}
    reach = {a.initial}
    frontier = [a.initial]
    while frontier:
        q = frontier.pop()
        for letter in a.alphabet:
            for _d, q2 in pb.atoms(a.trans[(q, letter)], atom_sets):
                if q2 not in reach:
                    reach.add(q2)
                    frontier.append(q2)
    return _renumber(a, {q: q for q in reach})


def _merge_equivalent(a):
    sig = {}
    rep = {}
    for q in range(a.n_states):
        key = (a.priority[q], tuple(a.trans[(q, letter)] for letter in a.alphabet))
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
    trans = {}
    for q in keep:
        for letter in a.alphabet:
            trans[(new[q], letter)] = pb.map_atoms(a.trans[(q, letter)], rename, memo)
    priority = {new[q]: a.priority[q] for q in keep}
    return Apt(a.alphabet, a.directions, len(keep), full[a.initial], trans, priority)


def compress_priorities(a):
    used = sorted(set(a.priority.values()))
    out = {}
    cur = used[0] % 2
    out[used[0]] = cur
    for prev, nxt in zip(used, used[1:]):
        cur = cur + (0 if (nxt - prev) % 2 == 0 else 1)
        out[nxt] = cur
    priority = {q: out[p] for q, p in a.priority.items()}
    return Apt(a.alphabet, a.directions, a.n_states, a.initial, a.trans, priority)


# ---------------------------------------------------------------------------
# stage dump format


def dump_apt(a, kind="apt"):
    """Textual dump: header, then one line per (state, letter) transition."""
    k = len(set(a.priority.values()))
    lines = [f"{kind} states={a.n_states} priorities={k}"]
    for q in range(a.n_states):
        lines.append(f"state {q} priority {a.priority[q]}")
        for letter in a.alphabet:
            lines.append(f"  {q} {letter!r} -> {pb.render(a.trans[(q, letter)])}")
    return "\n".join(lines) + "\n"
