"""The reference membership game: one formula position per (tree node,
formula), shared by no two nodes.  The tests build it next to
automata.membership_game, which shares formula positions among nodes with
equal children, and compare the winners and the game sizes."""

from collections import deque

from gslmc import posbool as pb
from gslmc.paritygame import ParityGame, VERIFIER


def reference_membership_game(a, tree):
    """(game, index of the initial position) with positions keyed by node."""
    build = _ReferenceBuilder(a, tree)
    at = {letter: i for i, letter in enumerate(a.alphabet)}
    start = build.state_pos(tree.root, a.initial)
    while build.queue:
        node, q, idx = build.queue.popleft()
        build.succs[idx].append(build.formula_pos(node, a.trans[q][at[tree.letter(node)]]))
    return ParityGame(build.owners, build.prios, build.succs), start


class _ReferenceBuilder:
    def __init__(self, a, tree):
        self.a = a
        self.tree = tree
        self.neutral = max(a.priority) + 2
        self.positions = {}
        self.owners = []
        self.prios = []
        self.succs = []
        self.queue = deque()

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
        if f[0] == "a":
            d, q2 = f[1]
            return self.state_pos(self.tree.child(node, d), q2)
        key = ("f", node, f)
        idx = self.positions.get(key)
        if idx is not None:
            return idx
        if f == pb.TRUE or f == pb.FALSE:
            idx = self.add(key, VERIFIER, 0 if f == pb.TRUE else 1)
            self.succs[idx].append(idx)
        else:
            idx = self.add(key, VERIFIER if f[0] == "|" else 1 - VERIFIER, self.neutral)
            self.succs[idx].extend([self.formula_pos(node, k) for k in f[1]])
        return idx
