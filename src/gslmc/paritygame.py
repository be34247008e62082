"""Finite two-player parity games and solvers.

Min-parity convention: a play is won by Verifier (player 0) iff the least
priority occurring infinitely often is even.  Dead ends are resolved at
construction time: a vertex with no successor loses for its owner, realized
as a self-loop whose priority has the owner's losing parity.

A game is stored as two CSR arrays (successors and predecessors), built with
numpy.  The attractor is a level-synchronous frontier loop over them: each
round gathers the predecessors of the vertices attracted in the previous
round, so a call costs O(V + E) however long the attractor's chains are.
An attracted vertex of the player points at the frontier vertex it was
reached through, so its attractor rank strictly decreases along the
strategy.

Storage widths: the CSR arrays, the priorities and the transient order are
int32, owners int8, and strategies int32.  A game with more than 2**31 - 1
vertices or edges, or with a successor or priority outside int32, is
rejected with ValueError.  Only the stored game is 32-bit: numpy casts an
index array that is not intp to intp on every fancy index, so each block
gathered from the game is cast to intp once, as it is gathered, and the
solvers' temporaries index with intp.  The attractor lowers its int32 counts
by an int32 scalar, since a Python int sends np.subtract.at down numpy's
slow generic loop.

Every game is split into a transient part and a core.  The transient part
is the least set of vertices whose predecessors other than themselves are
all transient (every vertex without another predecessor is one), so the
only cycle through a transient vertex is its own self-loop, if it has one,
and a play that leaves a transient vertex never comes back to it.  The core
is the rest: it is closed under successors and holds every vertex on or
below a longer cycle.  Zielonka's algorithm solves the core alone, and a
retrograde pass over the transient vertices, successors first, extends its
regions and strategies to the whole game: the owner of a transient vertex
wins there iff a move leaves into the owner's region, or the vertex has a
self-loop whose priority has the owner's parity.  A dead end's added loop
has the owner's losing parity, so the owner loses there.

Zielonka's algorithm runs on an explicit stack over one shared subgame mask.
A frame removes the attractor it splits off from the mask and keeps only the
indices of those vertices and their attractor strategy; it puts them back
when the subgame below it is solved.  The sets removed along the stack are
disjoint, so the stack holds O(n) entries at any depth, and the depth is
bounded by memory, not by Python's recursion limit.
"""

from itertools import chain

import numpy as np

from gslmc.errors import ResourceBudgetError

VERIFIER = 0
REFUTER = 1
INT32_MAX = np.iinfo(np.int32).max
_ONE = np.int32(1)  # typed, so that np.subtract.at on int32 counts takes its fast loop


def _int32(values, count, what):
    """The first count values as an int32 array; ValueError if one does not fit."""
    try:
        return np.fromiter(values, dtype=np.int32, count=count)
    except OverflowError:
        raise ValueError(f"{what} outside the int32 range") from None


def _gather(ptr, dat, vs):
    """Concatenated CSR rows of the vertices vs (intp), and each row's length.

    The rows come out as intp: numpy casts any other index array to intp on
    every fancy index, so the block is cast here once, in the buffer of its
    own positions.
    """
    starts = ptr[vs].astype(np.intp)
    lens = ptr[vs + 1] - starts
    ends = lens.cumsum()
    rows = (starts - ends + lens).repeat(lens)  # row start minus where it lands
    rows += np.arange(rows.size)
    rows[...] = dat[rows]
    return rows, lens


def _distinct(vs, stamp):
    """One occurrence of each vertex of vs; stamp is n-sized scratch space."""
    pos = np.arange(vs.size, dtype=np.int32)
    stamp[vs] = pos
    return vs[stamp[vs] == pos]


class ParityGame:
    """Vertices carry an owner, a priority, and a successor list.

    transient holds the transient vertices in topological order: every
    predecessor of a transient vertex, other than itself, comes before it.
    """

    def __init__(self, owners, priorities, successors):
        n = len(owners)
        if len(priorities) != n or len(successors) != n:
            raise ValueError("owner/priority/successor lists must align")
        if n > INT32_MAX:
            raise ValueError(f"a game has at most {INT32_MAX} vertices")
        self.n = n
        self.owner = np.array(owners, dtype=np.int8)
        self.priority = _int32(priorities, n, "priority")
        deg = np.fromiter(map(len, successors), dtype=np.intp, count=n)
        listed = _int32(chain.from_iterable(successors), int(deg.sum()), "successor")
        if listed.size and (listed.min() < 0 or listed.max() >= n):
            raise ValueError("successor out of range")
        # dead end: loses for its owner
        dead = np.flatnonzero(deg == 0)
        if listed.size + dead.size > INT32_MAX:
            raise ValueError(f"a game has at most {INT32_MAX} edges")
        self.priority[dead] = np.where(self.owner[dead] == VERIFIER, 1, 0)
        deg[dead] = 1
        self.succ_ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(deg, out=self.succ_ptr[1:])
        self.succ_dat = np.empty(int(self.succ_ptr[-1]), dtype=np.int32)
        dead_slot = self.succ_ptr[dead].astype(np.intp)
        listed_slot = np.ones(self.succ_dat.size, dtype=bool)
        listed_slot[dead_slot] = False
        self.succ_dat[listed_slot] = listed
        self.succ_dat[dead_slot] = dead
        del listed, listed_slot
        # predecessors of w in increasing source order, with multiplicity:
        # sorting the edges' int64 keys target * n + source gives that order
        # with any sort, since equal keys are equal edges; the keys are sorted
        # in place and live only until pred_dat is cut from them
        source = np.repeat(np.arange(n, dtype=np.int32), deg)
        loops = np.bincount(source[self.succ_dat == source], minlength=n)
        key = self.succ_dat.astype(np.int64)
        key *= n
        key += source
        del source
        key.sort()
        key %= n
        self.pred_dat = key.astype(np.int32)
        del key
        indeg = np.bincount(self.succ_dat, minlength=n)
        self.pred_ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(indeg, out=self.pred_ptr[1:])
        # transient vertices, predecessors first: Kahn's order over the edges
        # other than self-loops (a dead end's added loop is one of them)
        indeg -= loops
        peel = np.flatnonzero(indeg == 0).tolist()
        if peel:
            left = indeg.tolist()
            for v in peel:  # grows while it is read
                for w in successors[v]:
                    if w != v:
                        left[w] -= 1
                        if not left[w]:
                            peel.append(w)
        self.transient = np.array(peel, dtype=np.int32)

    def successors_of(self, v):
        return self.succ_dat[self.succ_ptr[v] : self.succ_ptr[v + 1]].tolist()

    def attractor(self, player, seed_mask, sub_mask):
        """Attractor of seed within sub for player, plus a rank-decreasing
        positional strategy on the attracted non-seed vertices.

        Within sub, a player vertex is attracted once one of its successors
        is, and an opponent vertex once all its successors in sub are (and it
        has at least one).  Returns (mask, strategy): strategy[v] is the
        successor a non-seed player vertex v in the attractor moves to, -1
        elsewhere.
        """
        sub = np.asarray(sub_mask, dtype=bool)
        seed = sub & np.asarray(seed_mask, dtype=bool)
        free = sub ^ seed  # in sub and not attracted yet (seed lies in sub)
        strat = np.full(self.n, -1, dtype=np.int32)
        # successors in sub still outside the attractor, for the opponent
        # vertices hit so far (-1: not hit yet)
        left = np.full(self.n, -1, dtype=np.int32)
        stamp = np.empty(self.n, dtype=np.int32)
        frontier = np.flatnonzero(seed)
        while frontier.size:
            preds, lens = _gather(self.pred_ptr, self.pred_dat, frontier)
            via = frontier.repeat(lens)
            keep = free[preds]
            preds = preds[keep]
            if not preds.size:
                break
            mine = self.owner[preds] == player
            won = preds[mine]
            # any frontier vertex will do: all of them have the previous rank
            strat[won] = via[keep][mine]
            del via
            hit = preds[~mine]
            fresh = _distinct(hit[left[hit] < 0], stamp)
            if fresh.size:
                left[fresh] = _count_successors_in(self, fresh, sub)
            np.subtract.at(left, hit, _ONE)
            # won and hit are disjoint: they differ in owner
            frontier = _distinct(np.concatenate((won, hit[left[hit] == 0])), stamp)
            free[frontier] = False
            del preds, keep, mine, won, hit  # edge-sized: gone before the next gather
        return sub ^ free, strat


def _count_successors_in(game, vs, mask):
    """For each vertex of vs, how many of its successors lie inside mask.

    Summed by row with reduceat, which needs no empty row: every vertex has
    a successor, a dead end its added loop.
    """
    succ, lens = _gather(game.succ_ptr, game.succ_dat, vs)
    return np.add.reduceat(mask[succ], lens.cumsum() - lens, dtype=np.int32)


def _first_successors_in(game, vs, mask):
    """For each vertex of vs, its first successor inside mask (-1 if none)."""
    succ, lens = _gather(game.succ_ptr, game.succ_dat, vs)
    row = np.arange(len(vs)).repeat(lens)
    inside = mask[succ]
    rows, first = np.unique(row[inside], return_index=True)
    out = np.full(len(vs), -1, dtype=np.int32)
    out[rows] = succ[inside][first]
    return out


class _Frame:
    """One subgame of Zielonka's recursion on the explicit stack.

    attr, attr_strat: the least-priority attractor split off the subgame
    (vertex indices and their attractor strategy), None until it is taken.
    removed: the solved parts cut from the subgame, put back on pop.
    """

    __slots__ = ("player", "attr", "attr_strat", "removed")

    def __init__(self):
        self.player = 0
        self.attr = None
        self.attr_strat = None
        self.removed = []


def solve_zielonka(game):
    """Winning regions and positional winning strategies for both players.

    Returns (win, strategy): win[v] in {0,1} is the winner at v; strategy[v]
    is the successor the winner's strategy picks at vertices the winner owns
    inside their region (-1 where the owner is the loser there).

    The recursion starts on the core; the transient vertices are settled
    afterwards by _settle_transient.
    """
    n = game.n
    win = np.full(n, -1, dtype=np.int8)
    strat = np.full(n, -1, dtype=np.int32)
    sub = np.ones(n, dtype=bool)  # the subgame of the top frame: the core
    sub[game.transient] = False
    stack = [_Frame()]
    while stack:
        top = stack[-1]
        if top.attr is None:
            if not sub.any():
                stack.pop()
                for idx in top.removed:
                    sub[idx] = True
                continue
            pmin = int(game.priority[sub].min())
            top.player = pmin % 2
            attr, attr_strat = game.attractor(top.player, sub & (game.priority == pmin), sub)
            top.attr = np.flatnonzero(attr)
            top.attr_strat = attr_strat[top.attr]
            sub[top.attr] = False
            stack.append(_Frame())
            continue
        # the subgame minus the attractor is solved
        player = top.player
        opp = 1 - player
        opp_rest = sub & (win == opp)
        sub[top.attr] = True
        if not opp_rest.any():
            # player wins everything in the subgame
            win[sub] = player
            own = game.owner[top.attr] == player
            mine = top.attr[own]
            moves = top.attr_strat[own]
            # seed vertex: any successor staying in the subgame will do
            seeds = moves < 0
            moves[seeds] = _first_successors_in(game, mine[seeds], sub)
            strat[mine] = moves
            solved = sub
        else:
            opp_attr, opp_strat = game.attractor(opp, opp_rest, sub)
            # opponent keeps the strategy computed in the subgame, extended by
            # the attractor strategy toward it
            ext = np.flatnonzero(opp_attr & (game.owner == opp) & ~opp_rest)
            strat[ext] = opp_strat[ext]
            win[opp_attr] = opp
            solved = opp_attr
        # cut what is solved; the frame goes on with what is left of its
        # subgame, from scratch, and pops once nothing is
        cut = np.flatnonzero(solved)
        sub[cut] = False
        top.removed.append(cut)
        win[sub] = -1
        strat[sub] = -1
        top.attr = None
    _settle_transient(game, win, strat)
    return win, strat


def _settle_transient(game, win, strat):
    """Extend the core's regions and strategies to the transient vertices,
    successors first: the owner wins at v iff some other successor is in the
    owner's region, or v has a self-loop and its priority has the owner's
    parity; the owner moves to the first such successor, maybe v itself."""
    t = game.transient.astype(np.intp)
    if not t.size:
        return
    succ, lens = _gather(game.succ_ptr, game.succ_dat, t)
    succ = succ.tolist()
    bounds = [0] + lens.cumsum().tolist()
    owners = game.owner[t].tolist()
    parity = (game.priority[t] % 2).tolist()
    vs = t.tolist()
    moves = [-1] * len(vs)
    w = win.tolist()  # -1 at v itself until it is settled
    for i in range(len(vs) - 1, -1, -1):
        o = owners[i]
        stay = parity[i] == o
        for u in succ[bounds[i] : bounds[i + 1]]:
            if w[u] == o or (stay and u == vs[i]):
                w[vs[i]] = o
                moves[i] = u
                break
        else:
            w[vs[i]] = 1 - o
    win[t] = [w[v] for v in vs]
    strat[t] = moves


def solve_fixpoint(game, budget=4096):
    """Winning regions by direct nested-fixpoint evaluation (oracle solver).

    Independent of the recursive solver: evaluates the parity fixpoint
    expression over the controlled-predecessor operator, outermost variable
    at the most significant (smallest) priority.
    """
    n = game.n
    if n > budget:
        raise ResourceBudgetError(f"fixpoint oracle limited to {budget} vertices")
    prios = sorted(set(int(p) for p in game.priority))

    def cpre(target):
        out = np.zeros(n, dtype=bool)
        for v in range(n):
            succ = game.successors_of(v)
            if game.owner[v] == VERIFIER:
                out[v] = any(target[w] for w in succ)
            else:
                out[v] = all(target[w] for w in succ)
        return out

    def phi(env):
        out = np.zeros(n, dtype=bool)
        for p in prios:
            mask = game.priority == p
            out[mask] = cpre(env[p])[mask]
        return out

    def nested(i, env):
        if i == len(prios):
            return phi(env)
        p = prios[i]
        cur = np.full(n, p % 2 == 0, dtype=bool)  # nu starts full, mu empty
        while True:
            env2 = dict(env)
            env2[p] = cur
            val = nested(i + 1, env2)
            if (val == cur).all():
                return val
            cur = val

    wv = nested(0, {})
    win = np.where(wv, VERIFIER, REFUTER).astype(np.int8)
    return win


def verify_strategy(game, region_mask, player, strategy):
    """Check that a positional strategy is winning for player on the region.

    Every play that starts in the region, follows strategy at the player's
    vertices, and follows any edge at opponent vertices, must stay in the
    region and satisfy the player's parity objective (cycle analysis).
    """
    region = np.asarray(region_mask, dtype=bool)
    if not region.any():
        return True
    edges = {}
    for v in np.nonzero(region)[0]:
        v = int(v)
        if game.owner[v] == player:
            w = int(strategy[v])
            if w < 0 or w not in game.successors_of(v):
                return False
            if not region[w]:
                return False
            edges[v] = [w]
        else:
            succ = game.successors_of(v)
            if any(not region[w] for w in succ):
                return False
            edges[v] = succ
    # every cycle of the restricted graph must have min priority of the
    # player's parity.  A strongly connected component with a cycle has a
    # closed walk through all its vertices, so its least priority q must be
    # the player's; cycles that avoid the q-vertices lie in the components
    # of what is left once they are removed.
    prio = game.priority.tolist()
    work = [sorted(edges)]
    while work:
        verts = work.pop()
        vset = set(verts)
        sub_edges = {v: [w for w in edges[v] if w in vset] for v in verts}
        for comp in _sccs(verts, sub_edges):
            if len(comp) == 1 and comp[0] not in sub_edges[comp[0]]:
                continue
            q = min(prio[v] for v in comp)
            if q % 2 != player:
                return False
            work.append(sorted(v for v in comp if prio[v] != q))
    return True


def _sccs(verts, edges):
    """Tarjan's strongly connected components, iterative."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    out = []
    counter = [0]
    for root in verts:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, [])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(edges.get(w, []))))
                    advanced = True
                    break
                elif w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out
