"""Brute-force semantics evaluator over bounded-memory strategies.

Evaluates formulas by literally enumerating finite-memory strategy machines
at quantifiers and following induced plays at temporal operators.  Used as
independent ground truth for the automata pipeline on small instances; an
existential verdict is exact only under a stated justification, otherwise
it is a lower bound (richer strategies could only add witnesses).
"""

from dataclasses import dataclass
from itertools import product

from gslmc import formula as fm
from gslmc.cgs import FiniteStrategy
from gslmc.errors import ModelError, ResourceBudgetError, UnsupportedGradeError

DEFAULT_PROFILE_BUDGET = 200_000

EXACT = "exact"
LOWER_BOUND = "lower-bound-only"


def enumerate_strategies(cgs, memory_bound, budget=DEFAULT_PROFILE_BUDGET):
    """All finite-memory strategies with at most memory_bound memory states,
    deduplicated by the history function they compute."""
    n_st = len(cgs.states)
    total = 0
    for k in range(1, memory_bound + 1):
        total += (k ** (k * n_st)) * (len(cgs.actions) ** (k * n_st))
        if total > budget:
            raise ResourceBudgetError(
                f"strategy space too large for memory bound {memory_bound}"
            )
    out = []
    seen = set()
    for k in range(1, memory_bound + 1):
        cells = [(m, q) for m in range(k) for q in cgs.states]
        for upd in product(range(k), repeat=len(cells)):
            update = dict(zip(cells, upd))
            for outp in product(cgs.actions, repeat=len(cells)):
                output = dict(zip(cells, outp))
                s = FiniteStrategy(tuple(range(k)), 0, update, output)
                sig = strategy_signature(cgs, s, cgs.initial)
                if sig not in seen:
                    seen.add(sig)
                    out.append(s)
    return out


def strategy_signature(cgs, strat, start):
    """Canonical form of the history->action function a machine computes
    from the given start state.

    Behaviourally equivalent memory states are merged (partition refinement
    on the reachable product with the state graph) before BFS ordering, so
    two machines share a signature iff they act identically on every
    history from start."""
    root = (strat.init, start)
    nodes = [root]
    seen = {root}
    i = 0
    succs = {}
    while i < len(nodes):
        mem, q = nodes[i]
        i += 1
        row = []
        for q2 in cgs.successors(q):
            nxt = (strat.update[(mem, q2)], q2)
            row.append((q2, nxt))
            if nxt not in seen:
                seen.add(nxt)
                nodes.append(nxt)
        succs[(mem, q)] = tuple(row)
    block = {n: (n[1], strat.output[n]) for n in nodes}
    while True:
        refined = {
            n: (block[n], tuple((q2, block[m]) for q2, m in succs[n])) for n in nodes
        }
        ids = {}
        nxt_block = {}
        for n in nodes:
            key = refined[n]
            if key not in ids:
                ids[key] = len(ids)
            nxt_block[n] = ids[key]
        if len(set(nxt_block.values())) == len(set(block.values())):
            block = nxt_block
            break
        block = nxt_block
    order = {block[root]: 0}
    queue = [root]
    visited = {block[root]}
    rows = []
    while queue:
        n = queue.pop(0)
        row = [strat.output[n]]
        for q2, m in succs[n]:
            b = block[m]
            if b not in order:
                order[b] = len(order)
            row.append((q2, order[b]))
            if b not in visited:
                visited.add(b)
                queue.append(m)
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# recursive semantics


@dataclass
class OracleResult:
    verdict: bool
    confidence: str
    witness_count: int | None = None  # for a top-level graded quantifier


def _auto_exact(cgs, f):
    """Justifications we can establish without being told: no quantifier at
    all, or a single possible strategy (one action)."""
    if fm.quantifier_rank(f) == 0:
        return True
    if len(cgs.actions) == 1:
        return True
    return False


def oracle_check(
    cgs,
    f,
    memory_bound=1,
    assignment=None,
    justification=None,
    budget=DEFAULT_PROFILE_BUDGET,
):
    """Evaluate f at the initial state; see module docstring for confidence.

    assignment maps free placeholder names to FiniteStrategy machines.
    """
    if not fm.grades_all_finite(f):
        raise UnsupportedGradeError("oracle handles finite grades only")
    ev = _Evaluator(cgs, memory_bound, budget)
    env = {}
    if assignment:
        env = {x: (s, s.init) for x, s in assignment.items()}
    free = fm.free_placeholders(f, set(cgs.agents))
    missing = free - set(env)
    if missing:
        raise ModelError(f"oracle needs strategies for free names: {sorted(missing)}")
    verdict = ev.eval(f, cgs.initial, _freeze(env))
    count = None
    if isinstance(f, fm.ExistsGraded) and not assignment:
        count = ev.count_witnesses(f, cgs.initial, _freeze({}))
    exact = justification is not None or _auto_exact(cgs, f)
    return OracleResult(verdict, EXACT if exact else LOWER_BOUND, count)


def _freeze(env):
    return tuple(sorted(env.items(), key=lambda kv: kv[0]))


class _Evaluator:
    def __init__(self, cgs, memory_bound, budget):
        self.cgs = cgs
        self.memory_bound = memory_bound
        self.budget = budget
        self.memo = {}
        self._pool = None

    def pool(self):
        if self._pool is None:
            self._pool = enumerate_strategies(self.cgs, self.memory_bound, self.budget)
        return self._pool

    @staticmethod
    def _envkey(env):
        return tuple((x, id(s), m) for x, (s, m) in env)

    def eval(self, f, q, env):
        key = (id(f), q, self._envkey(env))
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = out = self._eval(f, q, dict(env))
        return out

    def _advance(self, env, arrived):
        """Shift every machine by the state just reached."""
        return {x: (s, s.update[(m, arrived)]) for x, (s, m) in env.items()}

    def _decision(self, env, q):
        try:
            return tuple(env[a][0].output[(env[a][1], q)] for a in self.cgs.agents)
        except KeyError as e:
            raise ModelError(f"agent {e.args[0]!r} is unbound at a temporal operator")

    def _eval(self, f, q, env):
        cgs = self.cgs
        if isinstance(f, fm.Atom):
            return f.name in cgs.label[q]
        if isinstance(f, fm.Not):
            return not self.eval(f.sub, q, _freeze(env))
        if isinstance(f, fm.Or):
            return self.eval(f.left, q, _freeze(env)) or self.eval(
                f.right, q, _freeze(env)
            )
        if isinstance(f, fm.Next):
            q2 = cgs.step(q, self._decision(env, q))
            return self.eval(f.sub, q2, _freeze(self._advance(env, q2)))
        if isinstance(f, fm.Until):
            return self._until(f, q, env)
        if isinstance(f, fm.Bind):
            env2 = dict(env)
            env2[f.agent] = env[f.var]
            return self.eval(f.sub, q, _freeze(env2))
        if isinstance(f, fm.ExistsGraded):
            return self.count_witnesses(f, q, _freeze(env), stop_at=f.grade.value)
        raise TypeError(f"unknown formula node {type(f).__name__}")

    def _until(self, f, q, env):
        seen = set()
        while True:
            key = (q, self._envkey(_freeze(env)))
            if key in seen:
                return False  # looped without reaching the goal
            seen.add(key)
            if self.eval(f.right, q, _freeze(env)):
                return True
            if not self.eval(f.left, q, _freeze(env)):
                return False
            dec = self._decision(env, q)
            q = self.cgs.step(q, dec)
            env = self._advance(env, q)

    def count_witnesses(self, f, q, env, stop_at=None):
        """Number of distinct satisfying strategy tuples from state q,
        where distinctness compares the functions computed from q on."""
        if not f.grade.is_finite:
            raise UnsupportedGradeError("oracle handles finite grades only")
        g = f.grade.value
        if stop_at is not None and g == 0:
            return True
        pool = self.pool()
        # distinct behaviors from q may collapse differently than from the
        # initial state; dedup per start state
        local = {}
        for s in pool:
            sig = strategy_signature(self.cgs, s, q)
            local.setdefault(sig, s)
        choices = list(local.values())
        if len(choices) ** len(f.vars) > self.budget:
            raise ResourceBudgetError("quantifier instantiation over budget")
        count = 0
        base = dict(env)
        for tup in product(choices, repeat=len(f.vars)):
            env2 = dict(base)
            for x, s in zip(f.vars, tup):
                env2[x] = (s, s.init)
            if self.eval(f.sub, q, _freeze(env2)):
                count += 1
                if stop_at is not None and count >= stop_at:
                    return True
        if stop_at is not None:
            return count >= stop_at
        return count


# ---------------------------------------------------------------------------
# memoryless equilibrium counting


def _memoryless_profiles(cgs, budget):
    per_agent = len(cgs.actions) ** len(cgs.states)
    if per_agent ** len(cgs.agents) > budget:
        raise ResourceBudgetError("memoryless profile space over budget")
    singles = []
    for _agent in cgs.agents:
        opts = []
        for combo in product(cgs.actions, repeat=len(cgs.states)):
            opts.append(dict(zip(cgs.states, combo)))
        singles.append(opts)
    return product(*singles)


def _payoffs(cgs, profile, objectives):
    from gslmc.cgs import memoryless, induced_play, eval_ltl_on_lasso

    machines = {a: memoryless(cgs, choice) for a, choice in zip(cgs.agents, profile)}
    lasso = induced_play(cgs, cgs.initial, machines)
    out = {}
    for agent in cgs.agents:
        obj = objectives[agent]
        bits = "".join(
            "1" if eval_ltl_on_lasso(goal, lasso, cgs.label) else "0"
            for goal in obj.goals
        )
        out[agent] = obj.payoff[bits]
    return out


def count_ne_memoryless(cgs, objectives, budget=DEFAULT_PROFILE_BUDGET):
    """Number of memoryless profiles with no improving memoryless deviation."""
    all_choices = [
        dict(zip(cgs.states, combo))
        for combo in product(cgs.actions, repeat=len(cgs.states))
    ]
    count = 0
    for profile in _memoryless_profiles(cgs, budget):
        base = _payoffs(cgs, profile, objectives)
        stable = True
        for i, agent in enumerate(cgs.agents):
            for alt in all_choices:
                if alt == profile[i]:
                    continue
                dev = list(profile)
                dev[i] = alt
                if _payoffs(cgs, tuple(dev), objectives)[agent] > base[agent]:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            count += 1
    return count
