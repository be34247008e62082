"""Concurrent game structures and finite-memory strategies."""

import itertools
from dataclasses import dataclass, field

from gslmc.errors import ModelError


@dataclass(frozen=True)
class Cgs:
    atoms: frozenset
    agents: tuple
    actions: tuple
    states: tuple
    initial: str
    label: dict
    trans: dict  # (state, decision) -> state; decision = tuple aligned with agents
    succ: dict = field(init=False, repr=False, compare=False)  # state -> successors

    def __post_init__(self):
        reached = {q: set() for q in self.states}
        for (q, _d), q2 in self.trans.items():
            reached[q].add(q2)
        # in the order of states, so that nothing depends on string hashes
        succ = {q: tuple(s for s in self.states if s in reached[q]) for q in self.states}
        object.__setattr__(self, "succ", succ)

    def step(self, state, decision):
        return self.trans[(state, tuple(decision))]

    def successors(self, state):
        return self.succ[state]


def _require(cond, msg):
    if not cond:
        raise ModelError(msg)


def load_cgs(doc):
    """Validate a parsed JSON model document and build its structure.

    Transitions are objects {from, decision, to}; a decision maps each agent
    to an action or the wildcard "*".  Entries must be pairwise
    non-overlapping and jointly total.
    """
    _require(isinstance(doc, dict), "a model must be a JSON object")
    for key in ("atoms", "agents", "actions", "states", "initial", "label", "transitions"):
        _require(key in doc, f"model is missing field {key!r}")
    for key in ("atoms", "agents", "actions", "states", "transitions"):
        _require(isinstance(doc[key], list), f"model field {key!r} must be a list")
    _require(isinstance(doc["label"], dict), "model field 'label' must be an object")
    atoms = list(doc["atoms"])
    agents = tuple(doc["agents"])
    actions = tuple(doc["actions"])
    states = tuple(doc["states"])
    # names are compared and sorted with each other, and label keys are
    # strings anyway
    for kind, names in (("atom", atoms), ("agent", agents), ("action", actions), ("state", states)):
        for x in names:
            _require(isinstance(x, str), f"{kind} name {x!r} is not a string")
    _require(agents, "model needs at least one agent")
    _require(actions, "model needs at least one action")
    _require(states, "model needs at least one state")
    _require(len(set(agents)) == len(agents), "duplicate agent names")
    _require(len(set(actions)) == len(actions), "duplicate action names")
    _require(len(set(states)) == len(states), "duplicate state names")
    _require(not (set(agents) & set(atoms)), "agent names may not collide with atoms")
    initial = doc["initial"]
    _require(initial in states, f"initial state {initial!r} missing from states")

    label = {}
    for s in states:
        props = doc["label"].get(s, [])
        _require(isinstance(props, list), f"label of {s!r} must be a list of atoms")
        for p in props:
            _require(p in atoms, f"label of {s!r} uses unknown atom {p!r}")
        label[s] = frozenset(props)
    for s in doc["label"]:
        _require(s in states, f"label mentions unknown state {s!r}")

    # expand wildcard entries, rejecting overlaps and gaps
    patterns = []  # (from, tuple of action-or-None, to)
    for i, entry in enumerate(doc["transitions"]):
        _require(isinstance(entry, dict), f"transition #{i} is not an object")
        for key in ("from", "decision", "to"):
            _require(key in entry, f"transition #{i} is missing {key!r}")
        _require(isinstance(entry["decision"], dict), f"transition #{i}: decision is not an object")
        src, dst = entry["from"], entry["to"]
        _require(src in states, f"transition #{i} from unknown state {src!r}")
        _require(dst in states, f"transition #{i} to unknown state {dst!r}")
        pat = []
        for a in agents:
            _require(a in entry["decision"], f"transition #{i} misses agent {a!r}")
            act = entry["decision"][a]
            if act == "*":
                pat.append(None)
            else:
                _require(act in actions, f"transition #{i} uses unknown action {act!r}")
                pat.append(act)
        for a in entry["decision"]:
            _require(a in agents, f"transition #{i} mentions unknown agent {a!r}")
        patterns.append((src, tuple(pat), dst))

    trans = {}
    for src, pat, dst in patterns:
        choices = [actions if p is None else (p,) for p in pat]
        for dec in itertools.product(*choices):
            key = (src, dec)
            if key in trans:
                raise ModelError(
                    f"overlapping transitions from {src!r} on decision {dec!r}"
                )
            trans[key] = dst
    for s in states:
        for dec in itertools.product(actions, repeat=len(agents)):
            _require(
                (s, dec) in trans,
                f"transition not total: state {s!r} has no entry for decision {dec!r}",
            )
    return Cgs(
        atoms=frozenset(atoms),
        agents=agents,
        actions=actions,
        states=states,
        initial=initial,
        label=label,
        trans=trans,
    )


# ---------------------------------------------------------------------------
# strategies


@dataclass(frozen=True)
class FiniteStrategy:
    """Finite-memory strategy machine.

    The action on a history h = s0 s1 ... sk is output(m, sk) where m is
    obtained by folding update over s1 ... sk starting from init.
    """

    memory: tuple
    init: object
    update: dict  # (mem, state) -> mem
    output: dict  # (mem, state) -> action


def memoryless(cgs, choice):
    """Memoryless strategy from a state -> action map."""
    return FiniteStrategy(
        memory=(0,),
        init=0,
        update={(0, s): 0 for s in cgs.states},
        output={(0, s): choice[s] for s in cgs.states},
    )
