"""Per-layer tracing from outside the program.

The tracer rebinds public gslmc functions to wrappers while it is installed,
in every gslmc module that holds a reference to them, and restores them on
exit.  A timed layer records its self time: the wall time of its calls minus
the time spent in wrapped calls below it.  A counted function only has its
calls counted, because it runs hundreds of thousands of times per check.
"""

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from gslmc import automata, cgs, compiler, determinize, formula, paritygame, posbool, solutions
from gslmc.errors import ResourceBudgetError

# layers whose calls happen while a workload is set up, not while it runs
SETUP_LAYERS = ("formula.parse", "cgs.load", "solutions.gen")
RUN_LAYERS = (
    "compiler.build",
    "determinize.nondeterminize",
    "automata.simplify",
    "automata.project",
    "automata.membership_game",
    "paritygame.build",
    "paritygame.solve",
    "paritygame.attractor",
)
COUNTS = (
    "determinize.calls",
    "determinize.states_in",
    "determinize.states_out",
    "determinize.letters_max",
    "automata.simplify_calls",
    "automata.game_vertices",
    "automata.game_edges",
    "paritygame.attractor_calls",
    "posbool.conj_calls",
    "posbool.disj_calls",
    "posbool.minimal_models_calls",
    "budget.stops",
    "budget.stops.determinize",
    "budget.stops.simplify",
)
# layer that raised a budget stop -> the count it adds to
STOP_COUNTS = {
    "determinize.nondeterminize": "budget.stops.determinize",
    "automata.simplify": "budget.stops.simplify",
}


def _enter_nondeterminize(counts, args):
    apt = args[0]
    counts["determinize.calls"] += 1
    counts["determinize.states_in"] += apt.n_states
    counts["determinize.letters_max"] = max(counts["determinize.letters_max"], len(apt.alphabet))


def _leave_nondeterminize(counts, result):
    counts["determinize.states_out"] += result.n_states


def _enter_simplify(counts, args):
    counts["automata.simplify_calls"] += 1


def _leave_membership_game(counts, result):
    game, _start = result
    counts["automata.game_vertices"] += game.n
    counts["automata.game_edges"] += len(game.succ_dat)


def _enter_attractor(counts, args):
    counts["paritygame.attractor_calls"] += 1


class Tracer:
    """Self times, counts and budget stops of the wrapped layers.

    ``begin_check(name)`` marks the start of a check, so that a budget stop
    can report the time the check ran before it.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.stops = []
        self._stack = []
        self._check = ("", 0.0)
        self._saved = []

    def reset(self):
        self.self_s.clear()
        self.counts.clear()
        self.stops = []

    def begin_check(self, name):
        self._check = (name, time.perf_counter())

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        try:
            for layer, owner, attr, enter, leave in self._timed_targets():
                self._patch(owner, attr, self._timed(layer, getattr(owner, attr), enter, leave))
            for key, attr in (
                ("posbool.conj_calls", "conj"),
                ("posbool.disj_calls", "disj"),
                ("posbool.minimal_models_calls", "minimal_models"),
            ):
                self._patch(posbool, attr, self._counted(key, getattr(posbool, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved = []

    @staticmethod
    def _timed_targets():
        targets = [
            ("formula.parse", formula, "parse_formula", None, None),
            ("cgs.load", cgs, "load_cgs", None, None),
            ("compiler.build", compiler, "compile_formula", None, None),
            ("determinize.nondeterminize", determinize, "nondeterminize",
             _enter_nondeterminize, _leave_nondeterminize),
            ("automata.simplify", automata, "simplify", _enter_simplify, None),
            ("automata.project", automata, "project", None, None),
            ("automata.membership_game", automata, "membership_game", None, _leave_membership_game),
            ("paritygame.build", paritygame.ParityGame, "__init__", None, None),
            ("paritygame.solve", paritygame, "solve_zielonka", None, None),
            ("paritygame.attractor", paritygame.ParityGame, "attractor", _enter_attractor, None),
        ]
        for attr, value in sorted(vars(solutions).items()):
            if (callable(value) and not isinstance(value, type) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == solutions.__name__):
                targets.append(("solutions.gen", solutions, attr, None, None))
        return targets

    def _patch(self, owner, attr, wrapper):
        """Replace owner.attr, and every gslmc module global bound to the same
        function, with wrapper."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for mod in list(sys.modules.values()):
            if mod is owner or not getattr(mod, "__name__", "").startswith("gslmc."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _timed(self, layer, fn, enter, leave):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(tracer.counts, args)
            frame = [0.0]  # time spent in wrapped calls below this one
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ResourceBudgetError as e:
                tracer._record_stop(e, layer, args, t0)
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.self_s[layer] += dt - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dt
            if leave is not None:
                leave(tracer.counts, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_stop(self, error, layer, args, t0):
        """Attribute a budget stop to the innermost wrapped layer it left."""
        if getattr(error, "perfbench_layer", None) is not None:
            return
        error.perfbench_layer = layer
        now = time.perf_counter()
        apt = args[0] if args and hasattr(args[0], "n_states") else None
        self.counts["budget.stops"] += 1
        if layer in STOP_COUNTS:
            self.counts[STOP_COUNTS[layer]] += 1
        name, started = self._check
        self.stops.append(
            {
                "instance": name,
                "layer": layer,
                "states": apt.n_states if apt else None,
                "letters": len(apt.alphabet) if apt else None,
                "directions": len(apt.directions) if apt else None,
                "layer_s": now - t0,
                "check_s": now - started,
                "error": str(error),
            }
        )
