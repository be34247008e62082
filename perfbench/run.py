"""gslmc benchmark: time-to-verdict and memory of seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fixtures, desk3-reach, ring, parity-games (see bench_workloads.py
for why each instance is there).  A run sets the workload up, then runs every
instance once per pass, in one process and one thread.  It makes as many
passes as fit in S seconds at the workload's nominal pace
(bench_workloads.PASS_S), at least two, so that the operations attempted
depend only on the arguments and not on the machine's speed at the time.
Every decided verdict goes through the verdict gate.  The last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}; a budget stop or any other exception in a check is a failed
operation, and so is a solve whose returned strategy does not verify; a wrong
verdict makes the run fail.

--trace 0 reports the end-to-end metrics:
  setup_s      median time, over SETUP_PROBES fresh processes started ahead
               of the passes (the rest after the last one), from process
               start until every check of the workload is ready
  wall_s       time of one pass at the host's fastest: the sum over instances
               of each instance's least time over the run's passes
  peak_rss_mb  peak resident memory of this process, read before the gate runs
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of bench_trace.py: median self times over traced passes, counts of
the first traced pass, and trace.overhead_s, other_s and decided_share.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7


def load_sources(root):
    """Import the benchmark modules against the gslmc sources of this checkout."""
    src = Path(root) / "src"
    if not (src / "gslmc" / "__init__.py").is_file():
        raise SystemExit(f"error: no gslmc sources under {src}")
    sys.path.insert(0, str(src))
    import gslmc

    if Path(gslmc.__file__).resolve().parent != (src / "gslmc").resolve():
        raise SystemExit(f"error: gslmc was imported from {gslmc.__file__}, not {src}")
    import bench_workloads

    return bench_workloads


def monotonic_now():
    """A clock that is comparable between processes on one machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_setup(workload, seed):
    """Set-up time of one fresh process, interpreter start included."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    started = monotonic_now()
    done = subprocess.run(
        [sys.executable, str(probe), workload, str(seed), repr(started)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(workload, tracer=None):
    """Run every instance once; returns (wall seconds, per-instance results).

    A result is (outcome, error, seconds); error is None when the check
    decided.
    """
    from gslmc.errors import ResourceBudgetError

    results = []
    t_pass = time.perf_counter()
    for inst in workload.instances:
        if tracer is not None:
            tracer.begin_check(inst.name)
        t0 = time.perf_counter()
        outcome, error = None, None
        try:
            outcome = inst.run()
        except ResourceBudgetError as e:
            error = f"budget stop: {e}"
        except Exception as e:  # a crash is a failed operation, not a verdict
            error = f"{type(e).__name__}: {e}"
        results.append((outcome, error, time.perf_counter() - t0))
    return time.perf_counter() - t_pass, results


def pass_count(bw, name, seconds):
    """Passes a run makes: as many nominal passes as fit in `seconds`, and
    at least two, so that a traced run has an untraced and a traced pass and
    an untraced run's least times have more than one sample.

    The count depends only on the arguments, never on the clock, so that
    two runs with the same seed attempt the same operations.
    """
    return max(2, round(seconds / bw.PASS_S[name]))


def measure(bw, workload, passes, tracer=None, before_pass=None):
    """Run `passes` passes and check every outcome; returns a report dict.

    With a tracer, untraced and traced passes alternate, starting untraced.
    before_pass, if given, is called ahead of every pass, outside its timing.
    """
    walls, traced_walls, traced = [], [], []
    per_instance = [[] for _ in workload.instances]
    first = [None] * len(workload.instances)  # first decided outcome
    problems = []
    attempted = failed = 0
    for index in range(passes):
        if before_pass is not None:
            before_pass()
        gc.collect()  # every pass starts from a collected heap
        if tracer is not None and index % 2 == 1:
            tracer.reset()
            with tracer.installed():
                wall, results = run_pass(workload, tracer)
            traced_walls.append(wall)
            traced.append((dict(tracer.self_s), dict(tracer.counts), list(tracer.stops)))
        else:
            wall, results = run_pass(workload)
            walls.append(wall)
        for i, (inst, (outcome, error, dt)) in enumerate(zip(workload.instances, results)):
            attempted += 1
            per_instance[i].append((error, dt))
            if error is not None:
                failed += 1
            elif first[i] is None:
                first[i] = outcome
            elif bw.verdict_of(inst, outcome) != bw.verdict_of(inst, first[i]):
                problems.append(f"{inst.name}: verdict changed between passes")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i, (inst, outcome) in enumerate(zip(workload.instances, first)):
        if outcome is None:
            continue
        wrong, uncertified = bw.gate(inst, outcome)
        problems.extend(wrong)
        if uncertified:
            # every pass produced the same outcome, so none of them counts
            decided = [(e, dt) for e, dt in per_instance[i] if e is None]
            failed += len(decided)
            per_instance[i] = [(e or "; ".join(uncertified), dt) for e, dt in per_instance[i]]
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "traced": traced,
        "per_instance": per_instance,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def fastest_pass(report):
    """Sum over instances of each one's least time over the run's passes.

    The host's speed drifts by up to a quarter over tens of seconds, so a
    median pass time reports how long the host stayed slow as much as what
    the program costs; each instance's least time varies least between runs
    (see README.md).
    """
    return sum(min(dt for _error, dt in runs) for runs in report["per_instance"])


def layer_metrics(report, setup_self_s):
    """Per-layer metrics of a traced measurement."""
    from bench_trace import COUNTS, RUN_LAYERS, SETUP_LAYERS

    metrics = {}
    for layer in SETUP_LAYERS:
        metrics[f"{layer}_s"] = (setup_self_s.get(layer, 0.0), "s")
    others = []
    for (self_s, _counts, _stops), wall in zip(report["traced"], report["traced_walls"]):
        others.append(wall - sum(self_s.get(layer, 0.0) for layer in RUN_LAYERS))
    for layer in RUN_LAYERS:
        values = [self_s.get(layer, 0.0) for self_s, _c, _s in report["traced"]]
        metrics[f"{layer}_s"] = (statistics.median(values), "s")
    counts = report["traced"][0][1]
    for key in COUNTS:
        metrics[key] = (counts.get(key, 0), "count")
    stops = report["traced"][0][2]
    metrics["budget.stop_s"] = (sum(s["check_s"] for s in stops), "s")
    metrics["other_s"] = (statistics.median(others), "s")
    traced_wall = statistics.median(report["traced_walls"])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(report["walls"]), "s")
    decided = report["attempted"] - report["failed"]
    metrics["decided_share"] = (decided / report["attempted"], "ratio")
    return metrics


def print_summary(workload, report):
    """Human-readable lines ahead of the result line."""
    print(f"workload {workload.name} seed {workload.seed}: untraced passes"
          f" {[round(w, 3) for w in report['walls']]} s,"
          f" traced passes {[round(w, 3) for w in report['traced_walls']]} s")
    for inst, runs in zip(workload.instances, report["per_instance"]):
        errors = {e for e, _dt in runs if e is not None}
        state = "; ".join(sorted(errors)) if errors else "decided"
        median = statistics.median(dt for _e, dt in runs)
        print(f"  {inst.name}: {median:.3f} s median, {state}")
    if report["traced"]:
        for stop in report["traced"][0][2]:
            print("  budget stop " + json.dumps(stop, sort_keys=True))
    for problem in report["problems"]:
        print(f"  WRONG: {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bw = load_sources(ROOT)
    if args.workload not in bw.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(bw.WORKLOADS)}")
    if args.trace:
        from bench_trace import Tracer

        tracer = Tracer()
        with tracer.installed():
            workload = bw.build(args.workload, args.seed, ROOT)
        setup_self_s = dict(tracer.self_s)
        report = measure(bw, workload, pass_count(bw, args.workload, args.seconds), tracer)
        metrics = layer_metrics(report, setup_self_s)
    else:
        workload = bw.build(args.workload, args.seed, ROOT)
        setups = []

        def probe():
            # spread over the run, so that setup_s sees the same machine as wall_s
            if len(setups) < SETUP_PROBES:
                setups.append(probe_setup(args.workload, args.seed))

        report = measure(bw, workload, pass_count(bw, args.workload, args.seconds),
                         before_pass=probe)
        while len(setups) < SETUP_PROBES:
            probe()
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (fastest_pass(report), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
    print_summary(workload, report)
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
