"""Tests of the benchmark itself.

Run from the root of a checkout with: python3 -m pytest perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

bw = run.load_sources(run.ROOT)

from bench_trace import Tracer  # noqa: E402  (needs the sources on sys.path)
from gslmc import formula as fm  # noqa: E402
from gslmc.cgs import load_cgs  # noqa: E402
from gslmc.oracle import oracle_check  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name, tracer=None):
    workload = bw.build(name, 7, run.ROOT, tiny=True)
    return workload, run.measure(bw, workload, 2, tracer)


@pytest.mark.parametrize("name", bw.WORKLOADS)
def test_each_workload_runs_at_tiny_size(name):
    workload, report = _tiny(name)
    assert report["problems"] == []
    assert report["attempted"] == 2 * len(workload.instances)
    # at tiny size only the desk3-reach SPE sentence still stops on its budget
    assert report["failed"] == (2 if name == "desk3-reach" else 0)
    assert report["peak_rss_mb"] > 0


@pytest.mark.parametrize("name", bw.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    _workload, report = _tiny(name, Tracer())
    metrics = run.layer_metrics(report, {})
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(unit == units[key] for key, (_value, unit) in metrics.items())


@pytest.mark.parametrize("workload, index", [("fixtures", 0), ("parity-games", 1)])
def test_flipped_answer_fails_the_gate(workload, index):
    built = bw.build(workload, 7, run.ROOT, tiny=True)
    inst = built.instances[index]
    flipped = {bw.HOLDS: bw.FAILS, bw.FAILS: bw.HOLDS, 0: 1, 1: 0}
    inst.answer = flipped[inst.answer]
    report = run.measure(bw, built, 1)
    assert report["problems"]
    assert all(p.startswith(inst.name) for p in report["problems"])


def test_pass_count_depends_only_on_the_arguments():
    for name in bw.WORKLOADS:
        assert run.pass_count(bw, name, 0) == 2
        assert run.pass_count(bw, name, 10 * bw.PASS_S[name]) == 10


def test_wall_s_sums_each_instance_least_time():
    report = {"per_instance": [[(None, 2.0), (None, 1.0)], [("budget stop", 0.5), (None, 0.7)]]}
    assert run.fastest_pass(report) == 1.5


def test_unverified_strategy_is_a_failed_operation_not_a_wrong_verdict():
    inst = bw.build("parity-games", 7, run.ROOT, tiny=True).instances[0]
    game, win, strat = inst.run()
    strat[:] = -1
    wrong, uncertified = bw.gate(inst, (game, win, strat))
    assert wrong == []
    assert len(uncertified) == 2


def test_budget_stop_is_attributed_to_the_raising_layer():
    _workload, report = _tiny("desk3-reach", Tracer())
    (_self_s, counts, stops) = report["traced"][0]
    assert counts["budget.stops"] == counts["budget.stops.determinize"] == 1
    (stop,) = stops
    assert stop["instance"] == "desk3-reach-unique-spe"
    assert stop["layer"] == "determinize.nondeterminize"
    assert stop["states"] > 0 and stop["letters"] > 0 and stop["directions"] == 3
    assert 0 < stop["layer_s"] <= stop["check_s"]


COUNT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
bw = run.load_sources(run.ROOT)
from bench_trace import Tracer
out = {}
for name in bw.WORKLOADS:
    report = run.measure(bw, bw.build(name, 7, run.ROOT, tiny=True), 2, Tracer())
    out[name] = report["traced"][0][1]
print(json.dumps(out, sort_keys=True))
"""


def test_counts_repeat_under_another_hash_seed():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", COUNT_SCRIPT, str(HERE)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]


def test_same_seed_gives_same_inputs():
    assert bw.ring_model(6, ("a0",), random.Random(3)) == bw.ring_model(6, ("a0",), random.Random(3))
    assert bw.ring_model(6, ("a0",), random.Random(3)) != bw.ring_model(6, ("a0",), random.Random(4))
    g1 = bw.random_game(50, np.random.default_rng(3))
    assert g1 == bw.random_game(50, np.random.default_rng(3))
    assert g1 != bw.random_game(50, np.random.default_rng(4))


@pytest.mark.parametrize("row", bw.RING, ids=[row[0] for row in bw.RING])
def test_oracle_agrees_with_ring_answers_at_n4(row):
    _name, agents, text, _n, _tiny_n, answer, _source, _why = row
    game = load_cgs(bw.ring_model(4, agents, random.Random(1)))
    result = oracle_check(game, fm.parse_formula(text, set(agents)))
    assert result.verdict == (answer == bw.HOLDS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixtures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
