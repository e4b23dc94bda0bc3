"""Per-cell speed of salsim, scaled to the reference host speed.

    python tools/bench.py OUT.json [OTHER_TREE] [--n 5,10,15,20] [--slots 2000] [--pairs 1] [--stages]

Measures the source tree that holds this script and, when OTHER_TREE is
given, that checkout too. Each tree is measured in a fresh interpreter,
after `python -m compileall -q src` in it, and the trees take turns
(this one first in the first, third, ... pair). One measurement records:

- for each (N, strategy) cell of the default grid (UC, FC, UA, FA and
  FA+TIS; the default config otherwise, with `--slots` slots and no
  warmup): microseconds per slot of run_cell over the default 20 seeds,
  which takes the lockstep pass, the median of CELL_CALLS calls, and of
  run() on the first seed alone, as one call of either is too short to
  resolve;
- for UA and FA under each of POLICIES at each N (cells "N/UA/FIFO"
  and so on), the microseconds per slot of run() alone: these cells
  never take the lockstep pass. Every cell's run() time is the median
  of RUN_CALLS rounds, each of which calls every cell's run() once;
- the fixed cost of one run: microseconds per run() call of the 8-slot
  single-loop instance that the benchmark's tiny_runs workload uses,
  the median of TINY_BLOCKS blocks of TINY_CALLS calls;
- with --stages, for each cell that takes the lockstep pass, the
  microseconds per slot that one more run_cell call spends in each
  stage of the pass (STAGES: the wrapped lockstep methods), the rest as
  "control, plant and slot loop", and that call's wrapped total, which
  exceeds the plain one by what the wrappers cost;
- the `src/` line count.

Every time is scaled by benchmarks/hostspeed.py's reference loop, as the
benchmark scales its own, so runs on a busy host stay comparable. OUT
gets each tree's medians over the pairs and, with two trees, each
cell's median paired ratio (this tree's time over the other's) and the
median paired ratio of the summed cell times.
"""

import argparse
import dataclasses
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import hostspeed  # noqa: E402

STRATEGIES = ("UC", "FC", "UA", "FA", "FA+TIS")
TINY = dict(n_loops=1, horizon=8, warmup=0, strategy="UA", loss_prob=0.3, repetitions=1)
TINY_CALLS = 200
TINY_BLOCKS = 5
# rounds of run() calls: fifteen kept two measurements of one tree
# within 5% per cell, where five calls of a cell in a row spread 10%
RUN_CALLS = 15
CELL_CALLS = 3
POLICIES = ("FIFO", "ROUND_ROBIN")
POLICY_STRATEGIES = ("UA", "FA")
# lockstep stages timed by --stages: salsim.lockstep (class, method) pairs
STAGES = {
    "noise": [("_Streams", "noise")],
    "arrivals": [("_Streams", "arrivals")],
    "step": [("_Atomic", "step"), ("_Compound", "step")],
    "replay": [("_Link", "replay"), ("_Atomic", "replay")],  # _Atomic's calls _Link's
    "begin_block": [("_Atomic", "begin_block"), ("_Compound", "begin_block")],
    "end_block": [("_Atomic", "end_block"), ("_Compound", "end_block")],
    "fold": [("PairwiseFold", "extend")],
}
REST = "control, plant and slot loop"


def staged(speed, cell, slots):
    """One run_cell call of a lockstep cell with STAGES wrapped.

    Returns microseconds per slot for each stage and REST, and the
    wrapped total. Reference loops that the host-speed sampler runs
    inside a stage are left out of it, and every time is scaled as the
    whole call is.
    """
    from salsim import lockstep
    from salsim.engine import run_cell

    spent = dict.fromkeys(STAGES, 0.0)
    inside = set()

    def wrap(stage, method):
        @functools.wraps(method)
        def timed(*args, **kwargs):
            if stage in inside:  # a nested call of the same stage
                return method(*args, **kwargs)
            inside.add(stage)
            start, loops = speed.clock(), speed.spent
            try:
                return method(*args, **kwargs)
            finally:
                spent[stage] += speed.clock() - start - (speed.spent - loops)
                inside.discard(stage)

        return timed

    originals = []
    try:
        for stage, targets in STAGES.items():
            for owner, name in targets:
                cls = getattr(lockstep, owner)
                method = vars(cls)[name]
                originals.append((cls, name, method))
                setattr(cls, name, wrap(stage, method))
        _, raw, scaled = speed.timed(run_cell, cell)
    finally:
        for cls, name, method in originals:
            setattr(cls, name, method)
    us_per_slot = scaled / raw / slots * 1e6  # per raw second
    stages = {stage: s * us_per_slot for stage, s in spent.items()}
    stages[REST] = (raw - sum(spent.values())) * us_per_slot
    return {"stages_us_per_slot": stages, "staged_us_per_slot": raw * us_per_slot}


def measure(n_values, slots, stages=False):
    """One measurement of the salsim that is importable here, as a dict."""
    # imported here: the measuring interpreter's path picks the tree
    from salsim.engine import SimConfig, _takes_lockstep, run, run_cell

    run(SimConfig(**TINY))  # untimed: the first call pays for lazy set-up
    speed = hostspeed.HostSpeed()
    cells = {}
    runs = {}  # cell -> the config whose run() is timed
    with speed:
        for n in n_values:
            for token in STRATEGIES:
                name = f"{n}/{token}"
                base = runs[name] = SimConfig(n_loops=n, strategy=token, horizon=slots, warmup=0)
                seeds = range(base.seed, base.seed + base.repetitions)
                cell = [dataclasses.replace(base, seed=seed) for seed in seeds]
                cell_s = statistics.median(speed.timed(run_cell, cell)[2] for _ in range(CELL_CALLS))
                cells[name] = {"cell_us_per_slot": cell_s / slots * 1e6}
                if stages and _takes_lockstep(cell):
                    cells[name].update(staged(speed, cell, slots))
            for policy in POLICIES:
                for token in POLICY_STRATEGIES:
                    name = f"{n}/{token}/{policy}"
                    runs[name] = SimConfig(n_loops=n, strategy=token, policy=policy, horizon=slots, warmup=0)
                    cells[name] = {}
        # one call of each cell per round, so that a slow spell of the
        # host falls on many cells once rather than on one cell throughout
        times = {name: [] for name in runs}
        for _ in range(RUN_CALLS):
            for name, config in runs.items():
                times[name].append(speed.timed(run, config)[2])
    for name, samples in times.items():
        cells[name]["run_us_per_slot"] = statistics.median(samples) / slots * 1e6
    tiny = [dataclasses.replace(SimConfig(**TINY), seed=seed) for seed in range(TINY_CALLS)]
    per_call = []
    for _ in range(TINY_BLOCKS):
        # too short to sample during, so loops on both sides scale it
        speed.sample(hostspeed.BRACKET_LOOPS)
        start = speed.clock()
        for config in tiny:
            run(config)
        raw = speed.clock() - start
        speed.sample(hostspeed.BRACKET_LOOPS)
        per_call.append(hostspeed.scale(raw, speed.samples[-2 * hostspeed.BRACKET_LOOPS :]))
    return {"cells": cells, "tiny_run_us": statistics.median(per_call) / TINY_CALLS * 1e6}


def src_lines(tree):
    return sum(len(path.read_bytes().splitlines()) for path in (tree / "src").rglob("*.py"))


def commit(tree):
    """The tree's checked-out commit, marked when its files differ from it."""
    described = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    )
    return described.stdout.strip() or None


def measure_tree(tree, n_values, slots, stages=False):
    """measure() in a fresh interpreter that imports salsim from `tree`."""
    src = tree / "src"
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], check=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    sizes = ",".join(map(str, n_values))
    out = subprocess.run(
        [sys.executable, __file__, "--measure", "--n", sizes, "--slots", str(slots)]
        + ["--stages"] * stages,
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    return json.loads(out)


def summary(runs):
    """Medians over a tree's measurements, and its summed cell time per pass."""
    return {
        "cells": {cell: medians([r["cells"][cell] for r in runs]) for cell in runs[0]["cells"]},
        "summed_cell_us_per_slot": statistics.median(summed(r) for r in runs),
        "tiny_run_us": statistics.median(r["tiny_run_us"] for r in runs),
    }


def medians(records):
    """Key by key median of equal-shape dicts whose values are numbers or such dicts."""
    out = {}
    for key in records[0]:
        values = [r[key] for r in records]
        out[key] = medians(values) if isinstance(values[0], dict) else statistics.median(values)
    return out


def summed(measurement):
    """The summed lockstep cell times of a measurement."""
    cells = measurement["cells"].values()
    return sum(cell["cell_us_per_slot"] for cell in cells if "cell_us_per_slot" in cell)


def paired_ratios(mine, other):
    """Median over pairs of this tree's time over the other's, per cell and summed."""
    ratios = {
        cell: {
            key: statistics.median(m["cells"][cell][key] / o["cells"][cell][key]
                                   for m, o in zip(mine, other))
            for key in ("cell_us_per_slot", "run_us_per_slot")
            if key in mine[0]["cells"][cell]
        }
        for cell in mine[0]["cells"]
    }
    pairs = [summed(m) / summed(o) for m, o in zip(mine, other)]
    return {
        "cells": ratios,
        "summed_cell_us_per_slot": statistics.median(pairs),
        "summed_pairs": pairs,
        "summed_pairs_won": sum(ratio < 1.0 for ratio in pairs),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="JSON file to write")
    parser.add_argument("other", nargs="?", type=Path, help="a second source tree to compare")
    parser.add_argument("--n", default="5,10,15,20", help="comma-separated loop counts")
    parser.add_argument("--slots", type=int, default=2000, help="slots per run")
    parser.add_argument("--pairs", type=int, default=1, help="measurements of each tree")
    parser.add_argument("--stages", action="store_true", help="time the lockstep stages too")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    n_values = [int(part) for part in args.n.split(",")]
    if args.measure:
        print(json.dumps(measure(n_values, args.slots, args.stages)))
        return
    if args.out is None:
        parser.error("the output file is required")
    trees = [ROOT] + ([args.other.resolve()] if args.other else [])
    runs = [[] for _ in trees]
    for pair in range(args.pairs):
        order = range(len(trees)) if pair % 2 == 0 else reversed(range(len(trees)))
        for at in order:
            runs[at].append(measure_tree(trees[at], n_values, args.slots, args.stages))
            print(f"pair {pair + 1}/{args.pairs}: {trees[at]}", file=sys.stderr)
    report = {
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
        },
        "slots": args.slots,
        "pairs": args.pairs,
        "time_unit": "microseconds at hostspeed's reference speed",
        "trees": [
            {"commit": commit(tree), "src_lines": src_lines(tree), **summary(tree_runs)}
            for tree, tree_runs in zip(trees, runs)
        ],
    }
    if args.other:
        report["ratios"] = paired_ratios(*runs)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
