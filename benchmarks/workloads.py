"""The four benchmark workloads and one iteration of each.

Every input the simulator sees is a flat config file generated here from
the benchmark seed; the iteration functions then drive salsim only
through its public API (load_config, sweep, run, summarize, write_csv,
render_plot), with jobs=1, from the calling process. `api` is the
imported `salsim` package; names are looked up on it at call time so
that the traced run's wrappers take effect.
"""

import dataclasses
import os
import shutil
import time
from dataclasses import dataclass

import hostspeed

# run() calls per tiny_runs pass, and so the group size for its tail
# percentile: p95 however fast run() becomes. A pass lasts about 30 ms,
# short enough to fall inside one episode of host contention.
TINY_BLOCK = 200

# the paper's horizon and warmup for every sweep workload
SWEEP_SLOTS = {"horizon": 100_000, "warmup": 1_000}


def config_seed(seed):
    """Simulator seed for a benchmark seed; blocks of 1000 never overlap."""
    return 1 + 1000 * seed


@dataclass(frozen=True)
class Sweep:
    config: str  # config file name
    n_values: tuple
    strategies: tuple
    csv: str
    plots: bool  # both SVG plots; they need two loop counts and finite values


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each is in the set."""

    name: str
    configs: dict  # config file name -> keys other than the seed
    sweeps: tuple = ()  # empty for the run() workload


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="atomic_n20",
            configs={
                "atomic.cfg": dict(
                    n_loops=20, strategy="UA", loss_prob=0.1, tb_capacity=64,
                    deadband=0.5, repetitions=1, policy="AOI_COST", **SWEEP_SLOTS,
                ),
            },
            # N=5 rides along because a plot needs two loop counts
            sweeps=(Sweep("atomic.cfg", (5, 20), ("UA", "FA", "FA+TIS"), "atomic.csv", True),),
        ),
        Workload(
            name="compound_n20",
            configs={
                "compound.cfg": dict(
                    n_loops=20, strategy="UC", loss_prob=0.1, tb_capacity=64,
                    deadband=0.5, repetitions=1, policy="AOI_COST", **SWEEP_SLOTS,
                ),
            },
            sweeps=(Sweep("compound.cfg", (5, 20), ("UC", "FC"), "compound.csv", True),),
        ),
        Workload(
            name="object_policies",
            configs={
                f"{policy.lower()}.cfg": dict(
                    n_loops=10, strategy="UA", loss_prob=0.1, tb_capacity=64,
                    deadband=0.5, repetitions=1, policy=policy, **SWEEP_SLOTS,
                )
                for policy in ("FIFO", "ROUND_ROBIN")
            },
            # no plots: one loop count, and FIFO's LQG cost is not finite
            sweeps=tuple(
                Sweep(f"{p}.cfg", (10,), ("UA", "FA"), f"{p}.csv", False)
                for p in ("fifo", "round_robin")
            ),
        ),
        Workload(
            name="tiny_runs",
            configs={
                "tiny.cfg": dict(
                    n_loops=1, horizon=8, warmup=0, strategy="UA", loss_prob=0.3,
                    tb_capacity=64, deadband=0.5, repetitions=1, policy="AOI_COST",
                ),
            },
        ),
    )
}


def write_configs(workload, seed, directory):
    """Write the workload's config files for `seed`; return name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, keys in workload.configs.items():
        lines = [f"{key} = {value}" for key, value in keys.items()]
        lines.append(f"seed = {config_seed(seed)}")
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        paths[name] = path
    return paths


@dataclass
class Iteration:
    """What one pass over a workload produced and how long it took."""

    results: list  # RunResult per run() call, in call order
    bases: list  # the base config each result was derived from
    run_s: list  # latency of each run() call, in call order, scaled
    wall_s: float  # first sweep()/run() call to the last artifact byte, scaled
    raw_wall_s: float  # the same, unscaled; neither counts reference samples
    reference_s: float  # mean reference sample of the pass
    loop_slots: int  # sum of n_loops * horizon over all runs
    artifacts: dict  # artifact file name -> path


class RunClock:
    """Times each salsim.engine.run call that sweep() makes.

    The one hook in an untraced run: two clock reads around each run,
    scaled by the reference samples taken while it ran (see
    hostspeed.py), and sweep runs last 0.3 s or more. sweep() looks
    `run` up in the engine module at every call, so replacing it there
    is enough.
    """

    def __init__(self, engine, speed):
        self.engine = engine
        self.speed = speed
        self.raw = []
        self.scaled = []

    def __enter__(self):
        original = self.original = self.engine.run
        timed = self.speed.timed
        raw, scaled = self.raw, self.scaled

        def timed_run(*args, **kwargs):
            result, raw_s, scaled_s = timed(original, *args, **kwargs)
            raw.append(raw_s)
            scaled.append(scaled_s)
            return result

        self.engine.run = timed_run
        return self

    def __exit__(self, *exc):
        self.engine.run = self.original


def iterate(api, workload, config_paths, out_dir):
    """Run one pass of `workload`, writing its artifacts into out_dir.

    out_dir is emptied first, so an artifact that a pass fails to write
    is missing rather than left over from an earlier pass.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    if workload.sweeps:
        return _iterate_sweeps(api, workload, config_paths, out_dir)
    return _iterate_tiny(api, config_paths, out_dir)


def _iterate_sweeps(api, workload, config_paths, out_dir):
    bases = {name: api.load_config(path) for name, path in config_paths.items()}
    speed = hostspeed.HostSpeed()
    clock = RunClock(api.engine, speed)
    results = []
    sources = []
    artifacts = {}
    loop_slots = 0
    with speed:
        start = time.perf_counter()
        for sw in workload.sweeps:
            base = bases[sw.config]
            with clock:
                rows = api.sweep(base, sw.n_values, sw.strategies, jobs=1)
            api.summarize(rows)
            csv_path = artifacts[sw.csv] = os.path.join(out_dir, sw.csv)
            api.write_csv(rows, csv_path)
            if sw.plots:
                for metric in ("aoi", "lqg"):
                    name = sw.csv.replace(".csv", f"_{metric}.svg")
                    svg_path = artifacts[name] = os.path.join(out_dir, name)
                    api.render_plot(csv_path, api.PlotSpec(metric), svg_path)
            results.extend(rows)
            sources.extend([base] * len(rows))
            loop_slots += sum(r.n_loops for r in rows) * base.horizon
        wall = time.perf_counter() - start - speed.spent
    # outside run() (sweep's own work, summarize, artifacts) the pass is
    # scaled by all its reference samples
    outside = hostspeed.scale(wall - sum(clock.raw), speed.samples)
    return Iteration(
        results, sources, clock.scaled, sum(clock.scaled) + outside, wall,
        sum(speed.samples) / len(speed.samples), loop_slots, artifacts,
    )


def _iterate_tiny(api, config_paths, out_dir):
    base = api.load_config(config_paths["tiny.cfg"])
    configs = [dataclasses.replace(base, seed=base.seed + j) for j in range(TINY_BLOCK)]
    run = api.run
    clock = time.perf_counter
    speed = hostspeed.HostSpeed()
    results = []
    times = []
    speed.sample(hostspeed.BRACKET_LOOPS)
    start = clock()
    for config in configs:
        t0 = clock()
        results.append(run(config))
        times.append(clock() - t0)
    csv_path = os.path.join(out_dir, "tiny.csv")
    api.write_csv(results, csv_path)
    wall = clock() - start
    speed.sample(hostspeed.BRACKET_LOOPS)
    # too short for samples during it, so the samples on both sides scale it all
    factor = hostspeed.scale(1.0, speed.samples)
    loop_slots = sum(r.n_loops for r in results) * base.horizon
    return Iteration(
        results, [base] * len(results), [t * factor for t in times], wall * factor, wall,
        sum(speed.samples) / len(speed.samples), loop_slots, {"tiny.csv": csv_path},
    )


def result_config(base, result):
    """The config that produced `result`, rebuilt as sweep() builds it."""
    return dataclasses.replace(
        base, n_loops=result.n_loops, strategy=result.strategy, tis=False, seed=result.seed
    )
