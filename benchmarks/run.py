"""salsim benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --self-check

Runs from a checkout of the repository and imports salsim from its src/
directory. With --trace 0 it measures the end-to-end metrics with no
tracing; with --trace 1 it runs the workload untraced and traced in
turn and reports per-layer metrics, the tracing overhead and the
isolated microbenchmarks. Either way it checks every output: per-run
results and artifact bytes against reference.json when the seed has a
recorded reference, between repeated passes, and between traced and
untraced passes. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before
it describes the machine and the samples. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import types
from fractions import Fraction

import hostspeed
import micro
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
SETUP_PROBES = 9  # timed fresh-interpreter set-ups per run, after one untimed
MIN_ITERATIONS = 2  # so that every run sees its artifacts repeat
PERCENTILES = ("50", "90", "95", "99", "99.9", "99.99")

# RunResult fields the gate compares; later additions do not void the reference
RESULT_FIELDS = (
    "n_loops", "strategy", "seed", "mean_aoi", "mean_lqg", "per_loop_aoi",
    "per_loop_lqg", "padding_fraction", "trigger_rate", "discards",
    "published", "delivered",
)

HOT_LAYERS = tuple(name for _, _, name, span in tracer.TARGETS if not span)


def sal_calls(calls):
    """Calls into the sal layer, from layer name -> call count."""
    return sum(c for name, c in calls.items() if name in HOT_LAYERS and name.startswith("sal."))


def import_salsim():
    """Import salsim from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "salsim", "__init__.py")):
        sys.exit(f"benchmark: no salsim sources at {SRC}")
    sys.path.insert(0, SRC)
    import salsim

    if not os.path.abspath(salsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported salsim from {salsim.__file__}, not {SRC}")
    return salsim


# ------------------------------------------------------------ statistics


def tail(samples):
    """(value, percentile): the highest of PERCENTILES with at least ten
    samples beyond it, by nearest rank; the maximum ("100") when there
    are too few samples for any."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in reversed(PERCENTILES):
        rank = math.ceil(Fraction(q) * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], q
    return ordered[-1], "100"


# ----------------------------------------------------------- correctness


def _canonical(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_canonical, value)) + ")"
    return repr(value)


def run_digest(result):
    text = "|".join(f"{f}={_canonical(getattr(result, f))}" for f in RESULT_FIELDS)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def fingerprint(iteration):
    """Digests of every run result and artifact of one iteration."""
    return {
        "runs": [run_digest(r) for r in iteration.results],
        "artifacts": {name: file_digest(p) for name, p in sorted(iteration.artifacts.items())},
    }


def mismatches(got, want):
    """Number of runs and artifacts in `got` that differ from `want`."""
    runs_got, runs_want = got["runs"], want["runs"]
    bad = sum(a != b for a, b in zip(runs_got, runs_want)) + abs(len(runs_got) - len(runs_want))
    arts_got, arts_want = got["artifacts"], want["artifacts"]
    bad += sum(arts_got.get(name) != d for name, d in arts_want.items())
    return bad + len(arts_got.keys() - arts_want.keys())


def load_reference(workload, seed):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {}).get(str(seed))


class Gate:
    """Counts operations attempted and failed. The first pass is held to
    the recorded reference, when there is one; every later pass, traced
    or not, must reproduce the first bit for bit."""

    def __init__(self, reference):
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, count, note):
        self.failed += count
        self.notes.append(note)

    def check(self, fp, label):
        """Hold one pass's fingerprint to the reference or the first pass."""
        self.attempted += len(fp["runs"]) + len(fp["artifacts"])
        if self.first is None:
            self.first = fp
            want, against = self.reference, "reference"
        else:
            want, against = self.first, "first pass"
        if want is not None:
            bad = mismatches(fp, want)
            if bad:
                self.fail(bad, f"{label}: {bad} outputs differ from the {against}")


# ----------------------------------------------------------- measurement


def machine():
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def measure_setup(config_paths):
    """Median seconds, at the reference speed, from starting a fresh
    interpreter to its "ready"."""
    cmd = [sys.executable, os.path.join(HERE, "probe_setup.py"), SRC, *config_paths]

    def probe():
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code} after {line!r}")
        return elapsed

    probe()  # the first start fills the bytecode and file caches
    # the probes run in child processes, so the reference loops are
    # taken between them, and scale their median
    speed = hostspeed.HostSpeed()
    samples = []
    for _ in range(SETUP_PROBES):
        speed.sample(hostspeed.BRACKET_LOOPS)
        samples.append(probe())
    speed.sample(hostspeed.BRACKET_LOOPS)
    return hostspeed.scale(statistics.median(samples), speed.samples)


def run_iteration(salsim, workload, paths, out_dir, gate, label):
    """One checked pass, or None when the program raised or left an
    artifact unwritten. Artifacts go to out_dir/artifacts."""
    try:
        it = workloads.iterate(salsim, workload, paths, os.path.join(out_dir, "artifacts"))
        fp = fingerprint(it)
    except Exception:
        traceback.print_exc()
        gate.attempted += 1
        gate.fail(1, f"{label}: raised")
        return None
    gate.check(fp, label)
    return it


def measure_untraced(salsim, workload, paths, out_dir, seconds, gate):
    """End-to-end metrics. Only per-pass summaries outlive a pass, so
    memory does not grow with the number of passes."""
    setup_s = measure_setup(list(paths.values()))
    # per pass: wall_s, raw_wall_s, reference_s, and the run() latencies
    # or, on tiny_runs, their (p50, tail, sum)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        it = run_iteration(salsim, workload, paths, out_dir, gate, f"pass {len(passes)}")
        if it is None:
            break
        if workload.sweeps:
            runs = it.run_s
        else:
            runs = (statistics.median(it.run_s), tail(it.run_s), sum(it.run_s))
        passes.append((it.wall_s, it.raw_wall_s, it.reference_s, runs))
        per_pass, loop_slots = len(it.run_s), it.loop_slots
        sizes = [r.n_loops for r in it.results]
        del it
        now = time.perf_counter()
        if len(passes) >= MIN_ITERATIONS and now - start + (now - t0) > seconds:
            break
    if not passes:
        return None, {}
    # Every time is scaled to the reference speed (hostspeed.py), and
    # then reduced by medians over the passes. A sweep repeats its grid
    # cells in the same order: each cell is one run() of 0.3 s or more,
    # reduced to its median over the passes. Throughput is the
    # loop-slots of a pass over the sum of those medians, and the median
    # and tail are taken over the cells of the largest loop count;
    # smaller ones are there for the plots. A tiny_runs pass lasts about
    # 30 ms; its run() median and tail are medians over passes of each
    # pass's median and p95, so that slow calls which recur in most
    # passes show in the tail.
    walls, raw_walls, references, runs = zip(*passes)
    wall = statistics.median(walls)
    if workload.sweeps:
        cells = [statistics.median(times) for times in zip(*runs)]
        rate = loop_slots / sum(cells)
        top = [c for n, c in zip(sizes, cells) if n == max(sizes)]
        p50, (tail_s, percentile) = statistics.median(top), tail(top)
        over = f"the median of {len(passes)} passes for each of {len(top)} grid cells at N={max(sizes)}"
    else:
        rate = statistics.median(loop_slots / r[2] for r in runs)
        p50 = statistics.median(r[0] for r in runs)
        tail_s, percentile = statistics.median(r[1][0] for r in runs), runs[0][1][1]
        over = f"{per_pass} calls of a pass, then the median over {len(passes)} passes"
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "loop_slots_per_s": (rate, "1/s"),
        "run_us.p50": (p50 * 1e6, "us"),
        "run_us.tail": (tail_s * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "passes": len(passes),
        "runs_per_pass": per_pass,
        "loop_slots_per_pass": loop_slots,
        "run_us": {
            "samples": per_pass * len(passes),
            "percentiles_over": over,
            "tail_percentile": percentile,
        },
        "unscaled": {
            "wall_s": statistics.median(raw_walls),
            "reference_s": statistics.median(references),
            "nominal_reference_s": hostspeed.NOMINAL_S,
        },
    }
    return metrics, details


def replay_pass(salsim, iteration, gate):
    """Σ (t − gen) over every delivery, from run(record_traces=True).

    Untimed. Recording traces must not change a result, so each rerun is
    also held to the result it repeats.
    """
    steps = 0
    for base, result in zip(iteration.bases, iteration.results):
        again = salsim.run(workloads.result_config(base, result), record_traces=True)
        gate.attempted += 1
        if run_digest(again) != run_digest(result):
            gate.fail(1, f"record_traces changed run {result.strategy} N={result.n_loops} seed={result.seed}")
        steps += sum(t - gen for t, _, gen in again.delivery_log)
    return steps


def layer_metrics(tracers, iteration):
    """Per-layer metrics per pass, averaged over the traced passes."""
    k = len(tracers)

    def calls(name):
        return tracers[0].stats[name].calls

    def seconds(name, attr="total_s"):
        return sum(getattr(t.stats[name], attr) for t in tracers) / k

    m = {
        "engine.run.calls": (calls("engine.run"), "count"),
        "engine.run.s": (seconds("engine.run"), "s"),
        "engine.run.self_s": (seconds("engine.run", "self_s"), "s"),
        "engine.validate.calls": (calls("engine.validate"), "count"),
        "engine.validate.s": (seconds("engine.validate"), "s"),
        "engine.make_plants.calls": (calls("engine.make_plants"), "count"),
        "plant.solve_riccati.calls": (calls("plant.solve_riccati"), "count"),
        "plant.solve_riccati.s": (seconds("plant.solve_riccati"), "s"),
        "sal.calls": (sal_calls({n: calls(n) for n in HOT_LAYERS}), "count"),
    }
    for name in HOT_LAYERS:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (seconds(name), "s")
    m["metrics.write_csv.s"] = (seconds("metrics.write_csv"), "s")
    m["metrics.render_plot.s"] = (seconds("metrics.render_plot"), "s")
    results = iteration.results
    published = sum(r.published for r in results)
    m["sal.delivered_per_published"] = (
        sum(r.delivered for r in results) / published if published else 0.0, "ratio"
    )
    m["sal.padding_fraction"] = (statistics.fmean(r.padding_fraction for r in results), "frac")
    m["sal.discards"] = (sum(r.discards for r in results), "count")
    m["publisher.trigger_rate"] = (statistics.fmean(r.trigger_rate for r in results), "frac")
    m["engine.nonfinite_runs"] = (
        sum(
            not all(map(math.isfinite, (r.mean_aoi, r.mean_lqg, *r.per_loop_aoi, *r.per_loop_lqg)))
            for r in results
        ),
        "count",
    )
    return m


def measure_traced(salsim, workload, paths, out_dir, seconds, seed, gate):
    """Per-layer metrics from alternating untraced and traced passes."""
    untraced_walls, traced_walls, tracers = [], [], []
    first = None  # the first traced pass; later ones keep only their counters
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        u = run_iteration(salsim, workload, paths, out_dir, gate, f"untraced pass {len(tracers)}")
        if u is None:
            break
        tr = tracer.Tracer(salsim)
        with tr:
            t = run_iteration(salsim, workload, paths, out_dir, gate, f"traced pass {len(tracers)}")
        if t is None:
            break
        untraced_walls.append(u.wall_s)
        traced_walls.append(t.wall_s)
        if first is None:
            first = t
        else:
            tr.spans.clear()
            if any(s.calls != tracers[0].stats[n].calls for n, s in tr.stats.items()):
                gate.fail(1, f"traced pass {len(tracers)}: layer call counts differ from pass 0")
        tracers.append(tr)
        del u, t
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    if first is None:
        return None, {}
    metrics = layer_metrics(tracers, first)
    metrics["plant.replay_steps"] = (replay_pass(salsim, first, gate), "count")
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    for name, (us, ok) in micro.run_all(salsim, seed).items():
        gate.attempted += 1
        if not ok:
            gate.fail(1, f"{name}: output differs from its check")
        metrics[name] = (us, "us")
    with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, **tracers[0].dump()}, fh)
    details = {
        "pairs": len(tracers),
        "runs_per_pass": len(first.results),
        "loop_slots_per_pass": first.loop_slots,
        "spans": len(tracers[0].spans),
    }
    return metrics, details


# ------------------------------------------------------------ self-check


class HarnessError(Exception):
    """Raised when the harness fails its own self-check."""


def require(condition, what):
    if not condition:
        raise HarnessError(what)


def check_harness():
    """Instant checks of the harness arithmetic."""
    require(tail(range(1, 1001)) == (990, "99"), "p99 of 1000 samples")
    require(tail(range(1, 201)) == (190, "95"), "p95 of 200 samples")
    require(tail(range(1, 21)) == (10, "50"), "p50 of 20 samples")
    require(tail([3, 1, 2]) == (3, "100"), "maximum of too few samples")
    ticks = iter(range(1, 100))
    api = types.SimpleNamespace()
    api.inner = lambda: None
    api.outer = lambda: (api.inner(), api.inner())
    originals = (api.inner, api.outer)
    targets = (("", "outer", "t.outer", True), ("", "inner", "t.inner", False))
    tr = tracer.Tracer(api, targets, clock=lambda: next(ticks))
    with tr:
        api.outer()
    require((api.inner, api.outer) == originals, "tracer restores what it wrapped")
    outer, inner = tr.stats["t.outer"], tr.stats["t.inner"]
    require((outer.calls, outer.total_s, outer.self_s) == (1, 5, 3), "outer span times")
    require((inner.calls, inner.total_s, inner.self_s) == (2, 2, 2), "inner counter times")
    require(tr.spans == [("t.outer", -1, 1, 6)], "span record")
    ticks = iter(range(1, 100))
    speed = hostspeed.HostSpeed(clock=lambda: next(ticks), loop=lambda: None)
    # a call during which two samples are taken, as the alarm would
    _, raw, scaled = speed.timed(lambda: (speed.sample(), speed.sample()))
    require((raw, speed.spent, speed.samples) == (3, 3, [1, 1, 1]), "reference loops left out")
    require(math.isclose(scaled, 3 * hostspeed.NOMINAL_S), "scaled to the reference speed")
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed():
        require(signal.getitimer(signal.ITIMER_REAL)[1] > 0, "sampling timer armed")
    require(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "sampling timer stopped")
    require(signal.getsignal(signal.SIGALRM) is previous, "alarm handler restored")


def self_check(salsim):
    """Harness checks plus a small traced-versus-untraced comparison."""
    check_harness()
    saved = [tracer.resolve(salsim, d).__dict__[a] for d, a, _, _ in tracer.TARGETS]
    cases = {
        ("UA", "AOI_COST"): lambda s: s["sal.calls"] == 0,
        ("FA+TIS", "AOI_COST"): lambda s: s["sal.calls"] == 0,
        ("FA", "FIFO"): lambda s: s["sal.select_uniform"] > 0 and s["publisher.encode_value"] > 0,
        ("UA", "ROUND_ROBIN"): lambda s: s["sal.DataReader.process"] > 0,
        ("UC", "AOI_COST"): lambda s: s["sal.ingest_compound"] > 0 and s["sal.select_uniform"] == 0,
    }
    for (strategy, policy), expect in cases.items():
        config = salsim.SimConfig(n_loops=5, horizon=3000, warmup=100, strategy=strategy, policy=policy)
        plain = run_digest(salsim.run(config))
        tr = tracer.Tracer(salsim)
        with tr:
            traced = run_digest(salsim.run(config))
        calls = {n: s.calls for n, s in tr.stats.items()}
        calls["sal.calls"] = sal_calls(calls)
        case = f"{strategy}/{policy}"
        require(plain == traced, f"{case}: traced result differs")
        require(calls["engine.run"] == 1 and calls["engine.make_plants"] == 2, f"{case}: {calls}")
        require(expect(calls), f"{case}: unexpected layer calls {calls}")
    restored = [tracer.resolve(salsim, d).__dict__[a] for d, a, _, _ in tracer.TARGETS]
    require(all(a is b for a, b in zip(saved, restored)), "tracer left a wrapper installed")
    for name in workloads.WORKLOADS:
        require(load_reference(name, DEFAULT_SEED) is not None, f"no reference for {name}")


# ------------------------------------------------------------------ main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    salsim = import_salsim()
    check_harness()
    if args.self_check:
        self_check(salsim)
        print(json.dumps({"self_check": "ok", "machine": machine()}))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    paths = workloads.write_configs(workload, args.seed, out_dir)
    gate = Gate(load_reference(workload.name, args.seed))
    if args.trace:
        metrics, details = measure_traced(
            salsim, workload, paths, out_dir, args.seconds, args.seed, gate
        )
    else:
        metrics, details = measure_untraced(salsim, workload, paths, out_dir, args.seconds, gate)
    if metrics is None:
        print("; ".join(gate.notes), file=sys.stderr)
        return 1
    details.update(
        workload=workload.name,
        seed=args.seed,
        config_seed=workloads.config_seed(args.seed),
        reference_checked=gate.reference is not None,
        failures=gate.notes,
        machine=machine(),
    )
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
