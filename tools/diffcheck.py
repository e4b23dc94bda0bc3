"""Bit-identity check of salsim over a fixed, seeded corpus of configs.

    python tools/diffcheck.py [OTHER_TREE] [--show 5]

The corpus is drawn from CORPUS_SEED by this script, so every tree is
run on the same configs. It covers every strategy and policy, per-packet
loss, compound_maxlen 1-20, tb_capacity 7-2000, horizons 1-1,100 (many
next to the 512-slot block and its double) with any warmup, random
plants, scripted erasures (about a quarter of the runs), recorded traces
(about 30%), fields that validate() rejects, and run_cell cells of 2-20
seeds, which take the lockstep pass when they have seeds enough.

Each entry's digest is the SHA-256 of the repr of what it returns: the
RunResult, the list of a cell's results, or the exception it raises.
Without OTHER_TREE the script prints one "index digest" line per entry
for this tree; tests/diffcheck_digests.txt holds those lines as they
were recorded, and a change that keeps results keeps every line. With
OTHER_TREE it runs both trees, each in a fresh interpreter that imports
salsim from the tree's src/, and names the first entries that differ;
it exits 1 if any do.
"""

import argparse
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS_SEED = 20_240_521
RUNS = 1_100
CELLS = 60

STRATEGIES = ("UC", "FC", "UA", "FA", "FA+TIS")
POLICIES = ("AOI_COST", "FIFO", "ROUND_ROBIN")
# horizons next to one and two 512-slot blocks, and the shortest
EDGE_HORIZONS = (1, 2, 3, 63, 64, 65, 510, 511, 512, 513, 514, 1023, 1024, 1025, 1026, 1100)
# (field, value) pairs that validate() rejects, or that fail when run
BAD_FIELDS = [
    ("n_loops", 0), ("n_loops", -3), ("n_loops", True), ("n_loops", 2.0),
    ("horizon", 0), ("horizon", "10"), ("warmup", -1), ("warmup", "horizon"),
    ("loss_prob", 1.5), ("loss_prob", -0.1), ("loss_prob", float("nan")),
    ("loss_prob", float("inf")), ("loss_prob", True), ("loss_prob", "0.1"),
    ("tb_capacity", 6), ("tb_capacity", 29), ("tb_capacity", 7.0),
    ("deadband", -1.0), ("deadband", float("nan")), ("seed", -1), ("seed", 1.0),
    ("repetitions", 0), ("strategy", "ZZ"), ("strategy", 5), ("policy", "LIFO"),
    ("compound_maxlen", 0), ("a_min", 1.25), ("a_max", 1.5), ("sigma_w2", 0.0),
    ("q", -1.0), ("r", 0.0), ("per_packet_loss", 1), ("tis", "yes"),
    ("plants", "wrong length"), ("plants", "not a list"), ("plants", "zero b"),
    ("plants", "floats"), ("n_loops", 300), ("tb_capacity", 7), ("erasures", "short"),
]


def _horizon(rng):
    if rng.random() < 0.4:
        return rng.choice(EDGE_HORIZONS)
    return min(1100, int(1100 ** rng.random()))


def _config(rng, strategy, policy):
    """Keyword arguments of a SimConfig, and its plants as tuples or None.

    validate() accepts nearly all of them; a warmup of 1 slot in a
    horizon of 1 is rejected, as it should be.
    """
    n = rng.choice((1, 2, 3, 5, 8, 13, 20)) if rng.random() < 0.5 else rng.randint(1, 20)
    horizon = _horizon(rng)
    warmup = rng.choice((0, 0, 1, horizon - 1, rng.randrange(horizon)))
    compound = strategy in ("UC", "FC")
    low = 7 if compound else 30
    capacity = rng.choice((low, low + 1, 64, 2000, int(low * (2000 / low) ** rng.random())))
    kw = dict(
        n_loops=n, horizon=horizon, warmup=warmup, strategy=strategy, policy=policy,
        loss_prob=rng.choice((0.0, 1.0, 0.1, round(rng.random(), 3))),
        tb_capacity=capacity,
        deadband=rng.choice((0.0, 0.5, 3.0, round(2 * rng.random(), 3))),
        seed=rng.randrange(10**6),
        compound_maxlen=rng.randint(1, 20),
        per_packet_loss=rng.random() < 0.5,
        tis=strategy == "FA" and rng.random() < 0.2,
    )
    if compound and 1 + n * 28 > 255 * (capacity - 6):
        kw["tb_capacity"] = 64
    plants = None
    if rng.random() < 0.3:
        plants = [
            (round(rng.uniform(-1.3, 1.3), 4), rng.choice((1.0, -0.5, round(rng.uniform(0.2, 2), 3))),
             round(rng.uniform(0.1, 3), 3), round(rng.uniform(0.1, 5), 3), round(rng.uniform(0.1, 5), 3))
            for _ in range(n)
        ]
    else:
        a_min = round(rng.uniform(-1.3, 1.3), 3)
        kw.update(
            a_min=a_min, a_max=round(rng.uniform(a_min, 1.3), 3),
            sigma_w2=rng.choice((1.0, round(rng.uniform(0.1, 3), 3))),
            q=rng.choice((1.0, round(rng.uniform(0.1, 5), 3))),
            r=rng.choice((1.0, round(rng.uniform(0.1, 5), 3))),
        )
    return kw, plants


def _spoil(rng, entry):
    """Give a valid run entry one of BAD_FIELDS."""
    kw, plants = entry["kw"], entry["plants"]
    field, value = rng.choice(BAD_FIELDS)
    if field == "erasures":  # one slot short of the horizon
        entry["erasures"] = "0" * (kw["horizon"] - 1)
    elif field == "plants":
        full = plants or [(1.1, 1.0, 1.0, 1.0, 1.0)] * kw["n_loops"]
        if value == "wrong length":
            entry["plants"] = full + full[:1]
        elif value == "zero b":
            entry["plants"] = [(full[0][0], 0.0, *full[0][2:])] + full[1:]
        elif value == "not a list":
            entry["plants"] = "plants"
        else:
            entry["plants"] = [1.0] * kw["n_loops"]
    else:
        if value == "horizon":
            value = kw["horizon"]
        elif value == 300:  # too many loops for a compound packet's count byte
            kw["strategy"] = "FC"
        kw[field] = value


def corpus():
    """The fixed list of entries: dicts of plain data, described by describe()."""
    rng = random.Random(CORPUS_SEED)
    entries = []
    # the first entries cover every strategy and policy once
    combos = [(s, p) for s in STRATEGIES for p in POLICIES]
    for index in range(RUNS):
        if index < len(combos):
            strategy, policy = combos[index]
        else:
            strategy = rng.choice(STRATEGIES)
            policy = rng.choice(POLICIES) if rng.random() < 0.5 else "AOI_COST"
        kw, plants = _config(rng, strategy, policy)
        entry = dict(kind="run", kw=kw, plants=plants, erasures=None, traces=rng.random() < 0.3)
        if rng.random() < 0.25:
            density = rng.choice((0.0, 1.0, round(rng.random(), 3)))
            entry["erasures"] = "".join(
                "1" if rng.random() < density else "0" for _ in range(kw["horizon"] + rng.randint(0, 2))
            )
        if rng.random() < 0.06:
            _spoil(rng, entry)
        entries.append(entry)
    for _ in range(CELLS):
        strategy = rng.choice(STRATEGIES)
        kw, plants = _config(rng, strategy, "AOI_COST" if rng.random() < 0.85 else "FIFO")
        # many seeds, so that most cells take the lockstep pass
        seeds = [kw["seed"] + i for i in range(rng.choice((2, 12, 20, rng.randint(2, 20))))]
        if rng.random() < 0.1:
            seeds[-1] = -1  # a later seed that validate() rejects
        entries.append(dict(kind="cell", kw=kw, plants=plants, seeds=seeds))
    return entries


def describe(entry):
    """One line that names what the entry runs."""
    text = f"{entry['kind']}({', '.join(f'{k}={v!r}' for k, v in entry['kw'].items())}"
    if entry["plants"] is not None:
        text += f", plants={entry['plants']!r}"
    if entry.get("erasures") is not None:
        text += f", erasures={entry['erasures'].count('1')}/{len(entry['erasures'])}"
    if entry.get("traces"):
        text += ", traces"
    if entry["kind"] == "cell":
        text += f", seeds={entry['seeds']!r}"
    return text + ")"


def outcome(entry):
    """repr of what the entry returns or raises, from the salsim on the path."""
    from salsim.engine import ConfigError, SimConfig, run, run_cell
    from salsim.plant import PlantParams

    plants = entry["plants"]
    if isinstance(plants, list):
        plants = [PlantParams(*p) if isinstance(p, tuple) else p for p in plants]
    try:
        if entry["kind"] == "cell":
            cell = [SimConfig(**entry["kw"] | {"seed": seed}, plants=plants) for seed in entry["seeds"]]
            return repr(run_cell(cell))
        erasures = entry["erasures"]
        if erasures is not None:
            erasures = [c == "1" for c in erasures]
        return repr(run(SimConfig(**entry["kw"], plants=plants), erasures, entry["traces"]))
    except ConfigError as exc:  # its message is a result too
        return repr(exc)


def digests():
    """One SHA-256 hex digest per corpus entry, in corpus order."""
    return [hashlib.sha256(outcome(e).encode()).hexdigest() for e in corpus()]


def lines(hexes):
    return [f"{index} {digest}" for index, digest in enumerate(hexes)]


def tree_digests(tree):
    """digests() in a fresh interpreter that imports salsim from `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run(
        [sys.executable, __file__, "--digests"], check=True, capture_output=True, text=True, env=env
    ).stdout
    return [line.split()[1] for line in out.splitlines()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path, help="a second source tree to compare")
    parser.add_argument("--show", type=int, default=5, help="differing entries to name")
    parser.add_argument("--digests", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digests:
        print("\n".join(lines(digests())))
        return 0
    mine = tree_digests(ROOT)
    if args.other is None:
        print("\n".join(lines(mine)))
        return 0
    theirs = tree_digests(args.other.resolve())
    entries = corpus()
    differ = [i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b]
    for index in differ[: args.show]:
        print(f"entry {index} differs: {describe(entries[index])}")
    print(f"{len(differ)} of {len(entries)} entries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
