"""Lockstep engine tests.

A sweep cell with enough seeds under AOI_COST advances all of them in
one numpy pass; every RunResult field must still equal what run() gives
for that seed. The stage-cost reducer must reproduce numpy's pairwise
summation bit for bit from block-by-block input.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import salsim.engine as engine
import salsim.lockstep as lockstep
from salsim.channel import FRAGMENT_HEADER_SIZE
from salsim.engine import SimConfig, run, run_cell, sweep
from salsim.lockstep import BLOCK, FOLD_CAP, PairwiseFold
from salsim.mdu import PDU_ENTRY_OVERHEAD, PDU_HEADER_SIZE
from salsim.plant import PlantParams

BASE = dict(n_loops=4, horizon=300, warmup=40, loss_prob=0.25, seed=11, repetitions=3)

# (case name, overrides of BASE, strategy tokens)
CELLS = [
    ("all strategies", {}, ["UC", "FC", "UA", "FA", "FA+TIS"]),
    ("per-packet loss", dict(per_packet_loss=True), ["UC", "FC"]),
    # one fragment per packet: a packet's start and its only fragment
    # share one draw
    ("per-packet loss, one fragment", dict(per_packet_loss=True, tb_capacity=200), ["UC", "FC"]),
    ("per-packet loss, queue of one", dict(per_packet_loss=True, compound_maxlen=1), ["UC", "FC"]),
    ("one entry per block", dict(tb_capacity=30), ["UA", "FA", "FA+TIS"]),
    ("small fragments", dict(tb_capacity=16), ["UC", "FC"]),
    ("no warmup", dict(warmup=0), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    # the first measured slot is the first whose ingest can overwrite
    ("warmup of one", dict(warmup=1), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    ("lossless", dict(loss_prob=0.0), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    ("heavy loss", dict(loss_prob=0.9), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    ("zero deadband", dict(deadband=0.0), ["FC", "FA", "FA+TIS"]),
    ("wide deadband", dict(deadband=4.0), ["FC", "FA", "FA+TIS"]),
    ("queue of one", dict(compound_maxlen=1), ["UC", "FC"]),
    # UC's link is a fixed schedule; run() steps it a block at a time.
    # One fragment per packet: every delivery carries its own slot
    ("one fragment, several blocks", dict(tb_capacity=2000, horizon=1100, warmup=600), ["UC", "FC"]),
    # six loops send three fragments, so packets straddle the 512-slot
    # block ends, and the first deliveries of a block replay samples of
    # the block before; the first measured slot is a packet's second
    (
        "three fragments, several blocks",
        dict(n_loops=6, horizon=1100, warmup=514),
        ["UC", "FC"],
    ),
    ("queue of one, several blocks", dict(compound_maxlen=1, horizon=1100, warmup=600), ["UC", "FC"]),
    ("warmup inside a packet", dict(warmup=41), ["UC", "FC"]),
    ("one loop", dict(n_loops=1), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    ("whole group fits", dict(n_loops=3, tb_capacity=200), ["UA", "FA", "FA+TIS"]),
    ("many loops", dict(n_loops=12, horizon=200, warmup=20), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    # equal cost tables: every ranking ties, and the lower id must win
    ("equal plants", dict(a_min=1.1, a_max=1.1), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    # the measured window starts in the second block, the run ends mid-block
    ("several blocks", dict(horizon=1300, warmup=600), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    # three entries per block among seven loops: inserts land mid-shortlist
    ("three per block", dict(n_loops=7, tb_capacity=92), ["UA", "FA", "FA+TIS"]),
    (
        "three per block, equal plants",
        dict(n_loops=7, tb_capacity=92, a_min=1.1, a_max=1.1),
        ["UA", "FA", "FA+TIS"],
    ),
    # the last horizon whose uniforms follow the normals in one generator,
    # and the first that reads them from a second one
    ("one block", dict(horizon=512), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    ("one block and a slot", dict(horizon=513), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    # short runs, whose folds take one node of one to eight slots
    ("one slot", dict(horizon=1, warmup=0), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    ("one measured slot", dict(horizon=8, warmup=7), ["UC", "FC", "UA", "FA", "FA+TIS"]),
    (
        "tiny runs instance",
        dict(n_loops=1, horizon=8, warmup=0, loss_prob=0.3),
        ["UC", "FC", "UA", "FA", "FA+TIS"],
    ),
]


@pytest.mark.parametrize("name,overrides,tokens", CELLS, ids=[c[0] for c in CELLS])
def test_sweep_cells_match_run_field_for_field(monkeypatch, name, overrides, tokens):
    base = SimConfig(**{**BASE, **overrides})
    scalar_runs = []

    def counted_run(config, *args, **kwargs):
        scalar_runs.append(config)
        return run(config, *args, **kwargs)

    # a pass with no fixed cost pays from two seeds on, so these short
    # cells take it whatever their size
    monkeypatch.setattr(engine, "LOCKSTEP_COMPOUND_US", 0.0)
    monkeypatch.setattr(engine, "LOCKSTEP_ATOMIC_US", 0.0)
    monkeypatch.setattr(engine, "run", counted_run)
    rows = sweep(base, [base.n_loops], tokens)
    monkeypatch.undo()
    assert scalar_runs == []  # every cell took the lockstep path

    configs = [
        dataclasses.replace(base, strategy=row.strategy, tis=False, seed=row.seed) for row in rows
    ]
    assert len(rows) == len(tokens) * base.repetitions
    for row, config in zip(rows, configs):
        expected = run(config)
        for field in dataclasses.fields(expected):
            assert getattr(row, field.name) == getattr(expected, field.name), (
                row.strategy,
                row.seed,
                field.name,
            )


@st.composite
def atomic_cells(draw):
    """Configs of one random atomic AOI_COST cell, two to four seeds."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, n + 2))  # entries that fit a block, past n too
    entry = PDU_ENTRY_OVERHEAD + 20
    if draw(st.booleans()):  # equal plants tie every cost ranking
        a_min = a_max = draw(st.sampled_from([0.9, 1.0, 1.1, 1.25]))
    else:
        a_min, a_max = sorted(draw(st.lists(st.floats(-1.3, 1.3), min_size=2, max_size=2)))
    # past one 512-slot block, too, so that runs draw their link uniforms
    # from a second generator and fold the stage costs block by block
    horizon = draw(st.one_of(st.integers(1, 1100), st.sampled_from([512, 513, 1025, 1100])))
    base = SimConfig(
        n_loops=n,
        strategy=draw(st.sampled_from(["UA", "FA", "FA+TIS"])),
        tb_capacity=PDU_HEADER_SIZE + k * entry + draw(st.integers(0, entry - 1)),
        deadband=draw(st.sampled_from([0.0, 0.5, 4.0])),
        loss_prob=draw(st.floats(0.0, 1.0)),
        a_min=a_min,
        a_max=a_max,
        horizon=horizon,
        warmup=draw(st.integers(0, horizon - 1)),
        seed=draw(st.integers(0, 10_000)),
    )
    return [dataclasses.replace(base, seed=base.seed + j) for j in range(draw(st.integers(2, 4)))]


def assert_pass_matches_run(cell):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "LOCKSTEP_ATOMIC_US", 0.0)
        patch.setattr(engine, "LOCKSTEP_COMPOUND_US", 0.0)
        assert engine._takes_lockstep(cell)
        rows = run_cell(cell)
    for row, config in zip(rows, cell):
        assert dataclasses.astuple(row) == dataclasses.astuple(run(config)), config


@settings(max_examples=100)
@given(atomic_cells())
def test_random_atomic_cells_match_run_seed_by_seed(cell):
    # the pass ranks by k rounds of argmax, run() by a running shortlist
    # in its plant pass: two rankers, one tie rule (the lower id wins)
    assert_pass_matches_run(cell)


@st.composite
def compound_cells(draw):
    """Configs of one random compound cell, two to four seeds."""
    n = draw(st.integers(1, 24))
    packed = 1 + n * (PDU_ENTRY_OVERHEAD + 20)  # a packet of every loop
    fragments = draw(st.integers(1, 12))
    chunk = -(-packed // fragments)  # at most `fragments` blocks per full packet
    horizon = draw(st.one_of(st.integers(1, 1100), st.sampled_from([512, 513, 1025])))
    base = SimConfig(
        n_loops=n,
        strategy=draw(st.sampled_from(["UC", "FC"])),
        tb_capacity=FRAGMENT_HEADER_SIZE + chunk,
        compound_maxlen=draw(st.integers(1, 50)),
        per_packet_loss=draw(st.booleans()),
        deadband=draw(st.sampled_from([0.0, 0.5, 4.0])),
        loss_prob=draw(st.floats(0.0, 1.0)),
        horizon=horizon,
        warmup=draw(st.integers(0, horizon - 1)),
        seed=draw(st.integers(0, 10_000)),
    )
    return [dataclasses.replace(base, seed=base.seed + j) for j in range(draw(st.integers(2, 4)))]


@settings(max_examples=100)
@given(compound_cells())
def test_random_compound_cells_match_run_seed_by_seed(cell):
    # the pass keeps a shadow estimate per queued packet, run() replays
    # each delivery from the state history: two estimators, one result
    assert_pass_matches_run(cell)


def test_only_link_draws_past_one_block_skip_the_normals(monkeypatch):
    # a scripted run reads no uniforms, and a run of one block reads them
    # after its normals from the same generator, in either engine
    def refuse(*args):
        raise AssertionError("skipped the normals")

    monkeypatch.setattr(lockstep, "link_stream_state", refuse)
    monkeypatch.setattr(engine, "LOCKSTEP_ATOMIC_US", 0.0)
    longer = SimConfig(**{**BASE, "horizon": BLOCK + 1})
    run(longer, erasure_pattern=[t % 3 == 0 for t in range(longer.horizon)])
    with pytest.raises(AssertionError, match="skipped the normals"):
        run(longer)
    one_block = SimConfig(**{**BASE, "horizon": BLOCK})
    run(one_block)
    assert engine._takes_lockstep([one_block] * 3)
    run_cell([dataclasses.replace(one_block, seed=seed) for seed in (11, 12, 13)])


def test_single_seed_and_object_policies_keep_calling_run(monkeypatch):
    calls = []

    def counted_run(config, *args, **kwargs):
        calls.append((config.policy, config.seed))
        return run(config, *args, **kwargs)

    monkeypatch.setattr(engine, "run", counted_run)
    sweep(SimConfig(**{**BASE, "repetitions": 1}), [3], ["UA", "UC"])
    sweep(SimConfig(**{**BASE, "policy": "FIFO", "repetitions": 2}), [3], ["FA"])
    assert calls == [("AOI_COST", 11), ("AOI_COST", 11), ("FIFO", 11), ("FIFO", 12)]


# (loops, strategy, seeds, policy, whether the cell takes the pass)
ROUTES = [
    (5, "UC", 19, "AOI_COST", True),
    (5, "UC", 18, "AOI_COST", False),
    (5, "UC", 17, "AOI_COST", False),
    (5, "UC", 16, "AOI_COST", False),
    (20, "UC", 10, "AOI_COST", True),
    (20, "UC", 9, "AOI_COST", False),
    (40, "UC", 7, "AOI_COST", True),
    (40, "UC", 6, "AOI_COST", False),
    (5, "FA", 9, "AOI_COST", True),
    (5, "FA", 8, "AOI_COST", False),
    (5, "FC", 14, "AOI_COST", True),
    (5, "FC", 13, "AOI_COST", False),
    (20, "FC", 7, "AOI_COST", True),
    (20, "FC", 6, "AOI_COST", True),
    (20, "FC", 5, "AOI_COST", False),
    (20, "FA+TIS", 4, "AOI_COST", True),
    (20, "FA+TIS", 3, "AOI_COST", False),
    (100, "UA", 1, "AOI_COST", False),
    (20, "UA", 20, "FIFO", False),
    (20, "UC", 20, "ROUND_ROBIN", False),
]


@pytest.mark.parametrize("n,token,seeds,policy,batched", ROUTES)
def test_cells_take_the_pass_once_their_seeds_repay_its_fixed_cost(
    n, token, seeds, policy, batched
):
    base = SimConfig(n_loops=n, strategy=token, policy=policy)
    configs = [dataclasses.replace(base, seed=s) for s in range(seeds)]
    assert engine._takes_lockstep(configs) is batched


def test_default_grid_cells_all_take_the_pass():
    base = SimConfig()
    for n in (5, 10, 15, 20):
        for token in ("UC", "FC", "UA", "FA", "FA+TIS"):
            cell = [
                dataclasses.replace(base, n_loops=n, strategy=token, seed=base.seed + rep)
                for rep in range(base.repetitions)
            ]
            assert engine._takes_lockstep(cell), (n, token)


def test_sweep_hands_scalar_cells_out_one_run_at_a_time(monkeypatch):
    sizes = []
    run_cell = engine.run_cell

    def recorded_cell(configs):
        sizes.append(len(configs))
        return run_cell(configs)

    monkeypatch.setattr(engine, "run_cell", recorded_cell)
    base = SimConfig(**{**BASE, "repetitions": 4})
    sweep(dataclasses.replace(base, policy="FIFO"), [3], ["UA", "FA"])
    assert sizes == [1] * 8
    sizes.clear()
    sweep(dataclasses.replace(base, n_loops=20, horizon=60, warmup=10), [20], ["UA", "FA"])
    assert sizes == [4, 4]


def test_parallel_sweep_matches_serial_on_pass_and_scalar_cells():
    # at 20 loops and 4 seeds the atomic cells take the pass, UC does not
    base = SimConfig(**{**BASE, "n_loops": 20, "horizon": 60, "warmup": 10, "repetitions": 4})
    tokens = ["UC", "UA", "FA"]
    serial = sweep(base, [20], tokens)
    assert sweep(base, [20], tokens, jobs=2) == serial
    assert serial[:4] == [run(dataclasses.replace(base, strategy="UC", seed=11 + s)) for s in range(4)]


def test_lockstep_cell_rejects_configs_that_differ_beyond_the_seed():
    configs = [SimConfig(n_loops=2, horizon=50, warmup=0, seed=s) for s in (1, 2)]
    configs[1].loss_prob = 0.5
    with pytest.raises(engine.ConfigError):
        engine.run_cell(configs)


def test_lockstep_cell_rejects_configs_whose_plants_alone_differ():
    plants = [PlantParams(a=1.0), PlantParams(a=1.1)]
    configs = [SimConfig(n_loops=2, horizon=50, warmup=0, seed=s, plants=plants) for s in (1, 2)]
    configs[1].plants = [PlantParams(a=1.0), PlantParams(a=1.2)]
    with pytest.raises(engine.ConfigError, match="differ only by seed"):
        engine.run_cell(configs)
    configs[1].plants = [PlantParams(a=1.0), PlantParams(a=1.1)]  # equal, not the same list
    assert engine.run_cell(configs) == [run(config) for config in configs]


def test_lockstep_cell_validates_its_first_config_once(monkeypatch):
    calls = []
    validate = SimConfig.validate

    def counted_validate(self):
        calls.append(self.seed)
        return validate(self)

    monkeypatch.setattr(engine, "LOCKSTEP_ATOMIC_US", 0.0)
    monkeypatch.setattr(SimConfig, "validate", counted_validate)
    configs = [SimConfig(n_loops=2, horizon=50, warmup=0, seed=s) for s in (5, 6, 7, 8)]
    results = engine.run_cell(configs)
    monkeypatch.undo()
    assert calls == [5]
    assert results == [run(config) for config in configs]


@pytest.mark.parametrize("seed", [-1, True])
def test_lockstep_cell_rejects_a_bad_later_seed(monkeypatch, seed):
    monkeypatch.setattr(engine, "LOCKSTEP_ATOMIC_US", 0.0)
    configs = [SimConfig(n_loops=2, horizon=50, warmup=0, seed=s) for s in (1, 2, seed)]
    assert engine._takes_lockstep(configs)
    with pytest.raises(engine.ConfigError) as alone:
        configs[2].validate()
    with pytest.raises(engine.ConfigError) as in_cell:
        engine.run_cell(configs)
    assert str(in_cell.value) == str(alone.value)


def mixed_magnitudes(rng, shape):
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 10, size=shape)


def feed(fold, values, rng):
    """Hand `values` to the fold in random-sized blocks."""
    at = 0
    while at < len(values):
        step = int(rng.integers(1, 300))
        fold.extend(values[at : at + step])
        at += step


@pytest.mark.parametrize("lengths", [range(1, 301), [450, 99_000]], ids=["1-300", "windows"])
def test_pairwise_fold_equals_numpy_sum(lengths):
    rng = np.random.default_rng(20260819)
    for length in lengths:
        values = mixed_magnitudes(rng, length)
        fold = PairwiseFold(length, ())
        feed(fold, values, rng)
        assert float(fold.total()) == float(np.sum(values)), length


def test_pairwise_fold_sums_each_element_of_an_array_stream():
    rng = np.random.default_rng(7)
    values = mixed_magnitudes(rng, (1_000, 3, 2)) ** 2
    fold = PairwiseFold(len(values), (3, 2))
    feed(fold, values, rng)
    total = fold.total()
    for i in range(3):
        for j in range(2):
            series = np.ascontiguousarray(values[:, i, j])
            assert float(total[i, j]) == float(np.sum(series))


def test_pairwise_fold_refuses_an_unfinished_stream():
    fold = PairwiseFold(200, ())
    fold.extend(np.ones(150))
    with pytest.raises(ValueError):
        fold.total()


@pytest.mark.parametrize("shape", [(), (3, 2)], ids=["scalar", "array"])
def test_pairwise_fold_nodes_around_the_cap_and_blocks_across_nodes(shape):
    # lengths whose tree has a single node just under, at and over the
    # cap, and several nodes; blocks of one value, blocks inside a node
    # and blocks that span two or more nodes
    rng = np.random.default_rng(4)
    cap = FOLD_CAP
    for length in [cap - 1, cap, cap + 1, 2 * cap - 1, 2 * cap, 2 * cap + 1, 5 * cap + 9]:
        values = mixed_magnitudes(rng, (length,) + shape)
        want = np.apply_along_axis(lambda series: np.sum(np.ascontiguousarray(series)), 0, values)
        for step in [1, 3, cap // 2 + 1, cap + 5, 3 * cap, length]:
            fold = PairwiseFold(length, shape)
            for at in range(0, length, step):
                fold.extend(values[at : at + step])
            assert np.array_equal(fold.total(), want), (length, step)


def test_pairwise_fold_sums_contiguous_and_strided_blocks_alike():
    # every block is copied into the node buffer, whatever the memory
    # layout of its time axis
    rng = np.random.default_rng(9)
    series = mixed_magnitudes(rng, (4, 3 * FOLD_CAP + 7))
    want = [float(np.sum(row)) for row in series]
    strided = PairwiseFold(series.shape[1], (4,))
    contiguous = PairwiseFold(series.shape[1], (4,))
    for at in range(0, series.shape[1], 700):
        strided.extend(np.ascontiguousarray(series[:, at : at + 700].T))
        contiguous.extend(series[:, at : at + 700].T)
    assert strided.total().tolist() == want
    assert contiguous.total().tolist() == want


def test_pairwise_fold_refuses_values_past_its_length():
    fold = PairwiseFold(5, ())
    with pytest.raises(ValueError):
        fold.extend(np.ones(6))
