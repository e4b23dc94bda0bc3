"""Closed-loop engine tests.

Small scripted scenarios with hand-derived traces, exact padding and
trigger-rate fractions, an exhaustive small-horizon cross-check of the
freshness recurrence, and determinism / stream-alignment properties.
"""

import concurrent.futures
import dataclasses
import math
import operator
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import salsim
import salsim.engine as engine
from salsim.channel import fragment_layout
from salsim.engine import ConfigError, SimConfig, run, summarize, sweep
from salsim.lockstep import atomic_counts
from salsim.mdu import Mdu
from salsim.plant import PlantParams, solve_riccati
from salsim.publisher import encode_value
from salsim.sal import DataHandler, DataReader, Policy, SessionHandler, compose_pdu

from conftest import scripted_uc_log


def cfg(**kw):
    base = dict(
        n_loops=1,
        horizon=50,
        strategy="UA",
        loss_prob=0.0,
        warmup=0,
        seed=1,
    )
    base.update(kw)
    return SimConfig(**base)


def aoi_trace_for(erasures):
    """Reference freshness recurrence for one always-sampling loop."""
    d = 0
    out = []
    for erased in erasures:
        d = d + 1 if erased else 0
        out.append(d)
    return out


# ------------------------------------------------------------- trivials


def test_perfect_link_has_zero_age():
    res = run(cfg(horizon=100))
    assert res.mean_aoi == 0.0
    assert res.per_loop_aoi == (0.0,)
    assert res.strategy == "UA"


def test_scripted_erasures_reproduce_sawtooth():
    res = run(
        cfg(horizon=5, loss_prob=0.1),
        erasure_pattern=[True, False, True, True, False],
        record_traces=True,
    )
    assert res.aoi_trace[0] == [1, 0, 1, 2, 0]
    assert res.mean_aoi == pytest.approx(4 / 5)


def test_exhaustive_patterns_match_reference_recurrence():
    for k in range(16):
        pattern = [(k >> j) & 1 == 1 for j in range(4)]
        res = run(cfg(horizon=4, loss_prob=0.3), erasure_pattern=pattern, record_traces=True)
        assert res.aoi_trace[0] == aoi_trace_for(pattern), pattern


def test_single_entry_blocks_alternate_between_two_equal_loops():
    plants = [PlantParams(a=1.0), PlantParams(a=1.0)]
    res = run(
        cfg(n_loops=2, horizon=6, tb_capacity=30, plants=plants),
        record_traces=True,
    )
    assert res.aoi_trace[0] == [0, 1, 0, 1, 0, 1]
    assert res.aoi_trace[1] == [1, 0, 1, 0, 1, 0]


def test_uncompressed_single_loop_delivers_same_slot():
    res = run(cfg(strategy="UC", horizon=100))
    assert res.mean_aoi == 0.0


# ------------------------------------------------------- exact fractions


def test_atomic_padding_fraction_single_loop():
    # one 20-byte value per 64-byte block: 2 + 28 used, 34 padded
    res = run(cfg(horizon=100))
    assert res.padding_fraction == pytest.approx(34 / 64)


def test_compound_padding_fraction_single_loop():
    # 29-byte packet plus 6-byte fragment header in a 64-byte block
    res = run(cfg(strategy="UC", horizon=100))
    assert res.padding_fraction == pytest.approx(29 / 64)


def drive_layer(config):
    """An unfiltered run's aggregation layer, driven slot by slot.

    Returns what the layer hands out in each slot of the horizon, as a
    set of (loop, generation) pairs or None, and its discards before
    each slot and after the last. Under UC every slot queues a packet of
    all loops, and an idle wire takes the oldest queued packet for its
    fragment count; under UA every slot ingests every loop's sample, and
    the layer's picks go out in a PDU through the reader.
    """
    n, capacity = config.n_loops, config.tb_capacity
    session = SessionHandler()
    for i in range(n):
        session.subscribe(session.register(f"loop/{i}"), i)
    handler = DataHandler(
        session, policy=Policy[config.policy], gains=[(1.0, 1.0)] * n,
        compound_maxlen=config.compound_maxlen,
    )
    reader = DataReader(session)
    fragments = fragment_layout(1 + 28 * n, capacity)[0]
    busy = 0
    sent, discards = [], [0]
    for t in range(config.horizon):
        out = None
        if config.strategy == "UC":
            handler.ingest_compound((t, tuple(range(n))))
            if not busy:
                gen, ids = handler.next_compound()
                out = {(i, gen) for i in ids}
                busy = fragments
            busy -= 1
        else:
            handler.ingest_flagged(t, [t / 7.0] * n, 20, range(n), False)
            picked = handler.select_uniform(capacity, t, 20)
            pdu = compose_pdu([Mdu(e.mdu_id, e.gen_time, encode_value(e.payload)) for e in picked], capacity)
            out = {(mdu.id, mdu.gen_time) for mdu, _subs in reader.process(pdu, t)[0]}
        sent.append(out)
        discards.append(handler.replaced_discards + handler.overflow_drops + reader.unsubscribed_drops)
    return sent, discards


def fixed_schedule(config):
    """run()'s schedule of an unfiltered link under config."""
    frag_table = None
    if config.strategy == "UC":
        frag_table = [fragment_layout(1 + 28 * c, config.tb_capacity) for c in range(config.n_loops + 1)]
    return engine._fixed_schedule(config, config.make_plants(), frag_table)


def fixed_link_configs(seed, count):
    """Seeded UA (FIFO, ROUND_ROBIN) and UC configs: UA at 1-24 loops with
    k = 1..n or k >= n entries per PDU, UC with compound_maxlen 1-20 and
    1-12 fragments per packet."""
    rng = random.Random(seed)
    configs = []
    while len(configs) < count:
        n = rng.randint(1, 24)
        if len(configs) % 2:
            k = rng.randint(1, n + 2)
            configs.append(cfg(
                strategy="UA", policy=rng.choice(["FIFO", "ROUND_ROBIN"]), n_loops=n,
                tb_capacity=2 + 28 * k + rng.randint(0, 27),
            ))
            continue
        fragments = rng.randint(1, 12)
        packed = 1 + 28 * n
        chunks = [c for c in range(1, packed + 1) if fragment_layout(packed, c + 6)[0] == fragments]
        if chunks:
            configs.append(cfg(
                strategy="UC", policy=rng.choice(list(Policy.__members__)), n_loops=n,
                tb_capacity=rng.choice(chunks) + 6, compound_maxlen=rng.randint(1, 20),
                per_packet_loss=rng.random() < 0.3,
            ))
    return configs


def test_fixed_schedule_follows_a_full_drive_of_the_layer():
    # run() drives the layer only through its start-up, until what it
    # hands out repeats, and extends that by the period: over the whole
    # horizon, on both sides of the start-up's length, the schedule must
    # give every slot's entries, their generations and the discards, as
    # the layer driven in every slot does
    extended = 0
    uc_shapes = set()  # (a queue of one, one fragment) among the UC configs
    for config in fixed_link_configs(22, 160):
        startup = fixed_schedule(dataclasses.replace(config, horizon=10_000)).last + 1
        fragments = fragment_layout(1 + 28 * config.n_loops, config.tb_capacity)[0]
        for horizon in sorted({max(startup - 1, 1), startup, startup + 1, 3 * startup + fragments + 5}):
            c = dataclasses.replace(config, horizon=horizon, warmup=horizon // 3)
            sent, discards = drive_layer(c)
            schedule = fixed_schedule(c)
            events = dict(schedule.between(0, horizon))
            assert set(events) == {t for t, out in enumerate(sent) if out is not None}, c
            for t, entries in events.items():
                assert {(i, t - lag) for i, lag in entries} == sent[t], (c, t)
            assert [schedule.count(t)[2] for t in range(horizon + 1)] == discards, c
            counted = map(operator.sub, schedule.count(horizon), schedule.count(c.warmup))
            assert list(counted)[2] == discards[horizon] - discards[c.warmup]
            extended += schedule.last + 1 < horizon
        if config.strategy == "UC":
            # past start-up a packet arrives M + F - 2 slots after its
            # generation, but a one-fragment packet leaves no backlog
            maxlen = config.compound_maxlen
            lags = {lag + fragments - 1 for _i, lag in schedule.events[-1][1]}
            assert lags == {maxlen + fragments - 2 if fragments > 1 else 0}
            uc_shapes.add((maxlen == 1, fragments == 1))
    assert extended >= 150
    assert uc_shapes == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("tok", ["UA", "FA+TIS", "UA/FIFO", "UA/ROUND_ROBIN", "UC"])
@pytest.mark.parametrize("n, capacity", [(6, 64), (2, 200)])  # k = 2 < n, and k = n
def test_full_block_link_counts_follow_from_the_config(monkeypatch, tok, n, capacity):
    # UA and FA+TIS send k = min(room // entry, n) entries in every slot,
    # and from slot 1 on each ingest overwrites the n - k left unsent;
    # run() and, under AOI_COST, a lockstep cell of enough seeds must both
    # give this. UC's wire is never idle, and its queue drops what the
    # layer counts
    strategy, _, policy = tok.partition("/")
    policy = policy or "AOI_COST"
    totals = []
    result = engine._result
    monkeypatch.setattr(engine, "_result", lambda *args: totals.append(args[3]) or result(*args))
    k = min((capacity - 2) // 28, n)
    for horizon in (1, 512, 513, 1300):
        for warmup in (0, 1, 37):
            if warmup >= horizon:
                continue
            base = cfg(
                strategy=strategy, policy=policy, n_loops=n, tb_capacity=capacity,
                horizon=horizon, warmup=warmup, loss_prob=0.3, deadband=0.5,
            )
            slots = horizon - warmup
            if strategy == "UC":
                res = run(base)
                discards = drive_layer(base)[1]
                assert totals[-1].blocks == slots
                assert res.discards == discards[horizon] - discards[warmup]
                continue
            padding = slots * (capacity - 2 - 28 * k) / (capacity * slots)
            discards = (n - k) * (horizon - max(warmup, 1))
            results = [run(base)]
            last = totals[-1]
            assert (last.blocks, last.padding, last.discards) == atomic_counts(base, k)
            cell = [dataclasses.replace(base, seed=seed) for seed in range(1, 16)]
            assert engine._takes_lockstep(cell) is (policy == "AOI_COST")
            if policy == "AOI_COST":
                results += engine.run_cell(cell)
            for res in results:
                assert (res.padding_fraction, res.discards) == (padding, discards)


def test_unfiltered_trigger_rate_is_one():
    assert run(cfg(horizon=40)).trigger_rate == 1.0
    assert run(cfg(strategy="UC", horizon=40)).trigger_rate == 1.0


def test_huge_deadband_only_first_slot_triggers():
    res = run(cfg(n_loops=2, strategy="FA", deadband=1e9, horizon=50))
    assert res.trigger_rate == pytest.approx(1 / 50)


def test_tis_turns_silence_into_deliveries():
    quiet = run(cfg(strategy="FA", deadband=1e9, horizon=50))
    filled = run(cfg(strategy="FA+TIS", deadband=1e9, horizon=50))
    assert quiet.mean_aoi == pytest.approx((50 - 1) / 2)
    assert filled.mean_aoi == 0.0
    assert filled.padding_fraction <= quiet.padding_fraction


# ------------------------------------------------------------ estimator


def test_perfect_link_matches_stationary_control_cost():
    res = run(cfg(horizon=20_000, warmup=2_000))
    P, _ = solve_riccati(1.0, 1.0, 1.0, 1.0)
    assert res.mean_lqg == pytest.approx(P, rel=0.1)


def test_fragmented_pipeline_ages_ramp_then_saturate():
    # three loops force 85-byte compound packets that need two 64-byte
    # blocks each, so the send queue backs up: delivered ages climb
    # 1, 2, 3, ... until the drop-oldest queue (depth 8) pins them at 8
    res = run(cfg(n_loops=3, strategy="UC", horizon=60), record_traces=True)
    per_slot = {}
    for slot, loop, gen in res.delivery_log:
        per_slot.setdefault(slot, set()).add((loop, gen))
    slots = sorted(per_slot)
    assert slots == list(range(1, 60, 2))
    ages = []
    for slot in slots:
        gens = {g for _, g in per_slot[slot]}
        assert len(gens) == 1  # whole packet shares one sample time
        assert {l for l, _ in per_slot[slot]} == {0, 1, 2}
        ages.append(slot - gens.pop())
    assert ages == [min(k + 1, 8) for k in range(len(ages))]


# ---------------------------------------------------------- determinism


def test_identical_config_and_seed_bitwise_identical():
    c = cfg(n_loops=4, strategy="FA", deadband=0.5, loss_prob=0.2, horizon=400, seed=5)
    assert run(c) == run(c)


def test_different_seeds_differ():
    a = run(cfg(horizon=300, loss_prob=0.2, seed=1))
    b = run(cfg(horizon=300, loss_prob=0.2, seed=2))
    assert a.mean_lqg != b.mean_lqg


# (case, overrides) of FC against UC: six loops send three-fragment
# packets, so packets cross the ends of 512-slot blocks
ZERO_DEADBAND_COMPOUND_CASES = [
    ("packets cross the block end", dict(horizon=1_100, warmup=600)),
    ("per packet", dict(per_packet_loss=True)),
    ("queue of one", dict(compound_maxlen=1)),
    ("one fragment", dict(tb_capacity=2_000)),
    ("20 loops", dict(n_loops=20)),
]


def test_zero_deadband_filtered_equals_unfiltered():
    # with a zero threshold the filter admits every (almost surely
    # changing) sample, so FA and UA coincide run for run
    for seed in (3, 11):
        ca = cfg(n_loops=3, strategy="FA", deadband=0.0, loss_prob=0.1, horizon=1_500, seed=seed)
        cb = dataclasses.replace(ca, strategy="UA")
        ra, rb = run(ca), run(cb)
        assert ra.mean_aoi == rb.mean_aoi
        assert ra.mean_lqg == rb.mean_lqg
    # and FC is UC in every field: FC replays each delivery slot by slot,
    # UC loop by loop over a block
    fields = [f.name for f in dataclasses.fields(engine.RunResult) if f.name != "strategy"]
    for case, overrides in ZERO_DEADBAND_COMPOUND_CASES:
        for seed in (3, 11):
            base = dict(n_loops=6, deadband=0.0, loss_prob=0.2, horizon=300, warmup=20, seed=seed)
            cf = cfg(**{**base, **overrides, "strategy": "FC"})
            rf = run(cf, record_traces=True)
            ru = run(dataclasses.replace(cf, strategy="UC"), record_traces=True)
            assert rf.delivered, case
            for name in fields:
                assert getattr(rf, name) == getattr(ru, name), (case, seed, name)


def test_noise_stream_is_strategy_independent():
    # common random numbers: the plant noise consumed in slot 0 is the
    # same whatever the strategy, so identical seeds give identical
    # first-slot states; compare via the one-slot stage cost
    costs = {}
    for tok in ("UC", "FC", "UA", "FA"):
        r = run(cfg(strategy=tok, horizon=1, seed=77, deadband=0.5))
        costs[tok] = r.mean_lqg
    assert len(set(costs.values())) == 1


# (case, overrides, a delivery (slot, loop, gen) the case must make);
# FA, FC and UC replay samples from slots up to 9 back, FA/FIFO holds
# the first sample of loop 7 in a starved buffer for six slots, and UC
# with a deep queue delivers a sample four blocks of 7 behind its slot
NOISE_BLOCK_CASES = [
    ("UA", dict(strategy="UA"), None),
    ("FA+TIS", dict(strategy="FA+TIS"), None),
    ("FC", dict(strategy="FC"), None),
    ("UA/FIFO", dict(strategy="UA", policy="FIFO"), None),
    ("FA", dict(strategy="FA"), None),
    ("UC", dict(strategy="UC"), None),
    (
        "FA/FIFO starved",
        dict(strategy="FA", policy="FIFO", n_loops=8, tb_capacity=40, deadband=8.0, loss_prob=0.0),
        (6, 7, 0),
    ),
    ("UC deep queue", dict(strategy="UC", compound_maxlen=50), (59, 3, 29)),
    # six loops send three-fragment packets (blocks of 2 = F - 1 slots
    # among the sizes), and both warm-ups fall inside a packet
    ("UC three fragments", dict(strategy="UC", n_loops=6), (14, 5, 5)),
    ("UC three fragments, queue of one", dict(strategy="UC", n_loops=6, compound_maxlen=1), None),
    ("UC per packet", dict(strategy="UC", per_packet_loss=True), None),
]


def record_noise_blocks(monkeypatch):
    """The row counts of run()'s noise draws, in order, from now on."""
    drawn = []
    draw = engine._noise

    def recorded(rng, rows, scale):
        drawn.append(rows)
        return draw(rng, rows, scale)

    monkeypatch.setattr(engine, "_noise", recorded)
    return drawn


def noise_blocks(horizon, block):
    """Row counts of a run's noise draws in blocks of `block` slots: the
    first block also draws x_0's row."""
    block = min(block, horizon)
    return [min(block, horizon - s) + (s == 0) for s in range(0, horizon, block)]


@pytest.mark.parametrize(
    "overrides,delivery", [c[1:] for c in NOISE_BLOCK_CASES], ids=[c[0] for c in NOISE_BLOCK_CASES]
)
def test_noise_row_blocks_leave_every_field_unchanged(monkeypatch, overrides, delivery):
    # slots go by in blocks of BLOCK, each trimming the input history
    # to what a held sample may still replay: blocks of one and two
    # slots, blocks that end mid-run, a measured window that starts in
    # a later block, and horizon + 1 just below, at and just above
    # BLOCK (the one-generator case) must all give the same run. Each
    # run must also draw its noise in blocks of engine.BLOCK, or the
    # comparison would pass with any block size
    drawn = record_noise_blocks(monkeypatch)
    for warmup in (5, 25):
        c = cfg(**{**dict(n_loops=4, deadband=0.4, loss_prob=0.25, horizon=61, warmup=warmup, seed=13), **overrides})
        h = c.horizon
        results = []
        for rows in (h + 50, 1, 2, 7, h - 1, h, h + 1, h + 2):
            monkeypatch.setattr(engine, "BLOCK", rows)
            drawn.clear()
            results.append(run(c, record_traces=True))
            assert drawn == noise_blocks(h, rows)
        log = results[0].delivery_log
        assert log and results[0].aoi_trace
        assert all(res == results[0] for res in results[1:])
        if c.strategy in ("FA", "FC", "UC"):
            # a sample from two or more slots back crosses trimmed blocks
            assert max(slot - gen for slot, _loop, gen in log) >= 2
        if delivery is not None:
            assert delivery in log


@pytest.mark.parametrize("tok", ["FA", "UC", "FC"])
def test_replay_reads_held_inputs_and_the_current_block(monkeypatch, tok):
    # replay reads the inputs u_gen..u_t-1 from rows that a block's end
    # keeps back to the oldest held sample. A delivery from before its
    # block's start and one from inside the block (but older than its
    # slot) must both occur in blocks of 7, and give the one-block run
    c = cfg(n_loops=4, deadband=0.4, loss_prob=0.25, horizon=61, warmup=5, seed=13, strategy=tok)
    whole = run(c, record_traces=True)
    monkeypatch.setattr(engine, "BLOCK", 7)
    res = run(c, record_traces=True)
    log = res.delivery_log
    assert any(gen < slot - slot % 7 for slot, _loop, gen in log)
    assert any(slot - slot % 7 <= gen < slot for slot, _loop, gen in log)
    assert res == whole


# (case, overrides, fragments per packet): run() steps UC loop by loop
# over blocks of BLOCK slots, so blocks of F - 1, F and F + 1 slots, with
# packets that straddle their ends, must give the one-block run, and the
# whole delivery log must follow UC's fixed schedule
UC_SCHEDULE_CASES = [
    ("one fragment", dict(tb_capacity=2000), 1),
    ("three fragments", dict(n_loops=6), 3),
    ("three fragments per packet", dict(n_loops=6, per_packet_loss=True), 3),
    ("three fragments, queue of one", dict(n_loops=6, compound_maxlen=1), 3),
    ("four fragments, deep queue", dict(n_loops=8, compound_maxlen=20), 4),
]


@pytest.mark.parametrize(
    "overrides,fragments", [c[1:] for c in UC_SCHEDULE_CASES], ids=[c[0] for c in UC_SCHEDULE_CASES]
)
def test_uc_schedule_over_blocks_around_the_fragment_count(monkeypatch, overrides, fragments):
    c = cfg(**{**dict(n_loops=4, strategy="UC", horizon=70, warmup=7, seed=5), **overrides})
    erased = [t % 5 == 2 or t % 7 == 0 for t in range(c.horizon)]
    whole = run(c, erasure_pattern=erased, record_traces=True)
    expected = scripted_uc_log(
        c.n_loops, c.horizon, fragments, c.compound_maxlen, erased, c.per_packet_loss
    )
    assert whole.delivery_log == expected and expected
    drawn = record_noise_blocks(monkeypatch)
    earlier = []  # whether some delivery replays a sample of an earlier block
    for block in (max(fragments - 1, 1), fragments, fragments + 1):
        monkeypatch.setattr(engine, "BLOCK", block)
        drawn.clear()
        res = run(c, erasure_pattern=erased, record_traces=True)
        assert res == whole, block
        assert drawn == noise_blocks(c.horizon, block)
        earlier.append(any(gen < slot - slot % block for slot, _loop, gen in res.delivery_log))
    assert any(earlier) is (fragments > 1)


def python_output(code):
    """Standard output of `code` run by a fresh interpreter on this salsim."""
    src = os.path.dirname(os.path.dirname(salsim.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# peak resident growth of an N=20 run after a warm-up run, in bytes per
# loop-slot: of a 50k-slot run, and of its 37.5k slots beyond a
# 12.5k-slot run
MEMORY_PROBE = """
import resource, sys
from salsim.engine import SimConfig, run

def peak():
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit

run(SimConfig(n_loops=20, horizon=10_000, warmup=100, strategy="UA"))
before = peak()
run(SimConfig(n_loops=20, horizon=12_500, warmup=1_000, strategy="UA"))
short = peak()
run(SimConfig(n_loops=20, horizon=50_000, warmup=1_000, strategy="UA"))
after = peak()
print((after - before) / (20 * 50_000), (after - short) / (20 * 37_500))
"""


def test_run_peak_memory_per_loop_slot():
    # blocks of noise, link draws, states and inputs take the same
    # memory whatever the horizon; the whole noise array and the state
    # and input histories took about 24 B per loop-slot, and holding
    # every noise row as Python floats about 65 B
    per_slot, per_extra_slot = map(float, python_output(MEMORY_PROBE).split())
    assert per_slot < 45.0
    assert per_extra_slot < 1.0


# peak resident growth, in MB, of 50k-slot N=20 runs of UA, FA and UC,
# and of UA under FIFO and ROUND_ROBIN, after 2,000-slot warm-up runs of
# each
BLOCK_MEMORY_PROBE = """
import resource, sys, warnings
from salsim.engine import SimConfig, run

def peak():
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit

warnings.simplefilter("ignore")  # FIFO leaves loops unserved, whose states overflow
runs = [(tok, "AOI_COST") for tok in ("UA", "FA", "UC")] + [("UA", "FIFO"), ("UA", "ROUND_ROBIN")]
for tok, policy in runs:
    run(SimConfig(n_loops=20, horizon=2_000, warmup=100, strategy=tok, policy=policy))
before = peak()
for tok, policy in runs:
    run(SimConfig(n_loops=20, horizon=50_000, warmup=1_000, strategy=tok, policy=policy))
    print((peak() - before) / 1e6)
"""


def test_long_runs_hold_no_more_than_a_warm_up_run():
    # a block's noise rows, state and input histories and squares stay
    # resident once allocated; blocks of 4,096 slots raised the peak by
    # 6-8 MB over a warmed-up process
    growth = [float(mb) for mb in python_output(BLOCK_MEMORY_PROBE).split()]
    assert len(growth) == 5
    assert max(growth) <= 2.0, growth


# ------------------------------------------------------- conservation


DELIVERY_CASES = [
    (tok, policy) for policy in Policy.__members__ for tok in ("UC", "FC", "UA", "FA", "FA+TIS")
]


@pytest.mark.parametrize(
    "tok,policy",
    DELIVERY_CASES,
    ids=[tok if policy == "AOI_COST" else f"{tok}/{policy}" for tok, policy in DELIVERY_CASES],
)
def test_delivery_conservation_and_monotone_gens(tok, policy):
    c = cfg(n_loops=3, strategy=tok, policy=policy, deadband=0.4, loss_prob=0.3, horizon=300, seed=9)
    res = run(c, record_traces=True)
    assert res.delivered <= res.published
    assert res.delivered == len(res.delivery_log)  # warmup=0
    # within a slot, deliveries are logged in loop order
    assert res.delivery_log == sorted(res.delivery_log)
    per_loop = {}
    for slot, loop, gen in res.delivery_log:
        assert 0 <= gen <= slot
        per_loop.setdefault(loop, []).append(gen)
    for gens in per_loop.values():
        assert all(g2 > g1 for g1, g2 in zip(gens, gens[1:]))


TRACE_CASES = [(tok, "AOI_COST") for tok in ("UC", "FC", "UA", "FA", "FA+TIS")] + [
    (tok, policy) for policy in ("FIFO", "ROUND_ROBIN") for tok in ("UA", "FA")
]


@pytest.mark.parametrize(
    "tok,policy",
    TRACE_CASES,
    ids=[tok if policy == "AOI_COST" else f"{tok}/{policy}" for tok, policy in TRACE_CASES],
)
def test_recording_traces_changes_no_other_field(tok, policy):
    # the age traces and the delivery log are read off the run: asking
    # for them moves no other result. Packets and held samples cross the
    # 512-slot block end, and the counters restart at the warmup slot
    c = cfg(
        n_loops=6, strategy=tok, policy=policy, deadband=0.4, loss_prob=0.2,
        horizon=1_100, warmup=600, seed=13,
    )
    plain = run(c)
    traced = run(c, record_traces=True)
    assert plain.aoi_trace is None and plain.delivery_log is None
    assert traced.delivered and len(traced.aoi_trace) == c.n_loops
    assert dataclasses.replace(traced, aoi_trace=None, delivery_log=None) == plain


@pytest.mark.parametrize("tok", ["UC", "FC", "UA", "FA", "FA+TIS"])
def test_age_recurrence_consistent_with_deliveries(tok):
    res = run(
        cfg(n_loops=2, strategy=tok, deadband=0.4, loss_prob=0.3, horizon=200, seed=4),
        record_traces=True,
    )
    got = {(slot, loop): gen for slot, loop, gen in res.delivery_log}
    for loop in range(2):
        d = 0
        for slot in range(200):
            gen = got.get((slot, loop))
            d = slot - gen if gen is not None else d + 1
            assert res.aoi_trace[loop][slot] == d


def assert_age_totals_match_traces(res, warmup):
    traces = res.aoi_trace
    slots = len(traces[0]) - warmup
    for loop, trace in enumerate(traces):
        assert res.per_loop_aoi[loop] == sum(trace[warmup:]) / slots
    assert res.mean_aoi == sum(sum(trace[warmup:]) for trace in traces) / (len(traces) * slots)


AGE_HORIZON = 120
AGE_TOTAL_CASES = [
    (tok, policy, warmup)
    for tok in ("UC", "FC", "UA", "FA", "FA+TIS")
    for policy in Policy.__members__
    for warmup in (0, 37, AGE_HORIZON - 1)
]


@pytest.mark.parametrize("tok,policy,warmup", AGE_TOTAL_CASES)
def test_age_totals_equal_the_traced_ages(tok, policy, warmup):
    c = cfg(
        n_loops=3,
        strategy=tok,
        policy=policy,
        deadband=0.4,
        loss_prob=0.3,
        horizon=AGE_HORIZON,
        warmup=warmup,
        seed=5,
    )
    assert_age_totals_match_traces(run(c, record_traces=True), warmup)


@pytest.mark.parametrize("tok", ["UC", "FC", "UA", "FA", "FA+TIS"])
def test_age_totals_without_any_delivery(tok):
    res = run(cfg(n_loops=2, strategy=tok, loss_prob=1.0, horizon=60, warmup=20), record_traces=True)
    assert res.delivery_log == []
    assert res.aoi_trace == [list(range(1, 61))] * 2
    assert_age_totals_match_traces(res, 20)


@pytest.mark.parametrize(
    "delivered,trace",
    [
        ([4], [1, 2, 3, 4, 0, 1, 2, 3, 4, 5]),
        ([2], [1, 2, 0, 1, 2, 3, 4, 5, 6, 7]),
        ([2, 4], [1, 2, 0, 1, 0, 1, 2, 3, 4, 5]),
    ],
    ids=["at-warmup", "before-warmup", "both"],
)
def test_age_totals_around_the_warmup_slot(delivered, trace):
    # the warm-up window ends at slot 4; only the scripted slots deliver
    pattern = [slot not in delivered for slot in range(10)]
    res = run(cfg(horizon=10, warmup=4, loss_prob=0.5), erasure_pattern=pattern, record_traces=True)
    assert res.aoi_trace == [trace]
    assert_age_totals_match_traces(res, 4)


def test_per_packet_loss_keeps_fragmented_packets_whole():
    # 3 loops => 85-byte compound packets => 2 fragments each; erase
    # every second block: block fates void every packet, packet fates
    # (decided on the first fragment) deliver them all
    pattern = [t % 2 == 1 for t in range(40)]
    blocky = run(
        cfg(n_loops=3, strategy="UC", horizon=40),
        erasure_pattern=pattern,
        record_traces=True,
    )
    whole = run(
        cfg(n_loops=3, strategy="UC", horizon=40, per_packet_loss=True),
        erasure_pattern=pattern,
        record_traces=True,
    )
    assert not blocky.delivery_log
    slots = sorted({slot for slot, _loop, _gen in whole.delivery_log})
    assert slots == list(range(1, 40, 2))


# -------------------------------------------------------------- sweeps


def test_sweep_row_order_and_seed_derivation():
    base = cfg(horizon=60, loss_prob=0.1, seed=100, repetitions=2)
    rows = sweep(base, [4, 2], ["UA", "FC"])
    key = [(r.n_loops, r.strategy, r.seed) for r in rows]
    assert key == [
        (2, "FC", 100),
        (2, "FC", 101),
        (2, "UA", 100),
        (2, "UA", 101),
        (4, "FC", 100),
        (4, "FC", 101),
        (4, "UA", 100),
        (4, "UA", 101),
    ]


def test_sweep_summary_bands():
    base = cfg(horizon=60, loss_prob=0.2, seed=7, repetitions=3)
    rows = sweep(base, [2, 3], ["UA", "FA"])
    summary = summarize(rows)
    assert len(summary) == 4
    for s in summary:
        assert s.aoi_min <= s.aoi_mean <= s.aoi_max
        assert s.lqg_min <= s.lqg_mean <= s.lqg_max


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ConfigError, match="jobs must be at least 1"):
        sweep(cfg(horizon=20), [1], ["UA"], jobs=jobs)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(repetitions=0),
        dict(seed=-1),
        dict(seed=True),
        # loop counts must be exact ints, as SimConfig.n_loops must
        pytest.param(dict(n_values=[5.7, True]), id="float and bool loop counts"),
        pytest.param(dict(n_values=[2, 3.0]), id="integral float loop count"),
        pytest.param(dict(n_values=["2"]), id="string loop count"),
    ],
)
def test_sweep_rejects_a_bad_base_before_running(overrides):
    fields = dict(horizon=20, **overrides)
    n_values = fields.pop("n_values", [1, 2])
    with pytest.raises(ConfigError):
        sweep(cfg(**fields), n_values, ["UA", "UC"])


@pytest.mark.parametrize(
    "token",
    [pytest.param(1, id="1"), pytest.param(None, id="None"), pytest.param(["UA"], id="list")],
)
def test_sweep_rejects_a_strategy_token_that_is_not_a_string(token):
    with pytest.raises(ConfigError, match=re.escape(repr(token))):
        sweep(cfg(horizon=20), [5], [token])


def test_sweep_asks_for_no_more_workers_than_tasks(monkeypatch):
    asked = []

    class SerialPool:
        # stands in for ProcessPoolExecutor without starting a process
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    base = cfg(horizon=20, repetitions=2)
    serial = sweep(base, [1], ["UA", "FA"])
    assert sweep(base, [1], ["UA", "FA"], jobs=64) == serial
    assert sweep(base, [1], ["UA", "FA"], jobs=3) == serial
    assert asked == [4, 3]


@pytest.mark.parametrize("jobs", [2.5, True, "2"])
def test_sweep_rejects_a_jobs_that_is_not_an_integer(monkeypatch, jobs):
    class NoPool:
        def __init__(self, max_workers):
            raise AssertionError("a worker pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    with pytest.raises(ConfigError, match="jobs must be an integer"):
        sweep(cfg(horizon=20, repetitions=2), [1], ["UA", "FA"], jobs=jobs)


def test_import_loads_no_process_pool():
    # only sweep(jobs > 1) needs concurrent.futures and multiprocessing;
    # summarize averages with math.fsum, as statistics loads fractions
    # and decimal
    probe = (
        "import sys, salsim; "
        "print('concurrent.futures' in sys.modules, 'statistics' in sys.modules)"
    )
    assert python_output(probe).split() == ["False", "False"]


def test_sweep_deterministic_and_parallel_equivalent():
    base = cfg(horizon=50, loss_prob=0.1, seed=3, repetitions=2)
    a = sweep(base, [2, 3], ["UA", "FA"])
    b = sweep(base, [2, 3], ["UA", "FA"])
    c = sweep(base, [2, 3], ["UA", "FA"], jobs=2)
    assert a == b == c


# ------------------------------------------------------------- config


@pytest.mark.parametrize(
    "start,stop,num",
    [
        (0.9, 1.2, 1),
        (0.9, 1.2, 2),
        (0.9, 1.2, 20),
        (0.9, 1.2, 255),
        (1.2, 0.9, 7),
        (1.0, 1.0, 5),
        (-0.0, 0.0, 1),
        (-0.0, 0.0, 3),
        (0.0, 5e-324, 9),
        (-1.3, 1.3, 40),
        (1, 1, 3),
    ],
)
def test_plant_grid_matches_numpy_linspace_bit_for_bit(start, stop, num):
    # the poles are memoized, and a zero of either sign makes one key:
    # start from an empty cache so that the sign checked is this case's
    engine._poles.cache_clear()
    want = np.linspace(start, stop, num).tolist()
    config = SimConfig(n_loops=num, a_min=start, a_max=stop)
    for _ in range(2):  # the second call reads the cache
        got = [plant.a for plant in config.make_plants()]
        assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]
        assert got == want and all(type(x) is float for x in got)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        run(cfg(n_loops=0))
    with pytest.raises(ConfigError):
        run(cfg(horizon=10, warmup=10))
    with pytest.raises(ConfigError):
        run(cfg(strategy="XX"))
    with pytest.raises(ConfigError):
        run(cfg(strategy="UA+TIS"))
    with pytest.raises(ConfigError):
        run(cfg(policy="NOPE"))
    with pytest.raises(ConfigError):
        run(cfg(tb_capacity=29))  # too small for one atomic entry
    with pytest.raises(ConfigError):
        run(cfg(deadband=-0.5))
    with pytest.raises(ConfigError):
        run(cfg(loss_prob=1.5))
    with pytest.raises(ConfigError):
        run(cfg(n_loops=2, plants=[PlantParams(a=1.0)]))
    with pytest.raises(ConfigError):
        run(cfg(plants=[PlantParams(a=2.0)]))
    with pytest.raises(ConfigError):
        run(cfg(a_min=1.0, a_max=0.9))


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "field,value",
    [
        ("deadband", NAN),
        ("deadband", INF),
        ("sigma_w2", NAN),
        ("q", NAN),
        ("r", INF),
        ("a_min", NAN),
        ("a_max", NAN),
        ("deadband", "0.5"),
        ("loss_prob", "0.1"),
        ("loss_prob", NAN),
        ("q", True),
        ("loss_prob", False),
    ],
)
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
        cfg(**{field: value}).validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("seed", 1.5),
        ("horizon", True),
        ("n_loops", 2.0),
        ("warmup", False),
        ("repetitions", 2.0),
        ("tb_capacity", 64.0),
        ("compound_maxlen", True),
        ("horizon", None),
    ],
)
def test_config_integer_fields_reject_bools_and_floats(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        cfg(**{field: value}).validate()


@pytest.mark.parametrize(
    "field,value,what",
    [
        ("tis", 1, "true or false"),
        ("per_packet_loss", "no", "true or false"),
        ("strategy", None, "a string"),
        ("policy", Policy.FIFO, "a string"),
    ],
)
def test_config_bool_and_str_fields_reject_other_types(field, value, what):
    with pytest.raises(ConfigError, match=f"{field} must be {what}"):
        cfg(**{field: value}).validate()


@pytest.mark.parametrize(
    "bad",
    [
        dict(a=NAN),
        dict(b=NAN),
        dict(b=INF),
        dict(sigma_w2=NAN),
        dict(sigma_w2=INF),
        dict(q=NAN),
        dict(q=INF),
        dict(r=NAN),
        dict(r=INF),
    ],
)
def test_supplied_plants_reject_non_finite_parameters(bad):
    with pytest.raises(ConfigError):
        run(cfg(plants=[PlantParams(**{"a": 1.0, **bad})]))


@pytest.mark.parametrize(
    "plants",
    [
        [1.1],
        [PlantParams(a="1.1")],
        iter([PlantParams(a=1.0)]),
    ],
    ids=["a number", "a string parameter", "an iterator"],
)
def test_supplied_plants_of_the_wrong_type_are_config_errors(plants):
    with pytest.raises(ConfigError, match="plants"):
        run(cfg(plants=plants))


def test_a_config_changed_in_place_runs_like_a_fresh_one():
    # what run() memoizes (the parsed strategy token, the fold's summation
    # plan, each plant's gain) is keyed by value, so no set-up outlives
    # the field values it came from
    fields = dict(n_loops=2, horizon=40, loss_prob=0.3, strategy="FA", seed=5)
    config = cfg(**fields)
    run(config)
    for field, bad in [
        ("strategy", "XX"),
        ("policy", "NOPE"),
        ("plants", [PlantParams(a=1.0), PlantParams(a=2.0)]),
    ]:
        setattr(config, field, bad)
        with pytest.raises(ConfigError):
            run(config)
        setattr(config, field, getattr(cfg(**fields), field))
        assert run(config) == run(cfg(**fields))
    for field, value in [("tb_capacity", 30), ("strategy", "UC")]:
        setattr(config, field, value)
        fields[field] = value
        assert run(config) == run(cfg(**fields)), field


@pytest.mark.parametrize("q", [1e300])
def test_riccati_failure_is_a_config_error(q):
    # a finite but extreme weight overflows the fixed-point iteration
    with pytest.raises(ConfigError, match="no stationary LQR gain"):
        run(cfg(q=q, a_min=1.2, a_max=1.2))


def test_a_gain_failure_is_reported_before_a_short_erasure_pattern():
    # the set-up run() shares with run_cell() solves the gains before run()
    # checks the pattern's length
    with pytest.raises(ConfigError, match="no stationary LQR gain"):
        run(cfg(q=1e300, a_min=1.2, a_max=1.2), erasure_pattern=[False])


def test_large_state_weight_gets_a_gain():
    # the Riccati iterates for this weight end in a rounding two-cycle
    res = run(cfg(q=1e8, a_min=1.2, a_max=1.2))
    assert math.isfinite(res.mean_lqg)


def test_each_plant_gain_is_solved_once_and_failures_never(monkeypatch):
    solved = []

    def counted(a, b, q, r):
        solved.append((a, b, q, r))
        return solve_riccati(a, b, q, r)

    monkeypatch.setattr(engine, "solve_riccati", counted)
    engine._neg_gain.cache_clear()
    c = cfg(n_loops=3, q=2.5, horizon=50, warmup=0)
    first = run(c)
    assert len(solved) == 3
    assert run(dataclasses.replace(c, seed=2)) != first and len(solved) == 3
    for _ in range(2):
        with pytest.raises(ConfigError, match="no stationary LQR gain"):
            run(cfg(q=1e300, a_min=1.2, a_max=1.2, n_loops=1))
    assert len(solved) == 5
    # a = -0.0 shares its key with +0.0; either gain gives the same run
    zero = dataclasses.replace(c, n_loops=1, plants=[PlantParams(a=0.0)])
    signed = dataclasses.replace(zero, plants=[PlantParams(a=-0.0)])
    alone = []
    for config in (zero, signed):
        engine._neg_gain.cache_clear()
        alone.append(run(config))
    assert run(zero) == alone[0]  # with the gain solved for -0.0
    engine._neg_gain.cache_clear()
    run(zero)
    assert run(signed) == alone[1]


def test_riccati_failure_in_a_lockstep_cell_is_a_config_error(monkeypatch):
    monkeypatch.setattr(engine, "LOCKSTEP_ATOMIC_US", 0.0)
    cell = [cfg(q=1e300, seed=s) for s in (1, 2)]
    assert engine._takes_lockstep(cell)
    with pytest.raises(ConfigError, match="no stationary LQR gain"):
        engine.run_cell(cell)


def test_compound_strategies_tolerate_small_blocks():
    # a block below the atomic minimum still carries compound fragments
    res = run(cfg(strategy="UC", horizon=80, tb_capacity=16))
    assert res.mean_aoi > 0.0  # 29-byte packets now need 3 fragments


def test_default_plants_span_the_dynamics_range():
    c = SimConfig(n_loops=4)
    plants = c.make_plants()
    assert plants[0].a == pytest.approx(1.0)
    assert plants[-1].a == pytest.approx(1.2)
    assert len(plants) == 4
    assert all(p1.a < p2.a for p1, p2 in zip(plants, plants[1:]))


# ----------------------------------------------------- pinned regressions

# Exact metrics from the straight-through build that ran every slot over
# the aggregation layer and the wire codecs. The engine's specialized
# data paths must keep reproducing these runs bit for bit.
PINNED_RUNS = [
    ("UA base", dict(n_loops=4, horizon=500, warmup=50, strategy="UA", loss_prob=0.25, seed=9),
     (1.073888888888889, 3.433188151215661, 0.09375, 1.0, 900, 1800, 666)),
    ("FA base", dict(n_loops=4, horizon=500, warmup=50, strategy="FA", loss_prob=0.25, seed=9),
     (1.4361111111111111, 3.7216813830676756, 0.10546875, 0.7022222222222222, 380, 1264, 651)),
    ("FA tis", dict(n_loops=4, horizon=500, warmup=50, strategy="FA", tis=True, loss_prob=0.25, seed=9),
     (1.3216666666666668, 3.4779180736718445, 0.09375, 0.695, 900, 1800, 666)),
    ("FA wide band", dict(n_loops=4, horizon=500, warmup=50, strategy="FA", deadband=4.0, loss_prob=0.25, seed=9),
     (13.385, 19.07862164424755, 0.45170454545454547, 0.13, 0, 234, 171)),
    ("FA tis narrow", dict(n_loops=3, horizon=400, warmup=0, strategy="FA", tis=True, deadband=2.0, loss_prob=0.3, seed=5),
     (0.8508333333333333, 3.0211609444004464, 0.09375, 0.17916666666666667, 399, 1200, 590)),
    ("UC multi frag", dict(n_loops=3, horizon=500, warmup=50, strategy="UC", loss_prob=0.25, seed=9),
     (9.886666666666667, 104.18880064523813, 0.2421875, 1.0, 225, 1350, 402)),
    ("UC one frag", dict(n_loops=1, horizon=500, warmup=50, strategy="UC", loss_prob=0.25, seed=9),
     (0.3377777777777778, 2.321156041877398, 0.453125, 1.0, 0, 450, 339)),
    ("UC per packet", dict(n_loops=3, horizon=500, warmup=50, strategy="UC", loss_prob=0.25, seed=9, per_packet_loss=True),
     (8.988888888888889, 42.661794192601924, 0.2421875, 1.0, 225, 1350, 540)),
    ("FC base", dict(n_loops=3, horizon=500, warmup=50, strategy="FC", loss_prob=0.25, seed=9),
     (9.139259259259259, 45.998804607912284, 0.19746527777777778, 0.76, 138, 1026, 493)),
    ("FC wide band", dict(n_loops=3, horizon=500, warmup=50, strategy="FC", deadband=3.0, loss_prob=0.25, seed=9),
     (8.715555555555556, 11.597145676885525, 0.3739697802197802, 0.15925925925925927, 0, 215, 168)),
    ("UA fifo", dict(n_loops=4, horizon=500, warmup=50, strategy="UA", policy="FIFO", loss_prob=0.25, seed=9),
     (137.93555555555557, 2.4171106314207215e+77, 0.09375, 1.0, 900, 1800, 666)),
    ("FA round robin", dict(n_loops=4, horizon=500, warmup=50, strategy="FA", policy="ROUND_ROBIN", loss_prob=0.25, seed=9),
     (1.6366666666666667, 3.8244411141258476, 0.103515625, 0.6872222222222222, 351, 1237, 653)),
    ("UA tiny block", dict(n_loops=5, horizon=400, warmup=0, strategy="UA", tb_capacity=30, loss_prob=0.2, seed=3),
     (3.082, 7.925364551985315, 0.0, 1.0, 1596, 2000, 312)),
    # the object path (FIFO, ROUND_ROBIN) with and without transmit-if-space
    ("FA fifo", dict(n_loops=4, horizon=500, warmup=50, strategy="FA", policy="FIFO", loss_prob=0.25, seed=9),
     (2.1533333333333333, 14.906263554773878, 0.10641703786191536, 0.695, 366, 1251, 655)),
    ("UA round robin", dict(n_loops=4, horizon=500, warmup=50, strategy="UA", policy="ROUND_ROBIN", loss_prob=0.25, seed=9),
     (1.251111111111111, 4.503549900246066, 0.09375, 1.0, 900, 1800, 666)),
    ("FA tis fifo", dict(n_loops=4, horizon=500, warmup=50, strategy="FA", tis=True, policy="FIFO", loss_prob=0.25, seed=9),
     (2.3016666666666667, 14.383843353813408, 0.09375, 0.69, 900, 1800, 666)),
    ("FA tis round robin", dict(n_loops=4, horizon=500, warmup=50, strategy="FA", tis=True, policy="ROUND_ROBIN", loss_prob=0.25, seed=9),
     (1.515, 3.6923081278059877, 0.09375, 0.6794444444444444, 900, 1800, 666)),
    # three entries per block (92 bytes) over seven loops
    ("k3 FA tis aoi cost", dict(n_loops=7, horizon=500, warmup=50, strategy="FA", tis=True, tb_capacity=92, loss_prob=0.25, seed=9),
     (1.6076190476190477, 4.510972075214913, 0.06521739130434782, 0.6857142857142857, 1800, 3150, 984)),
    ("k3 FA tis fifo", dict(n_loops=7, horizon=500, warmup=50, strategy="FA", tis=True, policy="FIFO", tb_capacity=92, loss_prob=0.25, seed=9),
     (6.106349206349206, 6834720433347.433, 0.06521739130434782, 0.7390476190476191, 1800, 3150, 984)),
    ("k3 FA round robin", dict(n_loops=7, horizon=500, warmup=50, strategy="FA", policy="ROUND_ROBIN", tb_capacity=92, loss_prob=0.25, seed=9),
     (1.951111111111111, 5.669272076351616, 0.06589371980676328, 0.6917460317460318, 831, 2179, 983)),
    # the benchmarked regime: 20 loops, two entries per 64-byte block, over
    # three blocks of slots; recorded before ranking moved into the plant pass
    ("UA n20", dict(n_loops=20, horizon=1100, warmup=100, strategy="UA", tb_capacity=64, loss_prob=0.25, seed=9),
     (7.6165, 23.60351826628041, 0.09375, 1.0, 18000, 20000, 1484)),
    ("FA n20", dict(n_loops=20, horizon=1100, warmup=100, strategy="FA", tb_capacity=64, loss_prob=0.25, seed=9),
     (8.0927, 24.284013730724013, 0.09375, 0.69305, 11862, 13861, 1484)),
    ("FA tis n20", dict(n_loops=20, horizon=1100, warmup=100, strategy="FA", tis=True, tb_capacity=64, loss_prob=0.25, seed=9),
     (7.50515, 23.643195505160143, 0.09375, 0.69415, 18000, 20000, 1484)),
]


@pytest.mark.parametrize("name,kw,expected", PINNED_RUNS, ids=[c[0] for c in PINNED_RUNS])
def test_pinned_runs_stay_bit_identical(name, kw, expected):
    res = run(SimConfig(**kw))
    got = (
        res.mean_aoi,
        res.mean_lqg,
        res.padding_fraction,
        res.trigger_rate,
        res.discards,
        res.published,
        res.delivered,
    )
    assert got == expected
