"""End-to-end acceptance gate for the shipped defaults.

Cheap exact oracles come first: the golden-ratio Riccati fixed point,
the stationary LQG cost identity on a lossless single loop, a scripted
erasure sawtooth, an exhaustively enumerated eight-slot instance checked
against Monte Carlo, UC's closed-form mean age, UC's mean-square
stability bound, the exact LQG expectations of a scripted single loop,
of three scripted UA loops that share one-entry blocks and of three
scripted UC loops, the deadband delivery-blindness regression, wire
roundtrip fuzzing and the three-fragment delivery probability, plus
byte-identity of repeated CLI artifacts. The expensive part runs the
published grid (UC/FC/UA/FA, N in {5, 10, 15, 20}, twenty seeds, 1e5
slots) once per session through two module fixtures and asserts the
strategy ordering, the transmit-if-space benefit, the wall-clock budget
and the SHA-256 of both grids' results CSVs.
"""

import dataclasses
import hashlib
import math
import random
import statistics
import time

import numpy as np
import pytest

from salsim.channel import FRAGMENT_HEADER_SIZE, ErasureChannel, Reassembler, fragment_packet
from salsim.cli import main
from salsim.engine import SimConfig, run, run_cell, summarize, sweep
from salsim.mdu import PDU_ENTRY_OVERHEAD, Mdu, SalPdu, deserialize_pdu, serialize_pdu
from salsim.metrics import write_csv
from salsim.plant import PlantParams, solve_riccati, staleness_cost
from salsim.publisher import VALUE_PAYLOAD_SIZE, DeadbandFilter

from conftest import scripted_uc_log

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_riccati_unit_parameters_hit_the_golden_ratio():
    P, _ = solve_riccati(1.0, 1.0, 1.0, 1.0)
    assert abs(P - GOLDEN) < 1e-9


def test_lossless_single_loop_matches_stationary_lqg_cost():
    # with every sample delivered the estimator is exact, so the
    # long-run stage cost converges to sigma_w2 * P; the single-loop
    # default plant sits at the bottom of the range, a = 1
    config = SimConfig(n_loops=1, strategy="UA", loss_prob=0.0)
    result = run(config)
    P, _ = solve_riccati(1.0, 1.0, 1.0, 1.0)
    expected = config.sigma_w2 * P
    assert abs(result.mean_lqg - expected) <= 0.05 * expected


def test_scripted_erasure_pattern_reproduces_age_sawtooth():
    config = SimConfig(n_loops=1, horizon=5, warmup=0, strategy="UA")
    result = run(
        config,
        erasure_pattern=[True, False, True, True, False],
        record_traces=True,
    )
    assert result.aoi_trace[0] == [1, 0, 1, 2, 0]


@pytest.mark.slow
def test_exhaustive_eight_slot_instance_matches_monte_carlo():
    # all 2^8 erasure patterns, weighted by their Bernoulli probability,
    # give the exact expected mean age; 1e5 seeded runs must agree to
    # within three standard errors. The seeds run as lockstep cells of
    # 10,000, which must equal run() on every 100th seed.
    base = SimConfig(n_loops=1, horizon=8, warmup=0, strategy="UA", loss_prob=0.3)
    exact = 0.0
    for bits in range(256):
        pattern = [bool(bits >> k & 1) for k in range(8)]
        weight = 0.3 ** sum(pattern) * 0.7 ** (8 - sum(pattern))
        exact += weight * run(base, erasure_pattern=pattern).mean_aoi
    trials = 100_000
    samples = []
    checked = []
    for lo in range(0, trials, 10_000):
        cell = run_cell([dataclasses.replace(base, seed=s) for s in range(lo, lo + 10_000)])
        samples.extend(r.mean_aoi for r in cell)
        checked.extend(cell[::100])
    assert checked == [run(dataclasses.replace(base, seed=s)) for s in range(0, trials, 100)]
    mc_mean = statistics.fmean(samples)
    stderr = statistics.stdev(samples) / math.sqrt(trials)
    assert stderr > 0.0
    assert abs(mc_mean - exact) <= 3.0 * stderr


# (n_loops, compound_maxlen, loss_prob, tb_capacity, per_packet_loss)
UC_AOI_CASES = [
    (5, 8, 0.1, 64, False),
    (10, 8, 0.1, 64, True),
    (7, 2, 0.25, 64, True),
    (4, 2, 0.2, 40, False),
    (12, 3, 0.05, 120, False),
    (3, 20, 0.3, 30, True),
]


@pytest.mark.slow
@pytest.mark.parametrize("n,maxlen,loss,capacity,per_packet", UC_AOI_CASES)
def test_uc_mean_age_matches_its_closed_form(n, maxlen, loss, capacity, per_packet):
    # UC queues a packet of every loop each slot, so with F >= 2 fragments
    # per packet the queue stays full and the wire never idles: a packet
    # starts every F slots and delivers, at lag L = M + F - 2, with
    # probability P. Gaps of F * Geometric(P) slots give the mean age
    # L + (E[D^2] / E[D] - 1) / 2 = L + (F (2 - P) / P - 1) / 2
    base = SimConfig(
        n_loops=n, strategy="UC", compound_maxlen=maxlen, loss_prob=loss,
        tb_capacity=capacity, per_packet_loss=per_packet, horizon=20_000,
    )
    packed = 1 + n * (PDU_ENTRY_OVERHEAD + VALUE_PAYLOAD_SIZE)
    fragments = -(-packed // (capacity - FRAGMENT_HEADER_SIZE))
    assert fragments >= 2
    lag = maxlen + fragments - 2
    p_ok = 1.0 - loss if per_packet else (1.0 - loss) ** fragments
    expected = lag + (fragments * (2.0 - p_ok) / p_ok - 1.0) / 2.0
    seeds = 40
    ages = [r.mean_aoi for r in run_cell([dataclasses.replace(base, seed=s) for s in range(seeds)])]
    stderr = statistics.stdev(ages) / math.sqrt(seeds)
    assert stderr > 0.0
    assert abs(statistics.fmean(ages) - expected) <= 4.0 * stderr


# (a, whether a lies inside the bound) for one UC loop at tb_capacity 20
UC_STABILITY_CASES = [(1.20, True), (1.29, False)]


@pytest.mark.slow
@pytest.mark.parametrize("a,stable", UC_STABILITY_CASES)
def test_uc_loop_cost_settles_only_inside_its_mean_square_stability_bound(a, stable):
    # a UC packet takes F slots and arrives with probability P, and the
    # estimation error grows by a^2 per slot until one does. A gap of m
    # lost packets costs about a^(2Fm) and has probability (1 - P)^m, so
    # the cost's tail index is alpha = ln(1 / (1 - P)) / (2F ln a), and the
    # expected cost is finite iff alpha > 1, that is iff a^(2F) (1 - P) < 1.
    # Below the bound each run's time-averaged cost then converges as the
    # horizon grows; above it, it keeps growing, by 2^(1/alpha - 1) per
    # doubling in the limit. The cost's variance is infinite on both sides
    # (alpha < 2), so single seeds decide the seed mean: over 1,000 seeds,
    # a doubling moved it by up to x1.44 at a = 1.20, and in two of ten
    # seed ranges by at most x1.38 at a = 1.29. The median over seeds is
    # what settles or grows: in six disjoint ranges of 1,000 seeds, two
    # doublings raised it by 7-10% at a = 1.20 and by 33-40% at a = 1.29
    base = SimConfig(n_loops=1, strategy="UC", tb_capacity=20, warmup=0, plants=[PlantParams(a)])
    packed = 1 + PDU_ENTRY_OVERHEAD + VALUE_PAYLOAD_SIZE
    fragments = -(-packed // (base.tb_capacity - FRAGMENT_HEADER_SIZE))
    p_ok = (1.0 - base.loss_prob) ** fragments
    bound = (1.0 - p_ok) ** (-1.0 / (2 * fragments))
    assert fragments == 3 and 1.24 < bound < 1.25
    assert (a < bound) == stable
    medians = []
    for horizon in (4_000, 8_000, 16_000):
        cell = [dataclasses.replace(base, horizon=horizon, seed=s) for s in range(1_000)]
        medians.append(statistics.median(r.mean_lqg for r in run_cell(cell)))
    growth = medians[-1] / medians[0]
    if stable:
        assert growth < 1.2, medians
    else:
        assert growth > 1.2, medians


def exact_loop_lqg(plant, delivered, horizon):
    """E[q x_t^2 + r u_t^2] over slots 0..horizon-1 of one loop whose
    deliveries {slot: gen} are fixed, from coefficient vectors.

    x_t and x_hat_t are linear in the loop's noise w_0..w_t: a delivery
    replays x_gen over the inputs since. Also asserts that the error of
    an estimate whose newest sample is d slots old has variance g(d),
    the staleness cost that the ranking reads.
    """
    gain = solve_riccati(plant.a, plant.b, plant.q, plant.r)[1]
    table = [0.0]
    x = np.zeros(horizon)
    x[0] = 1.0  # x_0 = w_0; the estimate starts at zero with no input
    x_hat = np.zeros(horizon)
    xs, us = [], []  # the coefficient vectors of x_0.. and u_0..
    newest = -1
    expected = 0.0
    for t in range(horizon):
        xs.append(x)
        if t in delivered:
            newest = delivered[t]
            x_hat = xs[newest]
            for u in us[newest:]:
                x_hat = plant.a * x_hat + plant.b * u
        error = plant.sigma_w2 * float(np.sum((x - x_hat) ** 2))
        g = staleness_cost(table, plant.a * plant.a, plant.sigma_w2, t - newest)
        assert error == pytest.approx(g, rel=1e-12, abs=0.0), (t, newest)
        u = -gain * x_hat
        us.append(u)
        expected += plant.sigma_w2 * float(plant.q * np.sum(x**2) + plant.r * np.sum(u**2))
        if t + 1 < horizon:
            x = plant.a * x + plant.b * u
            x[t + 1] = 1.0
            x_hat = plant.a * x_hat + plant.b * u
    return expected / horizon


def assert_scripted_lqg(config, script, expected, seeds=20_000):
    """The seed mean of mean_lqg over a scripted link lies within 4 SE of expected."""
    costs = [
        run(dataclasses.replace(config, seed=s), erasure_pattern=script).mean_lqg
        for s in range(seeds)
    ]
    stderr = statistics.stdev(costs) / math.sqrt(seeds)
    assert stderr > 0.0
    assert abs(statistics.fmean(costs) - expected) <= 4.0 * stderr


# erasure runs of 1, 2, 3 and 4 slots, each after one delivery
LQG_SCRIPT = [erased for gap in (1, 2, 3, 4) * 3 for erased in [False] + [True] * gap][:40]


@pytest.mark.slow
@pytest.mark.parametrize("a", [1.0, 1.2])
def test_scripted_single_loop_lqg_matches_its_exact_expectation(a):
    # one UA loop sends its fresh sample every slot, so the script alone
    # decides what the controller knows, and each delivery has gen == t
    config = SimConfig(n_loops=1, strategy="UA", horizon=40, warmup=0, plants=[PlantParams(a=a)])
    delivered = {t: t for t, erased in enumerate(LQG_SCRIPT) if not erased}
    expected = exact_loop_lqg(config.plants[0], delivered, config.horizon)
    assert_scripted_lqg(config, LQG_SCRIPT, expected)


@pytest.mark.slow
def test_scripted_ua_lqg_with_one_entry_per_block_matches_its_exact_expectation():
    # three UA loops share blocks that carry one entry (k = 1 < N). UA
    # admits every sample, so the ranking reads only the ages, which the
    # script alone decides: every seed delivers the same (slot, loop),
    # each a fresh sample, and each loop's cost is exact given its slots
    config = SimConfig(n_loops=3, strategy="UA", tb_capacity=30, horizon=40, warmup=0)
    log = run(config, erasure_pattern=LQG_SCRIPT, record_traces=True).delivery_log
    other = dataclasses.replace(config, seed=config.seed + 1)
    assert run(other, erasure_pattern=LQG_SCRIPT, record_traces=True).delivery_log == log
    assert [slot for slot, _loop, _gen in log] == [
        t for t, erased in enumerate(LQG_SCRIPT) if not erased
    ]
    assert all(gen == slot for slot, _loop, gen in log)
    assert {loop for _slot, loop, _gen in log} == {0, 1, 2}
    per_loop = [
        exact_loop_lqg(plant, {slot: gen for slot, at, gen in log if at == i}, config.horizon)
        for i, plant in enumerate(config.make_plants())
    ]
    assert_scripted_lqg(config, LQG_SCRIPT, statistics.fmean(per_loop))


# three UC loops send two-fragment packets at tb_capacity 64; the script
# loses some packets in one fragment only, and leaves gaps of 2-8 slots
UC_LQG_SCRIPT = [t % 5 == 2 or t % 7 == 0 for t in range(40)]


@pytest.mark.slow
@pytest.mark.parametrize("per_packet", [False, True])
def test_scripted_uc_lqg_matches_its_exact_expectation(per_packet):
    # UC's queue, not the plants, picks the sample each packet carries, so
    # the script fixes every delivery (slot, gen), the same for all loops.
    # Each loop's estimate replays x_gen over the inputs since
    config = SimConfig(
        n_loops=3, strategy="UC", tb_capacity=64, horizon=40, warmup=0,
        per_packet_loss=per_packet,
    )
    horizon = config.horizon
    log = scripted_uc_log(
        config.n_loops, horizon, 2, config.compound_maxlen, UC_LQG_SCRIPT, per_packet
    )
    assert run(config, erasure_pattern=UC_LQG_SCRIPT, record_traces=True).delivery_log == log
    delivered = {slot: gen for slot, _loop, gen in log}
    per_loop = [exact_loop_lqg(plant, delivered, horizon) for plant in config.make_plants()]
    assert_scripted_lqg(config, UC_LQG_SCRIPT, statistics.fmean(per_loop))


def test_erased_admission_silences_the_loop_until_the_band_is_left():
    # every transmission is erased, so the filter reference walks with
    # the admitted (never delivered) samples; re-triggers may only occur
    # when the state leaves the band around the last admitted value
    horizon = 300
    seed = 5
    plant = PlantParams(a=1.1, b=1.0, sigma_w2=1.0, q=1.0, r=1.0)
    config = SimConfig(
        n_loops=1,
        horizon=horizon,
        warmup=0,
        strategy="FA",
        deadband=0.5,
        seed=seed,
        plants=[plant],
    )
    result = run(config, erasure_pattern=[True] * horizon)

    # nothing arrives, so the controller never acts and the state is the
    # plain noise-driven recursion of the documented seed stream
    noise = np.random.default_rng(seed).standard_normal((horizon + 1, 1))
    states = [float(noise[0][0])]
    for t in range(horizon - 1):
        states.append(plant.a * states[-1] + float(noise[t + 1][0]))
    filt = DeadbandFilter(config.deadband)
    admits = [t for t, x in enumerate(states) if filt.check(0, x)]

    assert result.delivered == 0
    assert result.discards == 0
    assert len(admits) >= 2
    assert result.published == len(admits)
    assert round(result.trigger_rate * horizon) == len(admits)
    # zero deliveries pin the age ramp 1..horizon
    assert result.mean_aoi == sum(range(1, horizon + 1)) / horizon

    for here, nxt in zip(admits, admits[1:]):
        ref = states[here]
        for t in range(here + 1, nxt):
            assert abs(states[t] - ref) <= config.deadband
        assert abs(states[nxt] - ref) > config.deadband
    ref = states[admits[-1]]
    for t in range(admits[-1] + 1, horizon):
        assert abs(states[t] - ref) <= config.deadband


def test_repeated_invocations_emit_byte_identical_artifacts(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "n_loops = 3\nhorizon = 3000\nwarmup = 200\nrepetitions = 3\nseed = 7\n",
        encoding="utf-8",
    )
    runs = [tmp_path / "run_a.csv", tmp_path / "run_b.csv"]
    for out in runs:
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert runs[0].read_bytes() == runs[1].read_bytes()

    sweeps = [tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"]
    for out in sweeps:
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--n",
                "3,5",
                "--strategies",
                "UA,FA",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    assert sweeps[0].read_bytes() == sweeps[1].read_bytes()

    for metric in ("aoi", "lqg"):
        figs = [tmp_path / f"{metric}_a.svg", tmp_path / f"{metric}_b.svg"]
        for src, fig in zip(sweeps, figs):
            assert main(["plot", "--in", str(src), "--metric", metric, "--out", str(fig)]) == 0
        assert figs[0].read_bytes() == figs[1].read_bytes()


def test_pdu_wire_roundtrip_fuzz():
    rng = random.Random(20260819)
    mismatches = 0
    for _ in range(10_000):
        count = rng.randrange(0, 7)
        ids = rng.sample(range(65536), count)
        entries = [
            Mdu(i, rng.randrange(0, 2**32), rng.randbytes(rng.randrange(0, 41)))
            for i in ids
        ]
        pdu = SalPdu(entries, padding_bytes=rng.randrange(0, 25))
        if deserialize_pdu(serialize_pdu(pdu)) != pdu:
            mismatches += 1
    assert mismatches == 0


def test_three_fragment_packet_delivery_probability():
    # all-or-nothing reassembly at 10% block loss: 0.9^3 = 0.729
    trials = 100_000
    rng = np.random.default_rng(20260819)
    draws = rng.random((trials, 3))
    packet = bytes(rng.integers(0, 256, size=150, dtype=np.uint8))
    channel = ErasureChannel(0.1)
    reasm = Reassembler()
    delivered = 0
    for trial in range(trials):
        fragments = fragment_packet(packet, 64, trial % 65536)
        assert len(fragments) == 3
        got = None
        for fragment, draw in zip(fragments, draws[trial]):
            if channel.transmit(draw):
                got = reasm.receive(fragment)
        if got is not None:
            assert got == packet
            delivered += 1
    assert abs(delivered / trials - 0.729) <= 0.005


# ------------------------------------------------- the published grid

# SHA-256 of each grid's results CSV: a change that keeps every result
# keeps these bytes
DEFAULT_GRID_SHA256 = "a47d605182f15c845fd6852e34822f05fa5f07615e183253b63d2526834578b8"
TIS_GRID_SHA256 = "fc50e3e584ee86fdcc5bde062cfe8a9518f8b8047bcaa159eb80a26ae03bee7f"


def csv_sha256(results, path):
    write_csv(results, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def default_grid():
    start = time.perf_counter()
    results = sweep(SimConfig(), [5, 10, 15, 20], ["UC", "FC", "UA", "FA"])
    elapsed = time.perf_counter() - start
    return results, elapsed


@pytest.fixture(scope="module")
def tis_grid():
    base = dataclasses.replace(SimConfig(), tis=True)
    return sweep(base, [5, 10, 15, 20], ["FA"])


@pytest.mark.slow
def test_default_grid_orders_the_strategies(default_grid, tmp_path):
    results, _ = default_grid
    assert len(results) == 4 * 4 * 20
    assert csv_sha256(results, tmp_path / "grid.csv") == DEFAULT_GRID_SHA256
    summary = {(s.n_loops, s.strategy): s for s in summarize(results)}
    for n in (5, 10, 15, 20):
        ua, fa, fc, uc = (summary[(n, lab)] for lab in ("UA", "FA", "FC", "UC"))
        assert ua.aoi_mean < fa.aoi_mean < fc.aoi_mean < uc.aoi_mean
        assert ua.lqg_mean < fa.lqg_mean < fc.lqg_mean < uc.lqg_mean
    # the unfiltered compound strategy collapses at high load
    assert summary[(20, "UC")].lqg_mean >= 1.5 * summary[(20, "FC")].lqg_mean


@pytest.mark.slow
def test_default_grid_runs_inside_the_wall_clock_budget(default_grid):
    _, elapsed = default_grid
    assert elapsed < 300.0


@pytest.mark.slow
def test_transmit_if_space_never_hurts(default_grid, tis_grid, tmp_path):
    assert csv_sha256(tis_grid, tmp_path / "tis.csv") == TIS_GRID_SHA256
    results, _ = default_grid
    fa = {s.n_loops: s for s in summarize(results) if s.strategy == "FA"}
    tis = {s.n_loops: s for s in summarize(tis_grid)}
    assert set(fa) == set(tis) == {5, 10, 15, 20}
    for n in (5, 10, 15, 20):
        assert tis[n].aoi_mean <= fa[n].aoi_mean
        assert tis[n].padding_mean <= fa[n].padding_mean
