"""Slotted closed-loop simulator.

Wires N scalar plants through publishers, the aggregation layer and the
erasure link, and closes each loop with a certainty-equivalent LQR on
top of a delivery-driven state estimate. One pass over the horizon per
run; everything downstream of the seed is deterministic.

Slot order, per slot t: plants step with the previous controls and
fresh noise; publishers sample and hand data down; one transport block
is (maybe) sent and (maybe) delivered; controllers update estimates and
apply new inputs; metrics accumulate once the warmup window has passed.
Freshness ages and stage costs are therefore measured on the post-update
state of slot t.

The slot loop is written for throughput: the controller update of slot
t and the plant step of slot t+1 share one pass over the loops, ingest
and selection go through the aggregation layer's batch entry points,
and freshness age totals are integrated from delivery events instead of
per-slot counters. Deadband semantics follow DeadbandFilter (first
sample always admits, strict threshold, reference moves only on
admission); the filter is inlined here and pinned to the reference
implementation by the filtered-vs-unfiltered equivalence tests.

A run holds the same memory whatever its horizon. Slots go by in the
lockstep engine's blocks of lockstep.BLOCK (512): each block draws its
plant noise and link uniforms as Python floats, and at its end folds its
states and inputs into the stage-cost sums (lockstep.PairwiseFold, bit
for bit numpy's sum over the whole window). Each loop's input history
reaches back only to the oldest sample that a buffer, the compound queue
or the packet on the wire still holds for it, as replay needs. After
2,000-slot warm-up runs, a 1e5-slot run of 20 loops raised peak resident
memory by at most 0.13 MB, against 5.8-7.9 MB with blocks of 4,096
slots, whose noise rows, histories and squares the allocator keeps
resident (Linux, Python 3.11, numpy 2.4).

sweep() hands its cells (one loop count and strategy, all seeds) to
run_cell(). A cell of AOI_COST seeds runs in the lockstep engine
(lockstep.py), which advances every seed together over (runs, loops)
arrays, when its seeds are enough to repay the pass's fixed cost per
slot (_takes_lockstep); every cell of the default grid is. Other cells,
single-seed cells and the FIFO and ROUND_ROBIN policies among them, run
one run() per seed, and jobs=K spreads those runs over the workers.
run() is the reference the lockstep engine is tested against, field for
field and bit for bit.
"""

import dataclasses
import math
import operator
from array import array
from dataclasses import dataclass
from statistics import fmean
from typing import NamedTuple, Optional

import numpy as np

from .channel import FRAGMENT_HEADER_SIZE, LinkConfig
from .lockstep import BLOCK, PairwiseFold, RunTotals, link_stream_state, run_lockstep
from .mdu import PDU_ENTRY_OVERHEAD, PDU_HEADER_SIZE, Mdu
from .plant import PlantParams, RiccatiError, solve_riccati
from .publisher import (
    STRATEGY_ORDER,
    Strategy,
    StrategyConfig,
    decode_value,
    encode_value,
    parse_strategy,
    strategy_label,
)
from .sal import DataHandler, DataReader, Policy, SessionHandler, compose_pdu

ATOMIC_MIN_CAPACITY_SLACK = 10  # PDU header plus one entry header

# Fixed numpy cost per slot of a lockstep pass, in microseconds on a
# 2-vCPU Xeon, for compound (UC, FC) and atomic (UA, FA) strategies
LOCKSTEP_COMPOUND_US = 75.0
LOCKSTEP_ATOMIC_US = 40.0

_INT_FIELDS = (
    "n_loops",
    "horizon",
    "warmup",
    "repetitions",
    "seed",
    "tb_capacity",
    "payload_size",
    "compound_maxlen",
)
_FINITE_FIELDS = ("deadband", "sigma_w2", "q", "r", "a_min", "a_max", "slot_duration_ms")
_int_values = operator.attrgetter(*_INT_FIELDS)
_finite_values = operator.attrgetter(*_FINITE_FIELDS)


class ConfigError(Exception):
    """Raised for unusable simulation parameters."""


def _not_finite(value):
    return not isinstance(value, (int, float)) or not math.isfinite(value)


def _reject(names, values, bad, what):
    name, value = next((n, v) for n, v in zip(names, values) if bad(v))
    raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass
class SimConfig:
    n_loops: int = 5
    horizon: int = 100_000
    strategy: str = "UA"
    loss_prob: float = 0.10
    tb_capacity: int = 64
    deadband: float = 0.5
    seed: int = 1
    repetitions: int = 20
    a_min: float = 1.0
    a_max: float = 1.2
    sigma_w2: float = 1.0
    q: float = 1.0
    r: float = 1.0
    tis: bool = False
    policy: str = "AOI_COST"
    warmup: int = 1_000
    payload_size: int = 20
    slot_duration_ms: float = 10.0
    per_packet_loss: bool = False
    compound_maxlen: int = 8
    plants: Optional[list] = None

    def resolved_strategy(self):
        try:
            strat = parse_strategy(self.strategy)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.tis:
            strat = StrategyConfig(strat.kind, True)
        try:
            strat.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return strat

    def link(self):
        return LinkConfig(
            slot_duration_ms=self.slot_duration_ms,
            tb_capacity=self.tb_capacity,
            loss_prob=self.loss_prob,
            per_packet_loss=self.per_packet_loss,
        )

    def make_plants(self):
        if self.plants is not None:
            made = list(self.plants)
        else:
            made = [
                PlantParams(a=ai, b=1.0, sigma_w2=self.sigma_w2, q=self.q, r=self.r)
                for ai in _linspace(self.a_min, self.a_max, self.n_loops)
            ]
        for plant in made:
            plant.validate()
        return made

    def validate(self):
        # one C-level pass per group keeps this cheap for short runs
        ints = _int_values(self)
        if set(map(type, ints)) != {int}:  # bools are ints too
            _reject(_INT_FIELDS, ints, lambda v: type(v) is not int, "an integer")
        floats = _finite_values(self)
        try:
            finite = all(map(math.isfinite, floats))
        except TypeError:  # not a number at all
            finite = False
        if not finite:
            _reject(_FINITE_FIELDS, floats, _not_finite, "a finite number")
        if self.n_loops < 1:
            raise ConfigError(f"n_loops must be a positive integer, got {self.n_loops}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be a positive integer, got {self.horizon}")
        if not 0 <= self.warmup < self.horizon:
            raise ConfigError(
                f"warmup must lie in [0, horizon), got {self.warmup} for horizon {self.horizon}"
            )
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be positive, got {self.repetitions}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.deadband < 0.0:
            raise ConfigError(f"deadband must be non-negative, got {self.deadband}")
        if self.payload_size < 8:
            raise ConfigError(f"payload_size must hold a float64, got {self.payload_size}")
        if self.compound_maxlen < 1:
            raise ConfigError(f"compound_maxlen must be positive, got {self.compound_maxlen}")
        strat = self.resolved_strategy()
        if not strat.compound:
            atomic_min = ATOMIC_MIN_CAPACITY_SLACK + self.payload_size
            if self.tb_capacity < atomic_min:
                raise ConfigError(
                    f"tb_capacity {self.tb_capacity} cannot carry one "
                    f"{self.payload_size} byte value (needs {atomic_min})"
                )
        else:
            if self.n_loops > 255:
                raise ConfigError(
                    f"compound packets count entries in one byte, "
                    f"n_loops={self.n_loops} cannot fit"
                )
            packed = 1 + self.n_loops * (PDU_ENTRY_OVERHEAD + self.payload_size)
            chunk = self.tb_capacity - FRAGMENT_HEADER_SIZE
            if chunk > 0 and -(-packed // chunk) > 255:
                raise ConfigError(
                    f"a full compound packet of {packed} bytes needs more "
                    f"than 255 fragments at tb_capacity {self.tb_capacity}"
                )
        if self.policy not in Policy.__members__:
            raise ConfigError(f"unknown selection policy {self.policy!r}")
        try:
            self.link().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.plants is not None and len(self.plants) != self.n_loops:
            raise ConfigError(
                f"{len(self.plants)} plants supplied for n_loops={self.n_loops}"
            )
        if self.plants is None and self.a_min > self.a_max:
            raise ConfigError(f"a_min {self.a_min} exceeds a_max {self.a_max}")
        try:
            self.make_plants()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self


@dataclass
class RunResult:
    n_loops: int
    strategy: str
    seed: int
    mean_aoi: float
    mean_lqg: float
    per_loop_aoi: tuple
    per_loop_lqg: tuple
    padding_fraction: float
    trigger_rate: float
    discards: int
    published: int
    delivered: int
    aoi_trace: Optional[list] = None
    delivery_log: Optional[list] = None


class SummaryRow(NamedTuple):
    n_loops: int
    strategy: str
    aoi_mean: float
    aoi_min: float
    aoi_max: float
    lqg_mean: float
    lqg_min: float
    lqg_max: float
    padding_mean: float
    trigger_mean: float


def run(config, erasure_pattern=None, record_traces=False):
    """Simulate one seeded run and return its aggregate metrics.

    erasure_pattern, when given, scripts the link (True = block erased)
    instead of the Bernoulli draws; it must cover the whole horizon.
    record_traces additionally returns the per-slot age of every loop
    and a (slot, loop, sample_time) log of controller deliveries.
    """
    config.validate()
    strat = config.resolved_strategy()
    plants = config.make_plants()
    n = config.n_loops
    horizon = config.horizon
    warmup = config.warmup
    capacity = config.tb_capacity
    value_size = config.payload_size
    per_packet = config.per_packet_loss
    if erasure_pattern is not None and len(erasure_pattern) < horizon:
        raise ConfigError(
            f"erasure pattern covers {len(erasure_pattern)} of {horizon} slots"
        )

    a = [pl.a for pl in plants]
    b = [pl.b for pl in plants]
    try:
        neg_gain = [-solve_riccati(pl.a, pl.b, pl.q, pl.r)[1] for pl in plants]
    except RiccatiError as exc:
        raise _no_gain(exc) from None

    # the seed's stream holds one normal per loop per slot (one spare row
    # feeds the loop-fused plant step past the horizon), then one uniform
    # per slot, so compared strategies share realizations. Slots go by
    # in blocks: the block of slots s..e-1 holds noise rows s+1..e and
    # the uniforms of its slots. A run of one block draws both from one
    # generator; a longer run reads its uniforms from a second generator
    # that has skipped the normals.
    block = min(BLOCK, horizon)
    rng = np.random.default_rng(config.seed)
    scale = np.sqrt([pl.sigma_w2 for pl in plants])
    noise = _noise_rows(rng, block + 1, scale)
    row = noise.pop(0)
    if erasure_pattern is not None:
        link_rng = None
    elif horizon == block:
        link_rng = rng
    else:
        link_rng = np.random.Generator(np.random.PCG64())
        link_rng.bit_generator.state = link_stream_state(config.seed, n, horizon)

    compound_mode = strat.compound
    filtering = strat.filtered
    tis_on = strat.tis
    threshold = config.deadband

    # Mirrored data path for the default staleness-cost policy: buffer
    # occupancy, the forward-only delivery anchors and the per-loop cost
    # tables are tracked inline instead of over the aggregation-layer
    # and wire-codec objects, whose behavior the mirror reproduces bit
    # for bit (see the pinned run regressions). Other policies take the
    # general object path below; compound packets queue in the
    # aggregation layer whatever the policy.
    fast_sal = Policy[config.policy] is Policy.AOI_COST
    handler = reader = None
    if compound_mode or not fast_sal:
        session = SessionHandler()
        for i in range(n):
            session.subscribe(session.register(f"loop/{i}"), i)
        handler = DataHandler(
            session,
            policy=Policy[config.policy],
            gains=[(pl.a, pl.sigma_w2) for pl in plants],
            tis_enabled=strat.tis,
            compound_maxlen=config.compound_maxlen,
        )
        reader = DataReader(session)
        ingest_fresh_all = handler.ingest_fresh_all
        ingest_flagged = handler.ingest_flagged
        select_uniform = handler.select_uniform
        handle_ack = handler.handle_ack
        process = reader.process

    x = [0.0] * n
    x_hat = [0.0] * n
    u = [0.0] * n
    # per loop, the block's states x_s..x_e (x_s carried at index 0) and
    # the inputs from u_base on, which replay needs: the block's slots
    # write both at index j - block, just past what is kept; squares of
    # x and u over the measured window are folded block by block
    xb = [array("d", [0.0]) * (block + 1) for _ in range(n)]
    uw = [array("d", [0.0]) * block for _ in range(n)]
    u_base = [0] * n
    blank = array("d", [0.0]) * block
    par = list(zip(a, b, neg_gain, uw, xb))
    fold = PairwiseFold(horizon - warmup, (2 * n,))
    got_gen = [-1] * n
    got_val = [0.0] * n
    # freshness age integration: per loop, the open segment since the
    # last delivery (slot of that delivery and the age it reset to);
    # ages in between rise by one per slot, so each closed segment adds
    # an arithmetic ramp, clipped to the measured window
    seg_slot = [-1] * n
    seg_age = [0] * n
    area = [0] * n
    # deadband reference per loop; +inf admits the first sample
    last_ref = [float("inf")] * n
    trig = [False] * n
    pend = 0

    entry_size = PDU_ENTRY_OVERHEAD + value_size
    k_fit = (capacity - PDU_HEADER_SIZE) // entry_size
    anchor = [-1] * n
    a2 = [ai * ai for ai in a]
    s2 = [pl.sigma_w2 for pl in plants]
    g_tab = [[0.0] for _ in range(n)]
    buf_gen = [-1] * n
    buf_val = [0.0] * n
    occupied = 0
    replaced_local = 0

    # compound pipeline state: the packet currently on the wire, its
    # remaining fragment budget and whether every fragment so far arrived
    frag_chunk = capacity - FRAGMENT_HEADER_SIZE
    frag_left = 0
    last_len = 0
    cur_gen = 0
    cur_vals = ()
    cur_ok = False
    packet_fate = False

    blocks = 0
    pad_total = 0
    triggered_total = 0
    published_total = 0
    delivered_total = 0
    counters_base = (0, 0, 0, 0, 0, 0)
    delivery_log = [] if record_traces else None

    # slot 0 plant step (zero state and inputs: x_0 is pure noise)
    for i in range(n):
        xi = row[i]
        x[i] = xi
        xb[i][0] = xi
        if filtering and abs(xi - last_ref[i]) > threshold:
            trig[i] = True
            last_ref[i] = xi
            pend += 1

    for s in range(0, horizon, block):
        size = min(block, horizon - s)
        if s:
            noise.clear()  # never hold two blocks at once
            noise = _noise_rows(rng, size, scale)
        if link_rng is None:
            arrives = [not erased for erased in erasure_pattern[s : s + size]]
        else:
            arrives = (link_rng.random(size) >= config.loss_prob).tolist()
        for j in range(size):
            t = s + j
            if t == warmup:
                counters_base = (
                    blocks,
                    pad_total,
                    triggered_total,
                    published_total,
                    delivered_total,
                    replaced_local + _sal_discards(handler, reader),
                )

            # ------------------------------------------ publish and transmit
            if compound_mode:
                if filtering:
                    triggered_total += pend
                    if pend:
                        entries = [(i, x[i]) for i in range(n) if trig[i]]
                        handler.ingest_compound((t, entries))
                        published_total += len(entries)
                else:
                    triggered_total += n
                    published_total += n
                    handler.ingest_compound((t, tuple(x)))
                fresh_packet = False
                if not frag_left:
                    packet = handler.next_compound()
                    if packet is not None:
                        cur_gen, cur_vals = packet
                        count = len(cur_vals)
                        packed_len = 1 + count * entry_size
                        frag_left = -(-packed_len // frag_chunk)
                        last_len = (
                            FRAGMENT_HEADER_SIZE
                            + packed_len
                            - (frag_left - 1) * frag_chunk
                        )
                        cur_ok = True
                        fresh_packet = True
                if frag_left:
                    blocks += 1
                    frag_left -= 1
                    if not frag_left:
                        pad_total += capacity - last_len
                    ok = arrives[j]
                    if per_packet:
                        if fresh_packet:
                            packet_fate = ok
                        ok = packet_fate
                    if not ok:
                        cur_ok = False
                    elif not frag_left and cur_ok:
                        if filtering:
                            delivered_total += len(cur_vals)
                            for i, v in cur_vals:
                                got_gen[i] = cur_gen
                                got_val[i] = v
                                if delivery_log is not None:
                                    delivery_log.append((t, i, cur_gen))
                        else:
                            delivered_total += n
                            for i in range(n):
                                got_gen[i] = cur_gen
                                got_val[i] = cur_vals[i]
                                if delivery_log is not None:
                                    delivery_log.append((t, i, cur_gen))
            elif fast_sal:
                # --------------- mirrored ingest / rank / deliver, one pass
                if filtering:
                    triggered_total += pend
                    published_total += n if tis_on else pend
                else:
                    triggered_total += n
                    published_total += n
                if filtering and not tis_on:
                    for i in range(n):
                        if trig[i]:
                            if buf_gen[i] >= 0:
                                replaced_local += 1
                            buf_gen[i] = t
                            buf_val[i] = x[i]
                else:
                    # every buffer is rewritten each slot, so the overwrite
                    # count is just the occupancy left by the last selection
                    replaced_local += occupied
                    occupied = n
                # rank by staleness cost, scanning ids downward so the
                # lower id wins cost ties by displacing its equal; the
                # scan variants only differ in candidate admission
                top_cost = []
                top_id = []
                if not filtering:
                    for i in range(n - 1, -1, -1):
                        delta = t - anchor[i]
                        tab = g_tab[i]
                        if delta < len(tab):
                            cost = tab[delta]
                        else:
                            cost = tab[-1]
                            ai2 = a2[i]
                            si2 = s2[i]
                            for _ in range(len(tab), delta + 1):
                                cost = ai2 * cost + si2
                                tab.append(cost)
                        held = len(top_cost)
                        if held == k_fit:
                            if cost < top_cost[-1]:
                                continue
                            top_cost.pop()
                            top_id.pop()
                            held -= 1
                        pos = 0
                        while pos < held and top_cost[pos] > cost:
                            pos += 1
                        top_cost.insert(pos, cost)
                        top_id.insert(pos, i)
                elif not tis_on:
                    for i in range(n - 1, -1, -1):
                        if buf_gen[i] < 0:
                            continue
                        delta = t - anchor[i]
                        tab = g_tab[i]
                        if delta < len(tab):
                            cost = tab[delta]
                        else:
                            cost = tab[-1]
                            ai2 = a2[i]
                            si2 = s2[i]
                            for _ in range(len(tab), delta + 1):
                                cost = ai2 * cost + si2
                                tab.append(cost)
                        held = len(top_cost)
                        if held == k_fit:
                            if cost < top_cost[-1]:
                                continue
                            top_cost.pop()
                            top_id.pop()
                            held -= 1
                        pos = 0
                        while pos < held and top_cost[pos] > cost:
                            pos += 1
                        top_cost.insert(pos, cost)
                        top_id.insert(pos, i)
                else:
                    sup_cost = []
                    sup_id = []
                    adm_total = 0
                    for i in range(n - 1, -1, -1):
                        if trig[i]:
                            adm_total += 1
                            costs = top_cost
                            ids = top_id
                        else:
                            costs = sup_cost
                            ids = sup_id
                        delta = t - anchor[i]
                        tab = g_tab[i]
                        if delta < len(tab):
                            cost = tab[delta]
                        else:
                            cost = tab[-1]
                            ai2 = a2[i]
                            si2 = s2[i]
                            for _ in range(len(tab), delta + 1):
                                cost = ai2 * cost + si2
                                tab.append(cost)
                        held = len(costs)
                        if held == k_fit:
                            if cost < costs[-1]:
                                continue
                            costs.pop()
                            ids.pop()
                            held -= 1
                        pos = 0
                        while pos < held and costs[pos] > cost:
                            pos += 1
                        costs.insert(pos, cost)
                        ids.insert(pos, i)
                    if adm_total < k_fit and sup_id:
                        top_id = top_id + sup_id[: k_fit - adm_total]
                if top_id:
                    blocks += 1
                    pad_total += capacity - PDU_HEADER_SIZE - len(top_id) * entry_size
                    ok = arrives[j]
                    if filtering and not tis_on:
                        delivered_total += len(top_id) if ok else 0
                        for i in top_id:
                            g = buf_gen[i]
                            buf_gen[i] = -1
                            if ok:
                                got_gen[i] = g
                                got_val[i] = buf_val[i]
                                anchor[i] = g
                                if delivery_log is not None:
                                    delivery_log.append((t, i, g))
                    else:
                        occupied -= len(top_id)
                        if ok:
                            delivered_total += len(top_id)
                            for i in top_id:
                                got_gen[i] = t
                                got_val[i] = x[i]
                                anchor[i] = t
                                if delivery_log is not None:
                                    delivery_log.append((t, i, t))
            else:
                if filtering:
                    triggered_total += pend
                    published_total += n if tis_on else pend
                    ingest_flagged(t, x, value_size, trig, tis_on)
                else:
                    triggered_total += n
                    published_total += n
                    ingest_fresh_all(t, x, value_size)
                picked = select_uniform(capacity, t, value_size)
                if picked:
                    blocks += 1
                    pdu = compose_pdu(
                        [
                            Mdu(e[0], e[1], encode_value(e[2], value_size))
                            for e in picked
                        ],
                        capacity,
                    )
                    pad_total += pdu.padding_bytes
                    if arrives[j]:
                        deliveries, acks = process(pdu, t)
                        for ack in acks:
                            handle_ack(ack)
                        delivered_total += len(deliveries)
                        for mdu, _subs in deliveries:
                            mid = mdu.id
                            got_gen[mid] = mdu.gen_time
                            got_val[mid] = decode_value(mdu.payload, value_size)
                            if delivery_log is not None:
                                delivery_log.append((t, mid, mdu.gen_time))

            # ------------- controller update for t fused with plant step t+1
            at = j - block
            row = noise[j]
            pend = 0
            for i in range(n):
                ai, bi, ngi, uw_i, xb_i = par[i]
                gen = got_gen[i]
                if gen >= 0:
                    got_gen[i] = -1
                    value = got_val[i]
                    xh = value
                    if gen != t:
                        for uk in uw_i[gen - u_base[i] : at]:
                            xh = ai * xh + bi * uk
                    prev = seg_slot[i]
                    lo = prev + 1
                    hi = t - 1
                    if hi >= warmup and hi >= lo:
                        if lo < warmup:
                            lo = warmup
                        first_age = seg_age[i] + (lo - prev)
                        m = hi - lo + 1
                        area[i] += m * first_age + (m * (m - 1)) // 2
                    age_now = t - gen
                    if t >= warmup:
                        area[i] += age_now
                    seg_slot[i] = t
                    seg_age[i] = age_now
                else:
                    xh = ai * x_hat[i] + bi * u[i]
                x_hat[i] = xh
                ui = ngi * xh
                u[i] = ui
                uw_i[at] = ui
                xi = ai * x[i] + bi * ui + row[i]
                x[i] = xi
                xb_i[at] = xi
                if filtering:
                    if abs(xi - last_ref[i]) > threshold:
                        trig[i] = True
                        last_ref[i] = xi
                        pend += 1
                    else:
                        trig[i] = False

        # the block's measured slots join the stage-cost sums
        lo = max(warmup - s, 0)
        if lo < size:
            squares = np.array(
                [np.frombuffer(xb_i)[lo:size] for xb_i in xb]
                + [np.frombuffer(uw_i)[len(uw_i) - block :][lo:size] for uw_i in uw]
            )
            squares *= squares
            fold.extend(squares.T)
        end = s + size
        if end < horizon:
            for xb_i, xi in zip(xb, x):
                xb_i[0] = xi
            # each loop keeps its inputs back to the oldest generation
            # that a later slot can still deliver to it; the packet on
            # the wire is older than every queued one, and any packet
            # may carry any loop
            if compound_mode:
                if frag_left:
                    held_gen = cur_gen
                else:
                    queued = handler.peek_compound()
                    held_gen = end if queued is None else queued[0]
                oldest = [held_gen] * n
            elif fast_sal:
                oldest = [end if gen < 0 else gen for gen in buf_gen]
            else:
                oldest = [
                    end if held is None else held.gen_time
                    for held in map(handler.occupant, range(n))
                ]
            for i, uw_i in enumerate(uw):
                del uw_i[: oldest[i] - u_base[i]]
                uw_i.extend(blank)
            u_base = oldest

    # close each loop's open age segment at the end of the horizon
    for i in range(n):
        prev = seg_slot[i]
        lo = prev + 1
        hi = horizon - 1
        if hi >= warmup and hi >= lo:
            if lo < warmup:
                lo = warmup
            first_age = seg_age[i] + (lo - prev)
            m = hi - lo + 1
            area[i] += m * first_age + (m * (m - 1)) // 2

    squared = fold.total().tolist()
    base = counters_base
    discards = replaced_local + _sal_discards(handler, reader) - base[5]
    totals = RunTotals(
        area=area,
        x_sq=squared[:n],
        u_sq=squared[n:],
        blocks=blocks - base[0],
        padding=pad_total - base[1],
        triggered=triggered_total - base[2],
        published=published_total - base[3],
        delivered=delivered_total - base[4],
        discards=discards,
    )

    traces = None
    if record_traces:
        by_loop = [dict() for _ in range(n)]
        for slot, mid, gen in delivery_log:
            by_loop[mid][slot] = gen
        traces = []
        for i in range(n):
            lookup = by_loop[i].get
            age = 0
            trace = []
            for slot in range(horizon):
                gen = lookup(slot)
                age = slot - gen if gen is not None else age + 1
                trace.append(age)
            traces.append(trace)

    return _result(config, strat, plants, totals, traces, delivery_log)


def _linspace(start, stop, num):
    """np.linspace(start, stop, num) as Python floats, bit for bit.

    The same operations in the same order as numpy's: start + j * step
    with the last point set to stop, and (j / div) * delta when the step
    underflows to zero. make_plants runs twice per run(), and numpy's
    per-call overhead was most of its time.
    """
    start, stop = float(start), float(stop)
    delta = stop - start
    if num == 1:
        return [start + 0.0 * delta]
    div = num - 1
    step = delta / div
    if step == 0:
        grid = [start + j / div * delta for j in range(div)]
    else:
        grid = [start + j * step for j in range(div)]
    grid.append(stop)
    return grid


def _no_gain(exc):
    return ConfigError(f"no stationary LQR gain for these plants: {exc}")


def _sal_discards(handler, reader):
    """Samples the aggregation-layer objects have dropped, if a run has them."""
    if handler is None:
        return 0
    return handler.replaced_discards + handler.overflow_drops + reader.unsubscribed_drops


def _noise_rows(rng, rows, scale):
    """The generator's next `rows` rows of plant noise, as Python floats."""
    noise = rng.standard_normal((rows, len(scale)))
    noise *= scale
    return noise.tolist()


def _result(config, strat, plants, totals, aoi_trace=None, delivery_log=None):
    """RunResult from what a run accumulated over its measured window."""
    n = config.n_loops
    slots = config.horizon - config.warmup
    per_loop_lqg = [
        (pl.q * x_sq + pl.r * u_sq) / slots
        for pl, x_sq, u_sq in zip(plants, totals.x_sq, totals.u_sq)
    ]
    capacity = config.tb_capacity
    return RunResult(
        n_loops=n,
        strategy=strategy_label(strat),
        seed=config.seed,
        mean_aoi=sum(totals.area) / (n * slots),
        mean_lqg=sum(per_loop_lqg) / n,
        per_loop_aoi=tuple(s / slots for s in totals.area),
        per_loop_lqg=tuple(per_loop_lqg),
        padding_fraction=(
            totals.padding / (capacity * totals.blocks) if totals.blocks else 0.0
        ),
        trigger_rate=totals.triggered / (n * slots),
        discards=totals.discards,
        published=totals.published,
        delivered=totals.delivered,
        aoi_trace=aoi_trace,
        delivery_log=delivery_log,
    )


def _canonical_tokens(strategy_tokens, upgrade_tis):
    labels = []
    for token in strategy_tokens:
        strat = parse_strategy(token)
        if upgrade_tis and strat.kind is Strategy.FA and not strat.tis:
            strat = StrategyConfig(Strategy.FA, True)
        label = strategy_label(strat.validate())
        if label not in labels:
            labels.append(label)
    labels.sort(key=STRATEGY_ORDER.index)
    return labels


def sweep(base, n_values, strategy_tokens, jobs=1):
    """Run the (n_loops, strategy, seed) grid and return all results.

    Rows come back in CSV order: n_loops ascending, then strategies in
    canonical order, then seeds base.seed .. base.seed+repetitions-1.
    base.tis upgrades plain FA tokens to FA+TIS.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    try:
        sizes = sorted({int(v) for v in n_values})
        labels = _canonical_tokens(strategy_tokens, base.tis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not sizes or not labels:
        raise ConfigError("sweep needs at least one loop count and one strategy")
    cells = []
    for size in sizes:
        for label in labels:
            # later seeds count up from the first, so its validate() covers them
            first = dataclasses.replace(base, n_loops=size, strategy=label, tis=False).validate()
            seeds = range(first.seed, first.seed + first.repetitions)
            cells.append([dataclasses.replace(first, seed=seed) for seed in seeds])
    # a cell that does not take the lockstep pass is split into single
    # runs, so that jobs=K spreads its seeds over the workers
    tasks = [
        part
        for cell in cells
        for part in ([cell] if _takes_lockstep(cell) else [[config] for config in cell])
    ]
    if jobs > 1:
        # imported only here, as it loads multiprocessing; fork starts every
        # worker at the first submit, so ask for no more workers than tasks
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            done = list(pool.map(run_cell, tasks))
    else:
        done = [run_cell(task) for task in tasks]
    return [result for task in done for result in task]


def _takes_lockstep(configs):
    """Whether a cell's seeds advance as one lockstep pass.

    Only AOI_COST cells of two or more seeds qualify. A pass pays a
    fixed cost per slot whatever the number of runs, while each seed it
    carries saves about 2 + n/2 us of run()'s slot loop at n loops; the
    pass is taken once the savings exceed the fixed cost. Fitted to
    timings at 1-40 loops and 1-20 seeds, the rule leaves every timed
    cell that it sends to the pass faster there than in run(); cells
    just past the break-even point keep the scalar engine.
    """
    first = configs[0]
    if len(configs) < 2 or first.policy != Policy.AOI_COST.name:
        return False
    fixed = LOCKSTEP_COMPOUND_US if first.resolved_strategy().compound else LOCKSTEP_ATOMIC_US
    return len(configs) * (2 + first.n_loops / 2) > fixed


def run_cell(configs):
    """Results for configs that differ only by seed, in the given order.

    Enough seeds under AOI_COST (see _takes_lockstep) advance together
    in the lockstep engine, which reproduces run() bit for bit; other
    cells go through run() one config at a time.
    """
    first = configs[0]
    for config in configs[1:]:
        if dataclasses.replace(config, seed=first.seed) != first:
            raise ConfigError("a sweep cell's configs may differ only by seed")
    if not _takes_lockstep(configs):
        return [run(config) for config in configs]
    first.validate()  # the cell differs only by seed, so check only the later seeds
    for config in configs[1:]:
        if type(config.seed) is not int or config.seed < 0:
            config.validate()  # raises validate()'s own ConfigError
    strat = first.resolved_strategy()
    plants = first.make_plants()
    try:
        done = run_lockstep(configs, strat, plants)
    except RiccatiError as exc:
        raise _no_gain(exc) from None
    return [_result(config, strat, plants, totals) for config, totals in zip(configs, done)]


def summarize(results):
    """Collapse sweep rows to per (n_loops, strategy) mean/min/max bands."""
    order = []
    groups = {}
    for row in results:
        key = (row.n_loops, row.strategy)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out = []
    for key in order:
        rows = groups[key]
        aoi = [r.mean_aoi for r in rows]
        lqg = [r.mean_lqg for r in rows]
        out.append(
            SummaryRow(
                n_loops=key[0],
                strategy=key[1],
                aoi_mean=fmean(aoi),
                aoi_min=min(aoi),
                aoi_max=max(aoi),
                lqg_mean=fmean(lqg),
                lqg_min=min(lqg),
                lqg_max=max(lqg),
                padding_mean=fmean(r.padding_fraction for r in rows),
                trigger_mean=fmean(r.trigger_rate for r in rows),
            )
        )
    return out
