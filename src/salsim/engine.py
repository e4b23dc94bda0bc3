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

The slot loop is written for throughput. One pass over the loops per
slot applies each controller's input, steps the plant and samples it;
for UA, FA and FA+TIS under the staleness-cost policy it also admits
each sample, writes FA's buffer and offers the loop to a running top-k
shortlist, which the next slot sends as it is (slot -1 runs the pass
alone, to draw x_0 and rank slot 0). Every link hands the controllers
(loop, generation) pairs, as the layer's units carry their generation
time: the sample x_gen is read from the rows of states that replay
keeps (x_t itself when gen == t), so no value travels with a buffer
entry or a queued packet. The object path, which FA and FA+TIS take
under FIFO and ROUND_ROBIN, encodes values into its PDUs for their byte
accounting and never decodes them. A delivery replaces its loop's
estimate and adds to the loop's age total the move of its newest
generation times the measured slots left. Deadband semantics follow
DeadbandFilter (first sample always admits, strict threshold, reference
moves only on admission); the filter is inlined here and pinned to the
reference implementation by the filtered-vs-unfiltered equivalence
tests.

Links that read no plant state are a fixed schedule: UC under any
policy, and UA under FIFO and ROUND_ROBIN. Every loop admits in every
slot, and neither UC's queue nor those two policies read an
acknowledgement, so what the layer hands out in each slot (UC: the
packet that goes on the wire, and the generation it carries; UA: the
loops whose samples fill the PDU) depends on no state and no draw. run() drives the layer through its
start-up with the calls the slot loop would make, until its output
repeats, and extends that by its period (_Schedule). These links skip
the slot loop. A block's deliveries follow from the schedule and the
block's link draws, which decide only whether a transmission arrives;
then each loop steps through the whole block on its own, in locals,
and at each delivery replays x_gen over the inputs since, from its own
block or from the rows of earlier blocks, with the same steps in the
same order as the per-slot path. The blocks sent, their padding and
the discards come from the schedule too.

A run holds the same memory whatever its horizon. Slots go by in the
lockstep engine's blocks of lockstep.BLOCK (512): each block draws its
plant noise and link uniforms as Python floats, from the generators
lockstep.seed_streams hands both engines, and at its end folds its
states and inputs into the stage-cost sums (lockstep.PairwiseFold, bit
for bit numpy's sum over the whole window). The rows of states and
inputs that replay reads reach back 1/8 block, or further to the oldest
sample that a buffer, the compound queue or the wire still holds.

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
from struct import pack
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .channel import FRAGMENT_HEADER_SIZE, fragment_layout
from .lockstep import BLOCK, PairwiseFold, RunTotals, atomic_counts, run_lockstep, seed_streams
from .mdu import PDU_ENTRY_OVERHEAD, PDU_HEADER_SIZE, Mdu
from .plant import PlantParams, RiccatiError, solve_riccati, staleness_cost
from .publisher import (
    STRATEGY_ORDER,
    Strategy,
    StrategyConfig,
    VALUE_PAYLOAD_SIZE,
    decode_value,  # not called: benchmarks/tracer.py patches the name on this module
    encode_value,
    parse_strategy,
    strategy_label,
)
from .sal import DataHandler, DataReader, Policy, SessionHandler, compose_pdu

# Fixed numpy cost per slot of a lockstep pass, in microseconds on a
# 2-vCPU Xeon, for compound (UC, FC) and atomic (UA, FA) strategies
LOCKSTEP_COMPOUND_US = 75.0
LOCKSTEP_ATOMIC_US = 40.0

class ConfigError(Exception):
    """Raised for unusable simulation parameters."""


_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string"}


def _not_finite(value):
    return type(value) is bool or not isinstance(value, (int, float)) or not math.isfinite(value)


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
    per_packet_loss: bool = False
    compound_maxlen: int = 8
    plants: Optional[list] = None

    def resolved_strategy(self):
        try:
            strat = parse_strategy(self.strategy)
            if self.tis:
                strat = StrategyConfig(strat.kind, True).validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return strat

    def make_plants(self):
        if self.plants is not None:
            made = list(self.plants)
        else:
            sigma_w2, q, r = self.sigma_w2, self.q, self.r
            made = [
                PlantParams(ai, 1.0, sigma_w2, q, r)
                for ai in _poles(self.a_min, self.a_max, self.n_loops)
            ]
        for plant in made:
            plant.validate()
        return made

    def validate(self):
        # one C-level pass per group keeps this cheap for short runs
        exact = _exact_values(self)
        if list(map(type, exact)) != _EXACT_TYPES:  # bools are ints too
            name, value, kind = next(
                (n, v, k)
                for n, v, k in zip(_EXACT_FIELDS, exact, _EXACT_TYPES)
                if type(v) is not k
            )
            raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
        floats = _float_values(self)
        try:  # math.isfinite takes bools as the ints they are
            finite = all(map(math.isfinite, floats)) and bool not in map(type, floats)
        except TypeError:  # not a number at all
            finite = False
        if not finite:
            _reject(_FLOAT_FIELDS, floats, _not_finite, "a finite number")
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
        if self.compound_maxlen < 1:
            raise ConfigError(f"compound_maxlen must be positive, got {self.compound_maxlen}")
        strat = self.resolved_strategy()
        if not strat.compound:
            atomic_min = PDU_HEADER_SIZE + PDU_ENTRY_OVERHEAD + VALUE_PAYLOAD_SIZE
            if self.tb_capacity < atomic_min:
                raise ConfigError(
                    f"tb_capacity {self.tb_capacity} cannot carry one "
                    f"{VALUE_PAYLOAD_SIZE} byte value (needs {atomic_min})"
                )
        else:
            if self.n_loops > 255:
                raise ConfigError(
                    f"compound packets count entries in one byte, "
                    f"n_loops={self.n_loops} cannot fit"
                )
            packed = 1 + self.n_loops * (PDU_ENTRY_OVERHEAD + VALUE_PAYLOAD_SIZE)
            if (
                self.tb_capacity > FRAGMENT_HEADER_SIZE
                and fragment_layout(packed, self.tb_capacity)[0] > 255
            ):
                raise ConfigError(
                    f"a full compound packet of {packed} bytes needs more "
                    f"than 255 fragments at tb_capacity {self.tb_capacity}"
                )
        if self.policy not in _POLICY_NAMES:
            raise ConfigError(f"unknown selection policy {self.policy!r}")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ConfigError(f"loss_prob must lie in [0, 1], got {self.loss_prob}")
        if self.tb_capacity <= FRAGMENT_HEADER_SIZE:
            raise ConfigError(
                f"tb_capacity must exceed the {FRAGMENT_HEADER_SIZE} byte "
                f"fragment header, got {self.tb_capacity}"
            )
        plants = self.plants
        if plants is None:
            if self.a_min > self.a_max:
                raise ConfigError(f"a_min {self.a_min} exceeds a_max {self.a_max}")
        elif not isinstance(plants, (list, tuple)):
            raise ConfigError(f"plants must be a list of PlantParams, got {plants!r}")
        elif len(plants) != self.n_loops:
            raise ConfigError(f"{len(plants)} plants supplied for n_loops={self.n_loops}")
        elif not all(isinstance(plant, PlantParams) for plant in plants):
            raise ConfigError(f"plants must be a list of PlantParams, got {plants!r}")
        try:
            self.make_plants()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        except TypeError as exc:  # a plant parameter that is not a number
            raise ConfigError(f"plants must have numeric parameters: {exc}") from None
        return self


# validate() checks each field against its annotation: int, bool and str
# fields by exact type (a list compares fastest), float fields as finite
# numbers, ints among them but not bools
_EXACT_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if f.type in _TYPE_NAMES]
_EXACT_TYPES = [f.type for f in dataclasses.fields(SimConfig) if f.type in _TYPE_NAMES]
_FLOAT_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if f.type is float]
_exact_values = operator.attrgetter(*_EXACT_FIELDS)
_float_values = operator.attrgetter(*_FLOAT_FIELDS)
_POLICY_NAMES = frozenset(Policy.__members__)
# every field but the seed, which is all a sweep cell's configs may share
_cell_values = operator.attrgetter(
    *[f.name for f in dataclasses.fields(SimConfig) if f.name != "seed"]
)


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
    and a (slot, loop, sample_time) log of controller deliveries, which
    lists each slot's deliveries in loop order.
    """
    strat, plants, neg_gain = _prepare(config)
    n = config.n_loops
    horizon = config.horizon
    warmup = config.warmup
    capacity = config.tb_capacity
    per_packet = config.per_packet_loss
    if erasure_pattern is not None and len(erasure_pattern) < horizon:
        raise ConfigError(
            f"erasure pattern covers {len(erasure_pattern)} of {horizon} slots"
        )

    # the seed's stream holds one normal per loop per slot (one spare row
    # feeds the loop-fused plant step past the horizon), then one uniform
    # per slot, so compared strategies share realizations. Slots go by
    # in blocks: the block of slots s..e-1 holds noise rows s+1..e and
    # the uniforms of its slots. A scripted run reads no uniforms.
    block = min(BLOCK, horizon)
    if erasure_pattern is None:
        rng, link_rng = seed_streams(config.seed, n, horizon, block)
    else:
        rng = np.random.default_rng(config.seed)
    scale = [math.sqrt(pl.sigma_w2) for pl in plants]  # correctly rounded, as np.sqrt

    compound_mode = strat.compound
    filtering = strat.filtered
    tis_on = strat.tis
    threshold = config.deadband
    low = -threshold

    # Atomic strategies under the default staleness-cost policy (rank)
    # mirror the aggregation layer inline: the pass that draws a slot's
    # samples ranks them for the next slot by staleness cost, read at the
    # controllers' delivery anchors, bit for bit with the layer's
    # selection and PDU byte accounting (see the pinned run regressions).
    # Links that read no plant state (fixed: UC under any policy, UA
    # under FIFO and ROUND_ROBIN) take what they send from a schedule that
    # the layer hands out once per run; FA and FA+TIS under FIFO and
    # ROUND_ROBIN take the object path below, and FC's packets queue in
    # the layer as (generation, loop ids), whatever the policy.
    policy = Policy[config.policy]
    rank = policy is Policy.AOI_COST and not compound_mode
    fixed = not (filtering or rank)
    buffered = rank and filtering and not tis_on  # FA
    handler = reader = None
    if not (rank or fixed):
        handler, reader = _layer(config, plants, policy, tis_on)
        ingest_flagged = handler.ingest_flagged
        select_uniform = handler.select_uniform
        process = reader.process

    x = [0.0] * n
    x_hat = [0.0] * n  # estimates for the coming slot, unless a delivery replaces them
    u = [0.0] * n
    # states and inputs, one time-major row (x_t, u_t) of 2n values per
    # slot from slot row0 on, then x_t of the current slot; slot -1's
    # state is zero. One array, not two, keeps the peak flat: two arrays
    # that grow by turns leave holes in the heap
    rows = array("d", x)
    width = 2 * n
    row0 = -1
    par = [(pl.a, pl.b, ngi) for pl, ngi in zip(plants, neg_gain)]
    fold = PairwiseFold(horizon - warmup, (width,))
    # a delivery is a list of loop ids, and got_gen holds each one's
    # generation: (loop, generation) pairs kept by loop, as building
    # tuples slowed the atomic strategies' slots
    got_gen = [-1] * n
    # per loop, the generation of the newest delivered sample (-1 before
    # the first): the age at slot s is s - anchor, the delta the ranking
    # reads too. A delivery at slot t moves the age of every measured slot
    # from t on by one amount, so the age totals start from the ages with
    # no delivery, (w+1) + ... + h, and each delivery adds its change
    anchor = [-1] * n
    area = [(horizon * (horizon + 1) - warmup * (warmup + 1)) // 2] * n
    # deadband reference per loop; +inf admits the first sample
    last_ref = [float("inf")] * n
    # the number of samples admitted for the coming slot; their ids,
    # ascending, which the object ingest and FC's queue take, go to fresh.
    # The rank pass counts them from pend0, all loops under UA
    pend = pend0 = 0 if filtering else n

    entry_size = PDU_ENTRY_OVERHEAD + VALUE_PAYLOAD_SIZE
    room = capacity - PDU_HEADER_SIZE
    # shortlists hold k entries, padded with cost -1.0 and id -1: every
    # cost is positive, so a padding entry is the first to go
    k = min(room // entry_size, n)
    last = k - 1
    pad_cost = [-1.0] * k
    pad_id = [-1] * k
    g_tab = [[0.0, pl.sigma_w2] for pl in plants]  # g(0), and g(1) = sigma_w2 for slot -1
    low_id = []
    buf_gen = [-1] * n
    # FA's samples that the next slot's ingest overwrites. UA and FA+TIS send
    # k entries per slot: h - w blocks, (h - w)(room - k entry_size) padding
    # bytes and (n - k)(h - max(w, 1)) discards, from lockstep.atomic_counts
    overwrites = 0
    replaced_local = 0

    # compound pipeline state: the packet currently on the wire, its
    # remaining fragment budget, the padding of its last fragment and
    # whether it still arrives; a packet of c entries takes frag_table[c]
    frag_left = 0
    last_pad = 0
    cur_gen = 0
    cur_ok = False
    if compound_mode:
        frag_table = [fragment_layout(1 + c * entry_size, capacity) for c in range(n + 1)]
    if fixed:
        schedule = _fixed_schedule(config, plants, frag_table if compound_mode else None)
        # the slots a transmission holds the wire: one per PDU, a UC
        # packet's fragments; its last slot delivers it, if every draw
        # let it through (per packet, its first draw alone)
        wire = frag_table[n][0] if compound_mode else 1
        every_draw = wire > 1 and not per_packet
        # a delivery at slot t reaches back this far for its sample
        reach = max(lag for _t, entries in schedule.events for _i, lag in entries) + wire - 1
        # each block's (u_t, x_t+1) rows are gathered here
        gathered = np.empty((block + 1, width))

    blocks = pad_total = triggered_total = delivered_total = 0
    delivery_log = [] if record_traces else None

    for s in range(0, horizon, block):
        size = min(block, horizon - s)
        end = s + size
        noise = None  # never hold two blocks at once
        # the first block also draws row 0, x_0's noise, for slot -1
        noise = _noise(rng, size + (not s), scale)
        if erasure_pattern is not None:
            arrives = [not erased for erased in erasure_pattern[s:end]]
        else:
            arrives = (link_rng.random(size) >= config.loss_prob).tolist()
        if fixed:
            # the block's deliveries, per loop, as (slot, generation) pairs,
            # from the transmissions whose last slot falls in the block; a
            # transmission that started in an earlier block keeps its fate
            got = [[]] * n if compound_mode else [[] for _ in range(n)]
            for st, entries in schedule.between(s - wire + 1, end):
                fin = st + wire  # the slot after its last
                on = st - s  # its first slot in the block
                if on >= 0:
                    cur_ok = arrives[on]
                elif fin <= s:
                    continue
                else:
                    on = 0
                if cur_ok and every_draw:
                    cur_ok = all(arrives[on : fin - s])
                if fin > end or not cur_ok:
                    continue
                t = fin - 1
                left = horizon - (t if t > warmup else warmup)
                # a UC packet carries every loop at one generation: the
                # loops share one list of deliveries and one age total,
                # kept as loop 0's
                for i, lag in entries[:1] if compound_mode else entries:
                    gen = st - lag
                    got[i].append((t, gen))
                    area[i] += (anchor[i] - gen) * left
                    anchor[i] = gen
                if t >= warmup:
                    delivered_total += len(entries)
                if delivery_log is not None:
                    delivery_log.extend(sorted([(t, i, st - lag) for i, lag in entries]))
            # a pass per loop over the block's slots (from slot -1 in the
            # first block), as slices of the list of slots between its
            # deliveries: each delivery replays x_gen over u_gen..u_t-1 from
            # the loop's own lists, or from rows if gen precedes them
            first = s - (not s)
            back = (first - row0) * width  # where x_first's row starts in rows
            passes = len(noise)
            dels = None
            # one loop's column of noise at a time, as Python floats
            for i, col in enumerate(map(np.ndarray.tolist, noise.T)):
                ai, bi, ngi = par[i]
                xi, xh = x[i], x_hat[i]
                xs, us = [xi], []  # x_first.., u_first.. of the loop's block
                keep_x, keep_u = xs.append, us.append
                if got[i] is not dels:
                    dels = got[i]
                    marks = [t - first for t, _gen in dels]
                    gens = [gen - first for _t, gen in dels]
                    spans = list(zip([0, *marks], [*marks, passes], [None, *gens]))
                for lo, hi, g in spans:
                    if g is not None:
                        if g >= 0:
                            xh = xs[g]
                        else:
                            at = back + g * width + i
                            xh = rows[at]
                            for uk in rows[at + n : back : width]:
                                xh = ai * xh + bi * uk
                            g = 0
                        for uk in us[g:lo]:
                            xh = ai * xh + bi * uk
                    for w in col[lo:hi]:
                        ui = ngi * xh
                        keep_u(ui)
                        bu = bi * ui
                        xi = ai * xi + bu + w
                        keep_x(xi)
                        xh = ai * xh + bu
                x[i], x_hat[i] = xi, xh
                # packed to doubles first: about half the time of numpy's
                # conversion of a list
                doubles = f"{passes}d"
                gathered[:passes, i] = np.frombuffer(pack(doubles, *us))
                gathered[:passes, n + i] = np.frombuffer(pack(doubles, *xs[1:]))
            rows.frombytes(memoryview(gathered[:passes]).cast("B"))
        else:
            noise = noise.tolist()
            if not s:
                noise.append(noise.pop(0))  # slot -1 reads row 0 as noise[-1]
        # the slot loop, which fixed links skip; slot -1 sends nothing:
        # its pass only draws x_0 and ranks slot 0
        for j in () if fixed else range(-1 if s == 0 else 0, size):
            t = s + j
            if t >= 0:
                if t == warmup:  # the counters cover the measured slots only
                    blocks = pad_total = triggered_total = delivered_total = 0
                    replaced_local = -_sal_discards(handler, reader)

                # -------------------------------------- publish and transmit
                triggered_total += pend
                got = ()
                if compound_mode:
                    if pend:
                        handler.ingest_compound((t, fresh))
                    if not frag_left:
                        packet = handler.next_compound()
                        if packet is not None:
                            cur_gen, cur_ids = packet
                            frag_left, last_pad = frag_table[len(cur_ids)]
                            cur_ok = arrives[j]
                    elif not (per_packet or arrives[j]):  # per packet, the first draw decides
                        cur_ok = False
                    if frag_left:
                        blocks += 1
                        frag_left -= 1
                        if not frag_left:
                            pad_total += last_pad
                            if cur_ok:
                                got = cur_ids
                                for i in got:
                                    got_gen[i] = cur_gen
                elif rank:
                    # send what the last pass ranked (FA+TIS: the admitted
                    # tier first), less the padding of a short tier
                    sent = top_id
                    if sent[-1] < 0:
                        sent = [i for i in top_id + low_id if i >= 0][:k]
                    if buffered:  # UA and FA+TIS keep no per-slot tally
                        replaced_local += overwrites
                        overwrites = 0
                        if sent:
                            blocks += 1
                            pad_total += room - len(sent) * entry_size
                            for i in sent:
                                got_gen[i] = buf_gen[i]
                                buf_gen[i] = -1
                            if arrives[j]:
                                got = sent
                    elif arrives[j]:
                        got = sent
                        for i in got:
                            got_gen[i] = t
                else:
                    ingest_flagged(t, x, VALUE_PAYLOAD_SIZE, fresh, tis_on)
                    picked = select_uniform(capacity, t, VALUE_PAYLOAD_SIZE)
                    if picked:
                        blocks += 1
                        pdu = compose_pdu(
                            [Mdu(e[0], e[1], encode_value(e[2])) for e in picked],
                            capacity,
                        )
                        pad_total += pdu.padding_bytes
                        if arrives[j]:
                            # FIFO and ROUND_ROBIN read no acknowledgement
                            got = []
                            for mdu, _subs in process(pdu, t)[0]:
                                got.append(mdu.id)
                                got_gen[mdu.id] = mdu.gen_time

                # ----------- deliveries replace their loops' estimates
                if got:
                    left = horizon - (t if t > warmup else warmup)
                    now = (t - row0) * width
                    for i in got:
                        gen = got_gen[i]
                        if gen == t:
                            xh = x[i]
                        else:  # x_gen from its row, then replay the inputs u_gen..u_t-1
                            at = (gen - row0) * width + i
                            xh = rows[at]
                            ai, bi, _ = par[i]
                            for uk in rows[at + n : now : width]:
                                xh = ai * xh + bi * uk
                        x_hat[i] = xh
                        area[i] += (anchor[i] - gen) * left
                        anchor[i] = gen
                    delivered_total += len(got)
                    if delivery_log is not None:
                        delivery_log.extend(sorted([(t, i, got_gen[i]) for i in got]))

            # ------ controller update for t, plant step and sampling for t+1
            row = noise[j]
            pend = pend0
            if rank:
                # admit, buffer and rank slot t+1's samples as they are
                # drawn. Ids ascend, so the lower id wins a cost tie: an
                # equal cost neither displaces nor passes its equal
                t1 = t + 1
                top_cost = pad_cost.copy()
                top_id = pad_id.copy()
                if tis_on:
                    low_cost = pad_cost.copy()
                    low_id = pad_id.copy()
                costs, ids, floor = top_cost, top_id, -1.0
                for i, (ai, bi, ngi) in enumerate(par):
                    xh = x_hat[i]
                    ui = ngi * xh
                    u[i] = ui
                    bu = bi * ui
                    xi = ai * x[i] + bu + row[i]
                    x[i] = xi
                    x_hat[i] = ai * xh + bu
                    if filtering:
                        d = xi - last_ref[i]
                        if d > threshold or d < low:  # abs(d) > threshold, nan too
                            last_ref[i] = xi
                            pend += 1
                            if buffered:
                                if buf_gen[i] >= 0:
                                    overwrites += 1
                                buf_gen[i] = t1
                            elif ids is not top_id:
                                costs, ids, floor = top_cost, top_id, top_cost[last]
                        elif buffered:
                            if buf_gen[i] < 0:
                                continue
                        elif top_id[last] >= 0:
                            continue  # k admitted samples fill the block
                        else:  # FA+TIS ranks a suppressed sample behind every admitted one
                            costs, ids, floor = low_cost, low_id, low_cost[last]
                    # delta >= 1, as anchor[i] <= t, so no index wraps round
                    delta = t1 - anchor[i]
                    try:
                        cost = g_tab[i][delta]
                    except IndexError:  # grow the table to delta
                        cost = staleness_cost(g_tab[i], ai * ai, plants[i].sigma_w2, delta)
                    if cost > floor:
                        pos = last
                        while pos and costs[pos - 1] < cost:
                            costs[pos] = costs[pos - 1]
                            ids[pos] = ids[pos - 1]
                            pos -= 1
                        costs[pos] = cost
                        ids[pos] = i
                        floor = costs[last]
            else:
                fresh = []  # the ids admitted for slot t+1
                for i in range(n):
                    ai, bi, ngi = par[i]
                    xh = x_hat[i]
                    ui = ngi * xh
                    u[i] = ui
                    bu = bi * ui
                    xi = ai * x[i] + bu + row[i]
                    x[i] = xi
                    x_hat[i] = ai * xh + bu
                    d = xi - last_ref[i]
                    if d > threshold or d < low:
                        last_ref[i] = xi
                        fresh.append(i)
                pend = len(fresh)
            rows.fromlist(u)
            rows.fromlist(x)

        # the block's measured slots join the stage-cost sums
        lo = max(warmup, s)
        if lo < end:
            # squares of the rows of slots lo..end-1, read through a view
            # that no name keeps: rows cannot be resized while viewed
            window = ((end - lo, width), "d", rows, (lo - row0) * width * rows.itemsize)
            fold.extend(np.square(np.ndarray(*window)))
        if end < horizon:
            # rows go back to the oldest generation that a later slot can
            # still deliver (the packet on the wire is older than every
            # queued one), and at least 1/8 block, so that blocks end at
            # one length while held samples are younger: lengths that
            # varied with UC's queue moved the array in the heap, and
            # 50k-slot runs at 20 loops raised the peak by up to 0.22 MB
            if fixed:
                keep = max(end - reach, 0)
            elif compound_mode:
                if frag_left:
                    keep = cur_gen
                else:
                    queued = handler.peek_compound()
                    keep = end if queued is None else queued[0]
            elif rank:
                keep = min([gen for gen in buf_gen if gen >= 0], default=end)
            else:
                held = [o.gen_time for o in map(handler.occupant, range(n)) if o is not None]
                keep = min(held, default=end)
            keep = min(keep, end - block // 8)
            del rows[: (keep - row0) * width]
            row0 = keep

    if fixed:
        if compound_mode:
            area = [area[0]] * n
        triggered_total = n * (horizon - warmup)
        blocks, pad_total, replaced_local = map(
            operator.sub, schedule.count(horizon), schedule.count(warmup)
        )
    elif rank and not buffered:
        blocks, pad_total, replaced_local = atomic_counts(config, k)
    squared = fold.total().tolist()
    totals = RunTotals(
        area, squared[:n], squared[n:], blocks, pad_total, triggered_total, delivered_total,
        replaced_local + _sal_discards(handler, reader),
    )

    traces = None
    if record_traces:
        by_loop = [dict() for _ in range(n)]
        for slot, mid, gen in delivery_log:
            by_loop[mid][slot] = gen
        traces = []
        for i in range(n):
            newest = by_loop[i].get
            gen = -1
            trace = []
            for slot in range(horizon):
                gen = newest(slot, gen)
                trace.append(slot - gen)
            traces.append(trace)

    return _result(config, strat, plants, totals, traces, delivery_log)


@lru_cache(maxsize=256, typed=True)
def _poles(a_min, a_max, n_loops):
    """The default plants' poles, np.linspace(a_min, a_max, n_loops), as floats.

    make_plants runs twice per run(), and numpy's per-call cost was most
    of its time. As for _neg_gain, keys that compare equal share their
    poles: a zero of either sign gives the same run.
    """
    return tuple(np.linspace(a_min, a_max, n_loops).tolist())


@lru_cache(maxsize=256, typed=True)
def _neg_gain(a, b, q, r):
    """-L, the stationary LQR gain negated, solved once per plant.

    A RiccatiError is raised afresh on every call, never cached. Keys
    that compare equal give the same run: a = -0.0 only flips the sign
    of zero gains and inputs, whose squares and sums are +0.0 either way.
    """
    return -solve_riccati(a, b, q, r)[1]


def _prepare(config):
    """Validate config; return its strategy, its plants and each plant's -L."""
    config.validate()
    strat = config.resolved_strategy()
    plants = config.make_plants()
    try:
        neg_gain = [_neg_gain(pl.a, pl.b, pl.q, pl.r) for pl in plants]
    except RiccatiError as exc:
        raise ConfigError(f"no stationary LQR gain for these plants: {exc}") from None
    return strat, plants, neg_gain


def _layer(config, plants, policy, tis):
    """A run's aggregation layer: its DataHandler and DataReader, one id per loop."""
    session = SessionHandler()
    for i in range(config.n_loops):
        session.subscribe(session.register(f"loop/{i}"), i)
    handler = DataHandler(
        session,
        policy=policy,
        gains=[(pl.a, pl.sigma_w2) for pl in plants],
        tis_enabled=tis,
        compound_maxlen=config.compound_maxlen,
    )
    return handler, DataReader(session)


class _Schedule:
    """What a link that reads no plant state sends in each slot.

    step(t) makes slot t's layer calls and returns the entries the layer
    handed out, as (loop, lag) pairs with lag = t - generation, or None.
    The layer's state after a slot that hands out entries follows from
    those entries alone, as each slot hands it the same ingest, so once
    the entries repeat an earlier slot's, every later slot repeats the
    slot `period` before it. The drive stops there, or at the horizon;
    between() and count() extend what it saw by the period. tally()
    gives the link's running counts, a tuple of blocks sent, padding
    bytes and discards.
    """

    def __init__(self, step, tally, horizon):
        self.events = []  # (slot, entries) over the slots driven
        self.tallies = [tally()]  # before each slot driven, and after the last
        self.period = 0
        seen = {}
        for t in range(horizon):
            entries = step(t)
            self.tallies.append(tally())
            if entries is not None:
                self.events.append((t, entries))
                first = seen.setdefault(entries, t)
                if first < t:
                    self.period = t - first
                    break
        self.last = t
        # the events that repeat: those after the first of the repeated pair
        self.unit = [e for e in self.events if e[0] > t - self.period] if self.period else []

    def between(self, lo, hi):
        """The (slot, entries) events of slots lo..hi-1, in slot order."""
        for e in self.events:
            if lo <= e[0] < hi:
                yield e
        period = self.period
        if period and hi > self.last + 1:
            # the first copy of the unit that reaches lo, and not the unit itself
            shift = max(1, -((self.last - lo) // period)) * period
            while True:
                for t, entries in self.unit:
                    t += shift
                    if t >= hi:
                        return
                    if t >= lo:
                        yield t, entries
                shift += period

    def count(self, t):
        """The counts of slots 0..t-1."""
        tallies = self.tallies
        if t < len(tallies):
            return tallies[t]
        base = self.last + 1 - self.period
        q, r = divmod(t - base, self.period)
        return tuple(
            at + q * (done - start)
            for at, done, start in zip(tallies[base + r], tallies[-1], tallies[base])
        )


def _fixed_schedule(config, plants, frag_table=None):
    """The _Schedule of UC, given its frag_table, or of UA under FIFO or ROUND_ROBIN.

    Every loop hands its sample down in every slot. UC queues a packet of
    all loops, and an idle wire takes the oldest queued packet, which
    holds it for the packet's fragments (frag_table[entries][0]). UA's
    layer picks by its policy, and the PDU goes through the reader; FIFO
    and ROUND_ROBIN read no acknowledgement, so the picks do not depend on
    what arrives.
    """
    n = config.n_loops
    capacity = config.tb_capacity
    handler, reader = _layer(config, plants, Policy[config.policy], False)
    every = range(n)
    busy = pad = blocks = padding = 0  # busy: the slots the wire is still held

    def uc_step(t):
        nonlocal busy, pad, blocks, padding
        handler.ingest_compound((t, every))
        entries = None
        if not busy:
            packet = handler.next_compound()
            if packet is None:
                return None
            gen, ids = packet
            busy, pad = frag_table[len(ids)]
            entries = tuple([(i, t - gen) for i in ids])
        blocks += 1
        busy -= 1
        if not busy:
            padding += pad
        return entries

    values = [0.0] * n  # picks and PDU sizes do not depend on the values

    def ua_step(t):
        nonlocal blocks, padding
        handler.ingest_flagged(t, values, VALUE_PAYLOAD_SIZE, every, False)
        picked = handler.select_uniform(capacity, t, VALUE_PAYLOAD_SIZE)
        if not picked:
            return None
        pdu = compose_pdu([Mdu(e[0], e[1], encode_value(e[2])) for e in picked], capacity)
        blocks += 1
        padding += pdu.padding_bytes
        return tuple([(m.id, t - m.gen_time) for m, _subs in reader.process(pdu, t)[0]])

    return _Schedule(
        ua_step if frag_table is None else uc_step,
        lambda: (blocks, padding, _sal_discards(handler, reader)),
        config.horizon,
    )


def _sal_discards(handler, reader):
    """Samples the aggregation-layer objects have dropped, if a run has them."""
    if handler is None:
        return 0
    return handler.replaced_discards + handler.overflow_drops + reader.unsubscribed_drops


def _noise(rng, rows, scale):
    """The generator's next `rows` rows of plant noise, one column per loop."""
    noise = rng.standard_normal((rows, len(scale)))
    noise *= scale
    return noise


def _result(config, strat, plants, totals, aoi_trace=None, delivery_log=None):
    """RunResult from what a run accumulated over its measured window."""
    n = config.n_loops
    slots = config.horizon - config.warmup
    area, x_sq, u_sq, blocks, padding, triggered, delivered, discards = totals
    # TIS publishes the suppressed samples too; compound has no TIS
    published = triggered if strat.filtered and not strat.tis else n * slots
    per_loop_lqg = [(pl.q * xs + pl.r * us) / slots for pl, xs, us in zip(plants, x_sq, u_sq)]
    return RunResult(  # positional, in field order
        n, strategy_label(strat), config.seed,
        sum(area) / (n * slots), sum(per_loop_lqg) / n,
        tuple([s / slots for s in area]), tuple(per_loop_lqg),
        padding / (config.tb_capacity * blocks) if blocks else 0.0, triggered / (n * slots),
        discards, published, delivered, aoi_trace, delivery_log,
    )


def _canonical_tokens(strategy_tokens, upgrade_tis):
    labels = []
    for token in strategy_tokens:
        if not isinstance(token, str):
            raise ConfigError(f"strategy tokens must be strings, got {token!r}")
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
    if type(jobs) is not int:  # bools are ints too
        raise ConfigError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    sizes = list(n_values)
    bad = [v for v in sizes if type(v) is not int]  # bools are ints too
    if bad:
        raise ConfigError(f"loop counts must be integers, got {bad[0]!r}")
    sizes = sorted(set(sizes))
    try:
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
    carries saves about 2 + n/2 us of run()'s slot loop at n loops for
    UA and FA, 3 + n/2 us for FC and 2.9 + n/4 us for UC, which run()
    steps a block at a time from its schedule; the pass is taken once
    the savings exceed the fixed cost. Every timed cell that the rule
    sends to the pass runs faster there than in run(), at 1-40 loops and
    1-20 seeds. Re-timed against the one-pass run(), UA and FA cells
    first ran faster in the pass at 6-8 seeds of 5 loops and 3-4 of 20,
    and the rule still takes it from 9 and 4; against the block-stepped
    UC, FC cells did from 14 seeds of 5 loops and 6 of 20, where the
    rule takes the pass too. Against UC's scheduled run(), UC cells did
    from 19 seeds of 5 loops, 14 of 10, 12 of 15 and 10 of 20, where the
    rule takes it, and 7 of 40, one above the rule's 6.
    """
    first = configs[0]
    if len(configs) < 2 or first.policy != Policy.AOI_COST.name:
        return False
    n = first.n_loops
    strat = first.resolved_strategy()
    if not strat.compound:
        return len(configs) * (2 + n / 2) > LOCKSTEP_ATOMIC_US
    saved = 3 + n / 2 if strat.filtered else 2.9 + n / 4
    return len(configs) * saved > LOCKSTEP_COMPOUND_US


def run_cell(configs):
    """Results for configs that differ only by seed, in the given order.

    Enough seeds under AOI_COST (see _takes_lockstep) advance together
    in the lockstep engine, which reproduces run() bit for bit; other
    cells go through run() one config at a time.
    """
    first = configs[0]
    shared = _cell_values(first)
    for config in configs[1:]:
        if _cell_values(config) != shared:
            raise ConfigError("a sweep cell's configs may differ only by seed")
    if not _takes_lockstep(configs):
        return [run(config) for config in configs]
    strat, plants, neg_gain = _prepare(first)
    # the cell differs only by seed, so check only the later seeds
    for config in configs[1:]:
        if type(config.seed) is not int or config.seed < 0:
            config.validate()  # raises validate()'s own ConfigError
    done = run_lockstep(configs, strat, plants, neg_gain)
    return [_result(config, strat, plants, totals) for config, totals in zip(configs, done)]


def summarize(results):
    """Collapse sweep rows to per (n_loops, strategy) mean/min/max bands."""
    groups = {}  # in the order each key first appears
    for row in results:
        groups.setdefault((row.n_loops, row.strategy), []).append(row)
    out = []
    for key, rows in groups.items():
        aoi = [r.mean_aoi for r in rows]
        lqg = [r.mean_lqg for r in rows]
        # statistics.fmean's arithmetic; importing statistics loads fractions and decimal
        count = len(rows)
        out.append(
            SummaryRow(
                n_loops=key[0],
                strategy=key[1],
                aoi_mean=math.fsum(aoi) / count,
                aoi_min=min(aoi),
                aoi_max=max(aoi),
                lqg_mean=math.fsum(lqg) / count,
                lqg_min=min(lqg),
                lqg_max=max(lqg),
                padding_mean=math.fsum(r.padding_fraction for r in rows) / count,
                trigger_mean=math.fsum(r.trigger_rate for r in rows) / count,
            )
        )
    return out
