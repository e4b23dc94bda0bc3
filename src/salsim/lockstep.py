"""Lockstep engine: all seeds of one sweep cell in a single numpy pass.

The runs of a cell share every parameter but the seed, so their slot
loops can advance together over (runs, loops) state arrays. Each run
gives bit for bit what engine.run gives for its seed: every step is
the same elementwise IEEE double operation in the same order, and
engine.run stays the reference these arrays are tested against.

How the scalar engine's sequential parts map onto arrays:

- Random streams. A seed's stream holds all plant normals, then one
  link uniform per slot. seed_streams hands both engines a seed's
  generators: normals are drawn a block of rows at a time, and a run of
  one block draws its uniforms after them from the same generator,
  while a longer run reads them from a second generator of the same
  seed that has skipped the normals (link_stream_state, memoised, so the
  cells of one loop count share the skip).
- Staleness ranking. Cost tables g(d+1) = a^2 g(d) + sigma_w2 are
  shared by the cell and grown on demand by plant.staleness_cost, the
  scan's own recursion. The top k are taken by k rounds of argmax,
  which returns the first maximum, so the lower id wins cost ties as in
  the scan.
- Estimator replay. Rolling a delivered sample from its generation slot
  to now is the recursion xh = a xh + b u over the inputs applied in
  between. Instead of replaying at delivery, every held sample (a
  buffered atomic value, a queued or in-flight compound packet) keeps a
  shadow estimate that takes the same step each slot, so at delivery
  the shadow already holds the replayed value.
- Links. As in engine.run, a delivery hands back its sample's
  generation slot, a compound packet's fate is one flag, UA and FA+TIS
  take their blocks, padding and discards from atomic_counts, and
  engine._result derives `published` for both engines.
- Stage costs. Per-loop sums of x^2 and u^2 are folded block by block in
  numpy's pairwise summation order (PairwiseFold), so no array spans the
  horizon. Each node of numpy's tree of at most FOLD_CAP values is one
  np.sum over a contiguous last axis, which sums each row in that same
  order; engine.run folds its blocks with the same class.

Only the AOI_COST policy, without erasure scripts or traces, runs here.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import fragment_layout
from .mdu import PDU_ENTRY_OVERHEAD, PDU_HEADER_SIZE
from .plant import staleness_cost
from .publisher import VALUE_PAYLOAD_SIZE

BLOCK = 512  # slots per block of random draws and stage-cost folding, in both engines

# numpy's pairwise summation splits a run of values at a multiple of
# PAIRWISE_UNROLL; PairwiseFold sums each node of that tree of at most
# FOLD_CAP values with one np.sum
PAIRWISE_UNROLL = 8
FOLD_CAP = 1024


class RunTotals(NamedTuple):
    """What a run accumulates over its measured window (slots >= warmup),
    from which engine._result derives the rest, `published` among it."""

    area: list  # per loop: summed age, an integer
    x_sq: list  # per loop: sum of x^2
    u_sq: list  # per loop: sum of u^2
    blocks: int
    padding: int  # padding bytes over all sent blocks
    triggered: int
    delivered: int
    discards: int


# ----------------------------------------------------------- reduction


@lru_cache(maxsize=64)
def _pairwise_nodes(length):
    """numpy's pairwise-sum tree over `length` values, cut at FOLD_CAP.

    Returns (node_length, merges) pairs in order: the nodes of at most
    FOLD_CAP values that the tree's splits reach first, each with the
    count of subtree sums that complete once that node is added.
    Memoized, as every run folds its measured window.
    """
    plan = []

    def split(count):
        if count <= FOLD_CAP:
            plan.append([count, 0])
            return
        half = count // 2
        half -= half % PAIRWISE_UNROLL
        split(half)
        split(count - half)
        plan[-1][1] += 1

    split(length)
    return tuple(map(tuple, plan))


class PairwiseFold:
    """Sums a stream of equal-shape arrays elementwise, fed block by block.

    For `length` values in all, total() equals np.sum(series) bit for
    bit for every element's series. np.sum over a contiguous last axis
    sums each row in numpy's pairwise order, so each node of that tree
    of at most FOLD_CAP values is one np.sum, and node sums merge in the
    tree's order. Each block is copied, time last, into a buffer of one
    node, which is summed once it holds the whole node; only one node of
    values is held at a time.
    """

    __slots__ = ("_plan", "_node", "_merges", "_time_last", "_buf", "_fill", "_stack")

    def __init__(self, length, shape):
        self._plan = iter(_pairwise_nodes(length))
        self._node, self._merges = next(self._plan)
        self._time_last = (*range(1, len(shape) + 1), 0)
        self._buf = np.empty((*shape, min(length, FOLD_CAP)))
        self._fill = 0
        self._stack = []

    def extend(self, block):
        """Append block[0], block[1], ... (time runs along axis 0)."""
        values = block.transpose(self._time_last)
        buf = self._buf
        size = len(block)
        at = 0
        while at < size:
            node, fill = self._node, self._fill
            if not node:
                raise ValueError("the fold has received more than its length")
            take = min(node - fill, size - at)
            buf[..., fill : fill + take] = values[..., at : at + take]
            at += take
            if fill + take < node:
                self._fill = fill + take
            else:
                self._close(buf[..., :node])

    def _close(self, values):
        stack = self._stack
        stack.append(np.add.reduce(values, axis=-1))
        for _ in range(self._merges):
            right = stack.pop()
            stack[-1] = stack[-1] + right
        self._fill = 0
        self._node, self._merges = next(self._plan, (0, 0))

    def total(self):
        if self._node or len(self._stack) != 1:
            raise ValueError("the fold has not received all of its values")
        return self._stack[0]


# -------------------------------------------------------------- streams


@lru_cache(maxsize=64)
def link_stream_state(seed, n, horizon):
    """Generator state at which a seed's link uniforms begin.

    That is after its (horizon + 1) x n plant normals. The cells of a
    sweep that share a loop count share this skip.
    """
    rng = np.random.default_rng(seed)
    for lo in range(0, horizon + 1, BLOCK):
        rng.standard_normal((min(BLOCK, horizon + 1 - lo), n))
    return rng.bit_generator.state


def seed_streams(seed, n, horizon, block=BLOCK):
    """A seed's normal generator and its uniform generator.

    The caller draws each block's normals before its uniforms, `block`
    slots at a time. When the horizon fits in one block, every normal
    is drawn before the first uniform, so one generator serves both;
    otherwise the uniforms come from a second generator positioned past
    the normals by link_stream_state.
    """
    normal = np.random.default_rng(seed)
    if horizon <= block:
        return normal, normal
    uniform = np.random.Generator(np.random.PCG64())
    uniform.bit_generator.state = link_stream_state(seed, n, horizon)
    return normal, uniform


class _Streams:
    """Each seed's documented random stream, read one block at a time."""

    def __init__(self, seeds, n, horizon, loss_prob, noise_scale):
        self.n = n
        self.loss_prob = loss_prob
        self.noise_scale = noise_scale
        self.normal, self.uniform = zip(*(seed_streams(seed, n, horizon) for seed in seeds))

    def noise(self, rows):
        """The next `rows` rows of plant noise, shaped (rows, runs, n)."""
        out = np.empty((len(self.normal), rows, self.n))
        for rng, dest in zip(self.normal, out):
            rng.standard_normal(out=dest)
        out *= self.noise_scale
        return np.ascontiguousarray(out.transpose(1, 0, 2))

    def arrivals(self, rows):
        """The next `rows` link draws as (rows, runs, 1) arrival flags."""
        draws = np.stack([rng.random(rows) for rng in self.uniform], axis=1)
        return (draws >= self.loss_prob)[:, :, None]


# ---------------------------------------------------------------- links


class _Link:
    """Publish-and-transmit stage of a cell, for all runs at once.

    step() runs slot t's ingest, selection and transmission. It returns
    None when nothing arrives, else (mask, values, gens): the delivered
    (run, loop) pairs, their estimates replayed to slot t, and their
    generation slots, shaped to broadcast against the mask. replay()
    moves held samples on by one estimator step. Each subclass defines
    begin_block(), which sizes a block's per-slot records, and
    end_block(), which adds the block's measured slots to `counts`:
    blocks, padding bytes, delivered entries and discards, per run.
    """

    def __init__(self, first, runs):
        self.runs = runs
        self.n = first.n_loops
        self.capacity = first.tb_capacity
        self.entry_size = PDU_ENTRY_OVERHEAD + VALUE_PAYLOAD_SIZE
        self.run_ids = np.arange(runs)
        self.counts = np.zeros((4, runs), dtype=np.int64)

    def replay(self, a, bu):
        self.shadow *= a
        self.shadow += bu


class _Atomic(_Link):
    """UA, FA and FA+TIS: one buffer per loop, the top k by staleness cost."""

    def __init__(self, first, strat, plants, runs):
        super().__init__(first, runs)
        n = self.n
        self.k = min((self.capacity - PDU_HEADER_SIZE) // self.entry_size, n)
        self.tis = strat.tis
        self.buffered = strat.filtered and not strat.tis  # FA: may hold old samples
        self.a2 = [pl.a * pl.a for pl in plants]
        self.s2 = [pl.sigma_w2 for pl in plants]
        self.tables = [[0.0] for _ in range(n)]  # plant.staleness_cost tables
        if self.buffered:
            self.held = np.zeros((runs, n), dtype=bool)
            self.buf_gen = np.zeros((runs, n), dtype=np.int64)
            self.shadow = np.zeros((runs, n))
        else:
            self.counts[0], self.counts[1], self.counts[3] = atomic_counts(first, self.k)
            self.sel = np.empty((runs, n), dtype=bool)

    def begin_block(self, rows, age):
        n = self.n
        if self.buffered:  # FA's picks vary; UA and FA+TIS pick k in every slot
            self.sel_rec = np.empty((rows, self.runs, n), dtype=bool)
            self.replaced_rec = np.empty((rows, self.runs, n), dtype=bool)
        # the cost tables must reach every age this block can see; the
        # first block always grows them, as its ages reach at least 1
        tables = self.tables
        size = int(age.max()) + rows + 1
        if size > len(tables[0]):
            size = max(size, 2 * len(tables[0]))
            for table, a2, s2 in zip(tables, self.a2, self.s2):
                staleness_cost(table, a2, s2, size - 1)
            self.flat_table = np.array(tables).ravel()
            self.row_base = np.arange(n) * size

    def step(self, j, t, x, trig, age, ok):
        cost = self.flat_table[age + self.row_base]
        if self.buffered:
            sel = self.sel_rec[j]
            held = self.held
            np.logical_and(trig, held, out=self.replaced_rec[j])
            np.putmask(self.buf_gen, trig, t)
            np.putmask(self.shadow, trig, x)
            held |= trig
            np.putmask(cost, ~held, -np.inf)
            _take_top(cost, self.k, self.run_ids)
            np.logical_and(held, cost == -np.inf, out=sel)
            held ^= sel
            return sel & ok, self.shadow, self.buf_gen
        sel = self.sel
        if self.tis:
            # admitted loops rank before suppressed ones
            order = np.lexsort((-cost, ~trig))[:, : self.k]
            sel[:] = False
            sel[self.run_ids[:, None], order] = True
        else:
            _take_top(cost, self.k, self.run_ids)
            np.equal(cost, -np.inf, out=sel)
        return sel & ok, x, t

    def replay(self, a, bu):
        if self.buffered:
            super().replay(a, bu)

    def end_block(self, window, arrives):
        blocks, padding, delivered, discards = self.counts
        arrived = arrives[window, :, 0]
        if not self.buffered:  # atomic_counts gave the rest
            delivered += self.k * arrived.sum(axis=0)
            return
        picked = self.sel_rec[window].sum(axis=2)
        discards += self.replaced_rec[window].sum(axis=(0, 2))
        sent = picked > 0
        blocks += sent.sum(axis=0)
        padding += (sent * (self.capacity - PDU_HEADER_SIZE - picked * self.entry_size)).sum(axis=0)
        delivered += (picked * arrived).sum(axis=0)


def atomic_counts(config, k):
    """Blocks, padding bytes and discards of UA and FA+TIS in the measured slots.

    Each slot sends k entries; from slot 1 on, its ingest overwrites the
    n - k samples that the slot before left unsent."""
    slots = config.horizon - config.warmup
    pad = config.tb_capacity - PDU_HEADER_SIZE - k * (PDU_ENTRY_OVERHEAD + VALUE_PAYLOAD_SIZE)
    return slots, slots * pad, (config.n_loops - k) * (config.horizon - max(config.warmup, 1))


def _take_top(cost, k, run_ids):
    """Mark each row's k largest costs -inf, the lower id first on ties.

    Costs are never -inf, so the marked entries are the picks; argmax
    returns the first maximum, which matches the scan's tie rule.
    """
    for _ in range(k):
        cost[run_ids, cost.argmax(axis=1)] = -np.inf


class _Compound(_Link):
    """UC and FC: each run queues a packet of its admitted loops when any admits.

    Under UC every loop admits in every slot. Every run keeps its own
    queue and fragment timing. Packets are numbered per run in ingest
    order; packet c is held in ring slot c % ring, which outlasts the
    packet on the wire. `intact` is a packet's fate, as engine.run's
    `cur_ok`.
    """

    def __init__(self, first, runs):
        super().__init__(first, runs)
        n = self.n
        self.maxlen = first.compound_maxlen
        self.per_packet = first.per_packet_loss
        packed = 1 + np.arange(n + 1) * self.entry_size
        self.frag_count, self.frag_pad = fragment_layout(packed, first.tb_capacity)
        self.ring = ring = self.maxlen + int(self.frag_count[n])
        self.shadow = np.zeros((ring, runs, n))
        self.q_gen = np.zeros((ring, runs), dtype=np.int64)
        self.q_mask = np.zeros((ring, runs, n), dtype=bool)
        # packets ingested, oldest queued, on the wire; its fragments left
        self.ingested, self.head, self.cur, self.frag_left = np.zeros((4, runs), dtype=np.int64)
        self.intact = np.zeros(runs, dtype=bool)

    def begin_block(self, rows, age):
        self.sending_rec, self.finishing_rec, self.done_rec, self.over_rec = np.zeros(
            (4, rows, self.runs), dtype=bool
        )
        self.count_rec = np.empty((rows, self.runs), dtype=np.int64)

    def step(self, j, t, x, trig, age, ok):
        run_ids = self.run_ids
        ingested, head, cur, frag_left = self.ingested, self.head, self.cur, self.frag_left
        # runs without admissions fill their next free slot but do not
        # count it as queued
        pos = ingested % self.ring
        self.shadow[pos, run_ids] = x
        self.q_gen[pos, run_ids] = t
        self.q_mask[pos, run_ids] = trig
        ingested += trig.any(axis=1)
        # a full queue drops its oldest packet
        over = self.over_rec[j]
        np.greater(ingested - head, self.maxlen, out=over)
        head += over
        starting = (frag_left == 0) & (head < ingested)
        np.putmask(cur, starting, head)
        head += starting
        slot = cur % self.ring
        count = self.count_rec[j]  # the entries of the packet on the wire
        self.q_mask[slot, run_ids].sum(axis=1, out=count)
        np.putmask(frag_left, starting, self.frag_count[count])
        # a packet's first draw sets its fate and, unless loss is per
        # packet, each later one can clear it; between packets it is stale
        ok = ok[:, 0]
        np.putmask(self.intact, starting, ok)
        if not self.per_packet:
            self.intact &= ok
        sending = self.sending_rec[j]
        np.greater(frag_left, 0, out=sending)
        frag_left -= sending
        finishing = self.finishing_rec[j]
        np.logical_and(sending, frag_left == 0, out=finishing)
        done = self.done_rec[j]
        np.logical_and(finishing, self.intact, out=done)
        if not done.any():
            return None
        mask = done[:, None] & self.q_mask[slot, run_ids]
        return mask, self.shadow[slot, run_ids], self.q_gen[slot, run_ids, None]

    def end_block(self, window, arrives):
        count = self.count_rec[window]
        blocks, padding, delivered, discards = self.counts
        blocks += self.sending_rec[window].sum(axis=0)
        padding += (self.finishing_rec[window] * self.frag_pad[count]).sum(axis=0)
        delivered += (self.done_rec[window] * count).sum(axis=0)
        discards += self.over_rec[window].sum(axis=0)


# --------------------------------------------------------------- engine


def run_lockstep(configs, strat, plants, neg_gain):
    """Simulate configs that differ only by seed, given each plant's -L; one RunTotals each."""
    first = configs[0]
    runs = len(configs)
    n = first.n_loops
    horizon = first.horizon
    warmup = first.warmup
    filtering = strat.filtered
    threshold = first.deadband
    if strat.compound:
        link = _Compound(first, runs)
    else:
        link = _Atomic(first, strat, plants, runs)

    # loop parameters tiled to (runs, n): contiguous operands make the
    # per-slot arithmetic one inner loop instead of one per run
    def tiled(values):
        return np.tile(np.array(values, dtype=float), (runs, 1))

    a = tiled([pl.a for pl in plants])
    b = tiled([pl.b for pl in plants])
    neg_gain = tiled(neg_gain)
    noise_scale = np.sqrt([pl.sigma_w2 for pl in plants])
    streams = _Streams([c.seed for c in configs], n, horizon, first.loss_prob, noise_scale)

    x = streams.noise(1)[0].copy()
    x_hat = np.zeros((runs, n))
    bu = b * x_hat  # b u for the zero input before slot 0
    # age = slot minus the generation slot of the last delivery, which is
    # also the delta that indexes the staleness cost
    age = np.zeros((runs, n), dtype=np.int64)
    area = np.zeros((runs, n), dtype=np.int64)
    triggered = np.zeros(runs, dtype=np.int64)
    trig = np.ones((runs, n), dtype=bool)  # unfiltered: every loop admits
    if filtering:
        last_ref = np.full((runs, n), np.inf)  # +inf admits the first sample

    slots = horizon - warmup
    fold = PairwiseFold(slots, (runs, 2 * n))
    # unused ring and buffer slots keep taking replay steps and may run
    # off to inf; the scalar engine's Python floats overflow silently too
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, horizon, BLOCK):
            rows = min(BLOCK, horizon - start)
            noise = streams.noise(rows)
            arrives = streams.arrivals(rows)
            xu = np.empty((rows, runs, 2 * n))  # x_t, then u_t
            if filtering:
                trig_rec = np.empty((rows, runs, n), dtype=bool)
            link.begin_block(rows, age)

            for j in range(rows):
                t = start + j
                if t == warmup:
                    area[:] = 0
                xu[j, :, :n] = x
                age += 1
                if filtering:
                    trig = trig_rec[j]
                    dev = x - last_ref
                    np.abs(dev, out=dev)
                    np.greater(dev, threshold, out=trig)
                    np.putmask(last_ref, trig, x)
                got = link.step(j, t, x, trig, age, arrives[j])

                # --------- controller update for t, plant step for t+1
                x_hat *= a
                x_hat += bu
                if got is not None:
                    mask, values, gens = got
                    np.putmask(x_hat, mask, values)
                    np.copyto(age, t - gens, where=mask)
                area += age
                u = np.multiply(neg_gain, x_hat, out=xu[j, :, n:])
                bu = b * u
                x *= a
                x += bu
                x += noise[j]
                link.replay(a, bu)

            window = slice(max(warmup - start, 0), rows)
            fold.extend(np.square(xu[window]))
            if filtering:
                triggered += trig_rec[window].sum(axis=(0, 2))
            link.end_block(window, arrives)

    if not filtering:
        triggered[:] = n * slots
    blocks, padding, delivered, discards = link.counts
    squared = fold.total().tolist()
    area = area.tolist()
    columns = np.stack([blocks, padding, triggered, delivered, discards], axis=1).tolist()
    return [RunTotals(area[r], squared[r][:n], squared[r][n:], *columns[r]) for r in range(runs)]
