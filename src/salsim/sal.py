"""Semantic aggregation layer: sessions, buffering, composition, delivery.

The transmit side keeps one freshest-wins buffer per registered id plus
a bounded FIFO for opaque compound packets. Selection packs buffered
units into one transport block per slot, most urgent first, where
urgency is the staleness cost of the receiver's last acknowledged
snapshot. The receive side decomposes blocks, routes entries to
subscribers and acknowledges every entry it saw.
"""

from collections import deque
from enum import Enum
from typing import NamedTuple

from .mdu import (
    CapacityError,
    Mdu,
    PDU_ENTRY_OVERHEAD,
    PDU_HEADER_SIZE,
    SalPdu,
)
from .plant import staleness_cost


class AlreadyRegistered(Exception):
    """Raised when a label is registered twice within one session."""


class UnknownMdu(Exception):
    """Raised for ids or labels that were never registered."""


class Policy(Enum):
    AOI_COST = "AOI_COST"
    FIFO = "FIFO"
    ROUND_ROBIN = "ROUND_ROBIN"


class AckMessage(NamedTuple):
    mdu_id: int
    gen_time: int


class Buffered(NamedTuple):
    mdu_id: int
    gen_time: int
    payload: object
    payload_len: int
    admitted: bool


class SessionHandler:
    """Registers labels to dense ids and tracks subscriptions."""

    def __init__(self):
        self._ids = {}
        self._labels = []
        self._subs = []  # per id, its subscribers in subscribe order

    @property
    def n_ids(self):
        return len(self._labels)

    def register(self, label):
        if not label or len(label.encode("utf-8")) > 255:
            raise ValueError("label must encode to 1..255 bytes of UTF-8")
        if label in self._ids:
            raise AlreadyRegistered(f"label {label!r} already registered")
        mdu_id = len(self._labels)
        self._ids[label] = mdu_id
        self._labels.append(label)
        self._subs.append(())
        return mdu_id

    def subscribe(self, mdu_id, subscriber):
        self._check_id(mdu_id)
        if subscriber not in self._subs[mdu_id]:
            self._subs[mdu_id] += (subscriber,)

    def subscribers(self, mdu_id):
        self._check_id(mdu_id)
        return self._subs[mdu_id]

    def id_of(self, label):
        try:
            return self._ids[label]
        except KeyError:
            raise UnknownMdu(f"label {label!r} not registered") from None

    def label_of(self, mdu_id):
        self._check_id(mdu_id)
        return self._labels[mdu_id]

    def _check_id(self, mdu_id):
        if not 0 <= mdu_id < len(self._labels):
            raise UnknownMdu(f"id {mdu_id} not registered")


class DataHandler:
    """Transmit-side ingest, prioritization and block-filling selection.

    Atomic units land in per-id buffers where the freshest generation
    time wins (every displaced unit counts as a discard). Compound
    packets queue in arrival order in a bounded FIFO that drops its
    oldest entry on overflow. The per-id staleness estimate follows the
    acknowledged generation times: estimate(now) = now - last acked gen,
    which grows by one per slot and resets on each acknowledgement.
    """

    def __init__(
        self,
        session,
        policy=Policy.AOI_COST,
        gains=None,
        tis_enabled=False,
        compound_maxlen=8,
    ):
        n = session.n_ids
        self.session = session
        self.policy = policy
        self.tis_enabled = tis_enabled
        self._gen = [-1] * n
        self._payload = [None] * n
        self._plen = [0] * n
        self._admitted = [False] * n
        self._seq = [0] * n
        self._anchor = [-1] * n
        self._queue = deque()
        self._compound_maxlen = compound_maxlen
        self._counter = 0
        self._rr_next = 0
        self.replaced_discards = 0
        self.overflow_drops = 0
        if gains is not None:
            if len(gains) != n:
                raise ValueError("need one (a, sigma_w2) pair per registered id")
            self._a2 = [a * a for a, _ in gains]
            self._s2 = [s2 for _, s2 in gains]
            # staleness cost tables, grown on demand (plant.staleness_cost)
            self._g_tables = [[0.0] for _ in range(n)]
        elif policy is Policy.AOI_COST:
            raise ValueError("the AOI_COST policy needs one (a, sigma_w2) pair per id")

    # ---------------------------------------------------------- ingest

    def ingest(self, mdu_id, gen_time, payload, payload_len=None, admitted=True):
        if payload_len is None:
            payload_len = len(payload)
        self._counter += 1
        if self._gen[mdu_id] >= 0:
            self.replaced_discards += 1
            if gen_time < self._gen[mdu_id]:
                return
        self._gen[mdu_id] = gen_time
        self._payload[mdu_id] = payload
        self._plen[mdu_id] = payload_len
        self._admitted[mdu_id] = admitted
        self._seq[mdu_id] = self._counter

    def ingest_fresh_all(self, gen_time, values, payload_len):
        """Batch form of ingest: one admitted unit per id, shared gen_time.

        Equivalent to ingest(i, gen_time, values[i], payload_len) for
        every id in order; a single call per slot keeps wide unfiltered
        simulations off the per-call overhead.
        """
        self.ingest_flagged(gen_time, values, payload_len, range(len(values)), False)

    def ingest_flagged(self, gen_time, values, payload_len, admitted_ids, keep_suppressed):
        """Batch ingest for filtered publishers.

        The ids in admitted_ids, ascending, arrive admitted. The other
        ids arrive as suppressed hand-downs when keep_suppressed is true;
        otherwise only admitted_ids are visited. Equivalent to the per-id
        ingest calls, in id order, that a filtered publisher would make.
        """
        gen = self._gen
        payload = self._payload
        plen = self._plen
        admitted = self._admitted
        seq = self._seq
        counter = self._counter
        replaced = 0
        ids = admitted_ids
        if keep_suppressed:  # every id, the admitted ones flagged
            ids, admitted_ids = range(len(values)), frozenset(admitted_ids)
        for i in ids:
            flag = not keep_suppressed or i in admitted_ids
            counter += 1
            if gen[i] >= 0:
                replaced += 1
                if gen_time < gen[i]:
                    continue
            gen[i] = gen_time
            payload[i] = values[i]
            plen[i] = payload_len
            admitted[i] = flag
            seq[i] = counter
        self._counter = counter
        self.replaced_discards += replaced

    def ingest_compound(self, packet):
        if len(self._queue) >= self._compound_maxlen:
            self._queue.popleft()
            self.overflow_drops += 1
        self._queue.append(packet)

    def next_compound(self):
        return self._queue.popleft() if self._queue else None

    def peek_compound(self):
        """The packet next_compound would return, left in the queue."""
        return self._queue[0] if self._queue else None

    def occupant(self, mdu_id):
        if self._gen[mdu_id] < 0:
            return None
        return Buffered(
            mdu_id,
            self._gen[mdu_id],
            self._payload[mdu_id],
            self._plen[mdu_id],
            self._admitted[mdu_id],
        )

    # ------------------------------------------------------- estimates

    def estimate(self, mdu_id, now):
        return now - self._anchor[mdu_id]

    def handle_ack(self, ack):
        # estimates only move forward: a stale ack never regresses one
        if ack.gen_time > self._anchor[ack.mdu_id]:
            self._anchor[ack.mdu_id] = ack.gen_time

    def priority(self, mdu_id, now):
        if self.policy is not Policy.AOI_COST:
            raise ValueError("priority is defined for the AOI_COST policy only")
        if self._gen[mdu_id] < 0:
            return float("-inf")
        return self._staleness_cost(mdu_id, now - self._anchor[mdu_id])

    def _staleness_cost(self, mdu_id, delta):
        return staleness_cost(self._g_tables[mdu_id], self._a2[mdu_id], self._s2[mdu_id], delta)

    # ------------------------------------------------------- selection

    def _keys(self, now):
        """The policy's ranking key per id, lowest first: arrival sequence
        (FIFO), cyclic distance from the cursor (ROUND_ROBIN) or negated
        staleness cost of occupied ids (AOI_COST)."""
        gen = self._gen
        if self.policy is Policy.FIFO:
            return self._seq
        if self.policy is Policy.ROUND_ROBIN:
            start = self._rr_next
            return [(i - start) % len(gen) for i in range(len(gen))]
        return [
            -staleness_cost(table, a2, s2, now - anchor) if g >= 0 else None
            for g, anchor, table, a2, s2 in zip(gen, self._anchor, self._g_tables, self._a2, self._s2)
        ]

    def _candidates(self, now):
        """Occupied ids in selection order; the sort-based reference ranking.

        Admitted ids come first, then (with transmit-if-space) suppressed
        ones, each tier ordered by the policy's key with the lower id
        breaking ties.
        """
        gen = self._gen
        admitted = self._admitted
        keys = self._keys(now)
        return sorted(
            (i for i in range(len(gen)) if gen[i] >= 0 and (admitted[i] or self.tis_enabled)),
            key=lambda i: (not admitted[i], keys[i], i),
        )

    def _take(self, mdu_id):
        entry = Buffered(
            mdu_id,
            self._gen[mdu_id],
            self._payload[mdu_id],
            self._plen[mdu_id],
            self._admitted[mdu_id],
        )
        self._gen[mdu_id] = -1
        self._payload[mdu_id] = None
        return entry

    def select(self, capacity, now):
        """Fill one transport block, most urgent first.

        Candidates are the occupied buffers, application-admitted entries
        first, then (with transmit-if-space) suppressed ones; within a
        tier the configured policy orders by falling staleness cost,
        arrival order, or round robin, with the lower id breaking ties.
        Entries that no longer fit the remaining space are skipped.
        Selected entries leave their buffers.
        """
        size = PDU_HEADER_SIZE
        picked = []
        plen = self._plen
        for i in self._candidates(now):
            entry = PDU_ENTRY_OVERHEAD + plen[i]
            if size + entry > capacity:
                continue
            size += entry
            picked.append(self._take(i))
        if picked and self.policy is Policy.ROUND_ROBIN:
            self._rr_next = (picked[-1].mdu_id + 1) % len(self._gen)
        return picked

    def select_uniform(self, capacity, now, entry_len):
        """select() specialized to a single shared payload length.

        With equal-size entries the skip-fill scan degenerates to
        taking the top k of the ranking, and one pass over the ids finds
        them without sorting: AOI_COST and FIFO keep a running top-k
        shortlist per tier over one key per id (falling staleness cost,
        arrival order), and ROUND_ROBIN walks the ids cyclically from
        its cursor until k admitted ids are found. Returns exactly what
        select() would.
        """
        k = (capacity - PDU_HEADER_SIZE) // (PDU_ENTRY_OVERHEAD + entry_len)
        if k <= 0:
            return []
        if self.policy is Policy.ROUND_ROBIN:
            order = self._round_robin_order(k)
        else:
            order = self._top_k_order(k, now)
        if order and self.policy is Policy.ROUND_ROBIN:
            self._rr_next = (order[-1] + 1) % len(self._gen)
        return [self._take(i) for i in order]

    def _top_k_order(self, k, now):
        """Ids of the k best-ranked candidates, admitted tier first.

        A running scan with one ordered shortlist per tier over the
        policy's keys (_keys). A candidate that cannot beat the worst
        shortlisted key is rejected in one compare, and key ties keep the
        earlier (lower) id by rejecting non-strict improvements.
        """
        gen = self._gen
        admitted = self._admitted
        tis = self.tis_enabled
        keys = self._keys(now)
        adm_key = []
        adm_id = []
        sup_key = []
        sup_id = []
        adm_total = 0
        for i in range(len(gen)):
            if gen[i] < 0:
                continue
            if admitted[i]:
                adm_total += 1
                tier_key = adm_key
                tier_id = adm_id
            elif tis:
                tier_key = sup_key
                tier_id = sup_id
            else:
                continue
            key = keys[i]
            if len(tier_key) == k:
                if key >= tier_key[-1]:
                    continue
                tier_key.pop()
                tier_id.pop()
            pos = 0
            while pos < len(tier_key) and tier_key[pos] <= key:
                pos += 1
            tier_key.insert(pos, key)
            tier_id.insert(pos, i)
        if adm_total < k and sup_id:
            return adm_id + sup_id[: k - adm_total]
        return adm_id

    def _round_robin_order(self, k):
        """Ids of the first k admitted candidates from the cursor on.

        The walk wraps around the ids once; under transmit-if-space the
        first suppressed ids it met fill what is left of the block.
        """
        gen = self._gen
        admitted = self._admitted
        n = len(gen)
        start = self._rr_next
        fill = k if self.tis_enabled else 0
        adm_id = []
        sup_id = []
        for j in range(start, start + n):
            i = j - n if j >= n else j
            if gen[i] < 0:
                continue
            if admitted[i]:
                adm_id.append(i)
                if len(adm_id) == k:
                    return adm_id
            elif len(sup_id) < fill:
                sup_id.append(i)
        return adm_id + sup_id[: k - len(adm_id)]


def compose_pdu(entries, capacity):
    """Frame selected entries into a PDU padded out to the block size."""
    size = PDU_HEADER_SIZE + sum(
        PDU_ENTRY_OVERHEAD + len(m.payload) for m in entries
    )
    if size > capacity:
        raise CapacityError(f"{size} byte PDU exceeds the {capacity} byte block")
    return SalPdu(list(entries), capacity - size)


class DataReader:
    """Receive-side decomposition, routing and acknowledgement."""

    def __init__(self, session):
        self.session = session
        self.unsubscribed_drops = 0

    def process(self, pdu, now):
        """Route entries to subscribers; acknowledge every entry.

        Entries without subscribers are dropped (and counted) but still
        acknowledged, since the transmitter's staleness estimate tracks
        what crossed the link, not what anyone consumed.
        """
        deliveries = []
        acks = []
        subscribers = self.session.subscribers
        for m in pdu.entries:
            acks.append(AckMessage(m.id, m.gen_time))
            subs = subscribers(m.id)
            if subs:
                deliveries.append((m, subs))
            else:
                self.unsubscribed_drops += 1
        return deliveries, acks
