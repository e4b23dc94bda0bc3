"""Aggregation-layer tests: registration, buffering, selection, delivery.

The transmit side keeps one freshest-wins buffer per id plus a FIFO for
opaque compound packets; the receive side decomposes PDUs, routes entries
to subscribers and acknowledges every entry.
"""

import random

import pytest

from salsim.mdu import CapacityError, Mdu, SalPdu, deserialize_pdu, serialize_pdu
from salsim.sal import (
    AckMessage,
    AlreadyRegistered,
    DataHandler,
    DataReader,
    Policy,
    SessionHandler,
    UnknownMdu,
    compose_pdu,
)


def make_session(n, subscribe=True):
    sh = SessionHandler()
    for i in range(n):
        sh.register(f"loop/{i}")
    if subscribe:
        for i in range(n):
            sh.subscribe(i, f"ctrl{i}")
    return sh


def unit_gains(n):
    return [(1.0, 1.0)] * n


# ---------------------------------------------------------------- session


def test_registration_assigns_sequential_ids():
    sh = SessionHandler()
    assert sh.register("cam/left") == 0
    assert sh.register("cam/right") == 1
    assert sh.register("lidar") == 2
    assert sh.n_ids == 3
    assert sh.id_of("cam/right") == 1
    assert sh.label_of(2) == "lidar"


def test_duplicate_label_rejected():
    sh = SessionHandler()
    sh.register("cam")
    with pytest.raises(AlreadyRegistered):
        sh.register("cam")


def test_label_validation():
    sh = SessionHandler()
    with pytest.raises(ValueError):
        sh.register("")
    with pytest.raises(ValueError):
        sh.register("x" * 256)
    # 255 bytes of UTF-8 is the limit, multibyte characters count per byte
    sh.register("x" * 255)
    with pytest.raises(ValueError):
        sh.register("é" * 128)  # 256 encoded bytes


def test_subscribe_is_idempotent():
    sh = make_session(1, subscribe=False)
    sh.subscribe(0, "ctrl")
    sh.subscribe(0, "ctrl")
    assert sh.subscribers(0) == ("ctrl",)
    # distinct subscribers are kept in the order they first subscribed
    sh.subscribe(0, "log")
    sh.subscribe(0, "ctrl")
    assert sh.subscribers(0) == ("ctrl", "log")


def test_subscribe_unknown_id_rejected():
    sh = make_session(1, subscribe=False)
    with pytest.raises(UnknownMdu):
        sh.subscribe(5, "ctrl")


# ----------------------------------------------------------- data handler


def test_ingest_keeps_freshest_newer_replaces_older():
    dh = DataHandler(make_session(1), gains=unit_gains(1))
    dh.ingest(0, 5, b"old", admitted=True)
    dh.ingest(0, 7, b"new", admitted=True)
    occ = dh.occupant(0)
    assert occ.gen_time == 7
    assert occ.payload == b"new"
    assert dh.replaced_discards == 1


def test_ingest_keeps_freshest_older_arrival_discarded():
    dh = DataHandler(make_session(1), gains=unit_gains(1))
    dh.ingest(0, 7, b"new")
    dh.ingest(0, 5, b"old")
    occ = dh.occupant(0)
    assert occ.gen_time == 7
    assert occ.payload == b"new"
    assert dh.replaced_discards == 1


def test_ingest_equal_gen_time_newcomer_wins():
    dh = DataHandler(make_session(1), gains=unit_gains(1))
    dh.ingest(0, 5, b"first")
    dh.ingest(0, 5, b"second")
    assert dh.occupant(0).payload == b"second"
    assert dh.replaced_discards == 1


def test_staleness_estimate_sawtooth():
    dh = DataHandler(make_session(1), gains=unit_gains(1))
    # nothing acknowledged yet: the estimate grows one per slot from 1
    assert dh.estimate(0, 0) == 1
    assert dh.estimate(0, 3) == 4
    dh.handle_ack(AckMessage(0, 8))
    assert dh.estimate(0, 10) == 2
    assert dh.estimate(0, 11) == 3
    dh.handle_ack(AckMessage(0, 10))
    assert dh.estimate(0, 11) == 1


def test_stale_ack_is_ignored():
    dh = DataHandler(make_session(1), gains=unit_gains(1))
    dh.handle_ack(AckMessage(0, 10))
    dh.handle_ack(AckMessage(0, 8))
    assert dh.estimate(0, 11) == 1


def test_priority_is_staleness_cost():
    dh = DataHandler(make_session(2), gains=[(1.0, 1.0), (1.1, 1.0)])
    dh.ingest(0, 0, bytes(20))
    dh.ingest(1, 0, bytes(20))
    dh.handle_ack(AckMessage(0, 0))
    dh.handle_ack(AckMessage(1, 0))
    assert dh.priority(0, 3) == pytest.approx(3.0)
    assert dh.priority(1, 3) == pytest.approx(3.6741, rel=1e-9)


def test_priority_of_empty_buffer_is_minus_infinity():
    dh = DataHandler(make_session(1), gains=unit_gains(1))
    assert dh.priority(0, 4) == float("-inf")


def test_staleness_policy_requires_gains():
    with pytest.raises(ValueError, match="AOI_COST"):
        DataHandler(make_session(2))
    with pytest.raises(ValueError, match="one .* pair per registered id"):
        DataHandler(make_session(2), gains=unit_gains(1))


def test_priority_requires_staleness_policy():
    dh = DataHandler(make_session(1), policy=Policy.FIFO)
    dh.ingest(0, 0, bytes(20))
    with pytest.raises(ValueError):
        dh.priority(0, 1)


def test_select_orders_by_priority_then_id():
    dh = DataHandler(make_session(2), gains=unit_gains(2))
    dh.ingest(0, 0, bytes(20))
    dh.ingest(1, 0, bytes(20))
    # equal priorities: the lower id goes first
    sel = dh.select(64, now=0)
    assert [b.mdu_id for b in sel] == [0, 1]

    dh.ingest(0, 1, bytes(20))
    dh.ingest(1, 1, bytes(20))
    dh.handle_ack(AckMessage(0, 1))  # id 0 is fresh at the receiver now
    sel = dh.select(64, now=1)
    assert [b.mdu_id for b in sel] == [1, 0]


def test_select_respects_capacity():
    dh = DataHandler(make_session(3), gains=unit_gains(3))
    for i in range(3):
        dh.ingest(i, 0, bytes(20))
    # header 2 plus 28 per entry: two entries need 58 bytes
    assert len(dh.select(64, now=0)) == 2
    dh2 = DataHandler(make_session(3), gains=unit_gains(3))
    for i in range(3):
        dh2.ingest(i, 0, bytes(20))
    assert len(dh2.select(58, now=0)) == 2
    dh3 = DataHandler(make_session(3), gains=unit_gains(3))
    for i in range(3):
        dh3.ingest(i, 0, bytes(20))
    assert len(dh3.select(57, now=0)) == 1
    assert len(dh3.select(29, now=0)) == 0
    assert dh3.select(0, now=0) == []


def test_select_removes_selected_entries():
    dh = DataHandler(make_session(2), gains=unit_gains(2))
    dh.ingest(0, 0, bytes(20))
    dh.ingest(1, 0, bytes(20))
    dh.select(64, now=0)
    assert dh.occupant(0) is None
    assert dh.occupant(1) is None
    assert dh.select(64, now=1) == []


def test_select_skips_entries_that_do_not_fit():
    dh = DataHandler(make_session(2), gains=unit_gains(2))
    dh.ingest(0, 0, bytes(60))  # 2 + 68 bytes on the wire, never fits 30
    dh.ingest(1, 0, bytes(10))  # 2 + 18 bytes
    sel = dh.select(30, now=0)
    assert [b.mdu_id for b in sel] == [1]
    assert dh.occupant(0) is not None


def test_suppressed_entries_only_fill_when_tis_enabled():
    dh = DataHandler(make_session(1), gains=unit_gains(1), tis_enabled=False)
    dh.ingest(0, 0, bytes(20), admitted=False)
    assert dh.select(64, now=0) == []

    dh = DataHandler(make_session(1), gains=unit_gains(1), tis_enabled=True)
    dh.ingest(0, 0, bytes(20), admitted=False)
    sel = dh.select(64, now=0)
    assert [b.mdu_id for b in sel] == [0]
    assert sel[0].admitted is False


def test_admitted_tier_outranks_suppressed_filler():
    dh = DataHandler(make_session(2), gains=unit_gains(2), tis_enabled=True)
    dh.ingest(0, 5, bytes(20), admitted=True)
    dh.ingest(1, 5, bytes(20), admitted=False)
    # make the suppressed entry the higher staleness-cost candidate
    dh.handle_ack(AckMessage(0, 4))
    sel = dh.select(30, now=5)
    assert [b.mdu_id for b in sel] == [0]


def test_freshest_wins_across_admitted_and_suppressed():
    dh = DataHandler(make_session(1), gains=unit_gains(1), tis_enabled=True)
    dh.ingest(0, 5, b"triggered", admitted=True)
    dh.ingest(0, 6, b"quiet", admitted=False)
    occ = dh.occupant(0)
    assert occ.gen_time == 6
    assert occ.admitted is False
    assert dh.replaced_discards == 1
    dh.ingest(0, 7, b"triggered2", admitted=True)
    occ = dh.occupant(0)
    assert occ.admitted is True
    assert occ.gen_time == 7


def test_freshest_occupancy_fuzz():
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randrange(1, 4)
        dh = DataHandler(make_session(n), gains=unit_gains(n), tis_enabled=True)
        newest = {}
        ingests = 0
        for _ in range(rng.randrange(1, 60)):
            i = rng.randrange(n)
            gen = rng.randrange(0, 50)
            dh.ingest(i, gen, bytes(4), admitted=rng.random() < 0.5)
            newest[i] = max(newest.get(i, -1), gen)
            ingests += 1
        for i, gen in newest.items():
            assert dh.occupant(i).gen_time == gen
        assert dh.replaced_discards == ingests - len(newest)


def _handler_pair(n, policy=Policy.AOI_COST, tis=False):
    gains = [(1.0 + 0.02 * i, 1.0) for i in range(n)]
    return (
        DataHandler(make_session(n), policy=policy, gains=gains, tis_enabled=tis),
        DataHandler(make_session(n), policy=policy, gains=gains, tis_enabled=tis),
    )


def test_batch_ingest_matches_per_id_calls():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randrange(1, 6)
        one, two = _handler_pair(n)
        for slot in range(rng.randrange(1, 12)):
            values = [rng.random() for _ in range(n)]
            for i, v in enumerate(values):
                one.ingest(i, slot, v, 20)
            two.ingest_fresh_all(slot, values, 20)
            if rng.random() < 0.4:
                assert one.select(64, slot) == two.select(64, slot)
        occupants = [(one.occupant(i), two.occupant(i)) for i in range(n)]
        assert all(a == b for a, b in occupants)
        assert one.replaced_discards == two.replaced_discards


def test_flagged_ingest_matches_filtered_calls():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randrange(1, 6)
        keep = rng.random() < 0.5
        one, two = _handler_pair(n, tis=keep)
        for slot in range(rng.randrange(1, 12)):
            values = [rng.random() for _ in range(n)]
            flags = [rng.random() < 0.6 for _ in range(n)]
            for i, v in enumerate(values):
                if flags[i]:
                    one.ingest(i, slot, v, 20)
                elif keep:
                    one.ingest(i, slot, v, 20, admitted=False)
            admitted = [i for i in range(n) if flags[i]]
            two.ingest_flagged(slot, values, 20, admitted, keep)
            if rng.random() < 0.4:
                assert one.select(64, slot) == two.select(64, slot)
        assert all(one.occupant(i) == two.occupant(i) for i in range(n))
        assert one.replaced_discards == two.replaced_discards


def test_select_uniform_matches_select():
    # up to 24 ids and 6 entries per block; stale-generation ingests and
    # lost acks; enough slots for the round-robin cursor to wrap
    rng = random.Random(2026)
    policies = [Policy.AOI_COST, Policy.FIFO, Policy.ROUND_ROBIN]
    wraps = stale = 0
    for trial in range(600):
        n = rng.randrange(1, 25)
        policy = policies[trial % 3]
        tis = rng.random() < 0.5
        one, two = _handler_pair(n, policy=policy, tis=tis)
        for slot in range(rng.randrange(2, 25)):
            for i in range(n):
                if rng.random() < 0.7:
                    gen = slot
                    if slot and rng.random() < 0.2:
                        gen = rng.randrange(max(0, slot - 3), slot)
                        stale += policy is Policy.FIFO
                    admitted = rng.random() < 0.7
                    for dh in (one, two):
                        dh.ingest(i, gen, bytes(20), admitted=admitted)
            k = rng.randrange(0, 7)
            capacity = rng.choice([8, 29, 2 + 28 * k, 2 + 28 * k + rng.randrange(1, 28)])
            cursor = two._rr_next
            picked_one = one.select(capacity, slot)
            picked_two = two.select_uniform(capacity, slot, 20)
            assert picked_one == picked_two, (trial, slot, policy, tis, capacity)
            wraps += two._rr_next < cursor
            if rng.random() < 0.8:
                for entry in picked_one:
                    ack = AckMessage(entry.mdu_id, entry.gen_time)
                    one.handle_ack(ack)
                    two.handle_ack(ack)
    assert wraps > 50 and stale > 500


def test_round_robin_selection_wraps_past_the_last_id():
    for select in (DataHandler.select, lambda dh, cap, now: dh.select_uniform(cap, now, 20)):
        dh = DataHandler(make_session(5), policy=Policy.ROUND_ROBIN)
        rounds = []
        for slot in range(3):
            for i in range(5):
                dh.ingest(i, slot, bytes(20))
            rounds.append([e.mdu_id for e in select(dh, 64, slot)])
        assert rounds == [[0, 1], [2, 3], [4, 0]]


@pytest.mark.parametrize("tis", [False, True])
@pytest.mark.parametrize("policy", list(Policy))
def test_select_uniform_ranks_without_candidate_tuples(monkeypatch, policy, tis):
    def refuse(self, now):
        raise AssertionError("ranked candidate tuples")

    monkeypatch.setattr(DataHandler, "_candidates", refuse)
    dh = DataHandler(make_session(9), policy=policy, gains=unit_gains(9), tis_enabled=tis)
    rng = random.Random(5)
    picked = 0
    for slot in range(40):
        for i in range(9):
            if rng.random() < 0.6:
                dh.ingest(i, slot, bytes(20), admitted=rng.random() < 0.6)
        picked += len(dh.select_uniform(92, slot, 20))
    assert picked > 40


def test_select_uniform_zero_fit_leaves_state_alone():
    dh = DataHandler(make_session(2), gains=unit_gains(2))
    dh.ingest(0, 5, bytes(20))
    assert dh.select_uniform(29, 5, 20) == []
    assert dh.occupant(0).gen_time == 5


def test_compound_fifo_order_and_overflow():
    dh = DataHandler(make_session(1), gains=unit_gains(1), compound_maxlen=2)
    dh.ingest_compound("p1")
    dh.ingest_compound("p2")
    assert dh.next_compound() == "p1"
    dh.ingest_compound("p3")
    dh.ingest_compound("p4")  # overflows, drops the oldest queued packet
    assert dh.overflow_drops == 1
    assert dh.next_compound() == "p3"
    assert dh.next_compound() == "p4"
    assert dh.next_compound() is None


# ------------------------------------------------------------ data writer


def test_compose_empty_selection_pads_to_capacity():
    pdu = compose_pdu([], 50)
    assert pdu.padding_bytes == 48
    assert len(serialize_pdu(pdu)) == 50


def test_compose_padding_fills_to_capacity():
    entries = [Mdu(0, 1, bytes(20)), Mdu(1, 1, bytes(20))]
    pdu = compose_pdu(entries, 64)
    assert pdu.padding_bytes == 6
    assert len(serialize_pdu(pdu)) == 64
    assert [m.id for m in pdu.entries] == [0, 1]


def test_compose_overflow_rejected():
    entries = [Mdu(0, 1, bytes(20)), Mdu(1, 1, bytes(20))]
    with pytest.raises(CapacityError):
        compose_pdu(entries, 57)


# ------------------------------------------------------------ data reader


def test_process_routes_to_subscribers_and_acks_everything():
    sh = SessionHandler()
    sh.register("a")
    sh.register("b")
    sh.subscribe(0, "ctrl0")
    sh.subscribe(1, "ctrl1")
    sh.subscribe(1, "logger")
    reader = DataReader(sh)
    pdu = SalPdu([Mdu(0, 3, b"xx"), Mdu(1, 4, b"yy")], 0)
    deliveries, acks = reader.process(pdu, now=5)
    assert [(m.id, subs) for m, subs in deliveries] == [
        (0, ("ctrl0",)),
        (1, ("ctrl1", "logger")),
    ]
    assert acks == [AckMessage(0, 3), AckMessage(1, 4)]


def test_unsubscribed_entries_dropped_but_acked():
    sh = SessionHandler()
    sh.register("a")
    sh.register("b")
    sh.subscribe(0, "ctrl0")
    reader = DataReader(sh)
    deliveries, acks = reader.process(SalPdu([Mdu(1, 2, b"z")], 0), now=2)
    assert deliveries == []
    assert acks == [AckMessage(1, 2)]
    assert reader.unsubscribed_drops == 1


def test_process_rejects_unregistered_id():
    sh = SessionHandler()
    sh.register("a")
    reader = DataReader(sh)
    with pytest.raises(UnknownMdu):
        reader.process(SalPdu([Mdu(9, 0, b"")], 0), now=0)


# ------------------------------------------------------------ integration


def test_transmit_receive_ack_loop():
    sh = make_session(1)
    dh = DataHandler(sh, gains=unit_gains(1))
    reader = DataReader(sh)
    dh.ingest(0, 0, bytes(20))
    sel = dh.select(64, now=0)
    pdu = compose_pdu([Mdu(b.mdu_id, b.gen_time, b.payload) for b in sel], 64)
    wire = serialize_pdu(pdu)
    assert len(wire) == 64
    deliveries, acks = reader.process(deserialize_pdu(wire), now=0)
    assert len(deliveries) == 1
    for ack in acks:
        dh.handle_ack(ack)
    assert dh.estimate(0, 1) == 1
