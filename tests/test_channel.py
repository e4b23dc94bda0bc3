"""Erasure channel and fragmentation tests.

The loss process is a per-transport-block Bernoulli erasure. Fragmented
packets are all-or-nothing: one erased fragment voids the whole packet.
"""

import math

import numpy as np
import pytest

from salsim.channel import (
    FRAGMENT_HEADER_SIZE,
    ErasureChannel,
    FragmentError,
    Reassembler,
    fragment_layout,
    fragment_packet,
    parse_fragment,
)
from salsim.engine import ConfigError, SimConfig


def test_link_config_defaults():
    cfg = SimConfig()
    assert cfg.tb_capacity == 64
    assert cfg.loss_prob == 0.10
    assert cfg.per_packet_loss is False
    cfg.validate()


def test_link_config_validation():
    with pytest.raises(ConfigError, match=r"loss_prob must lie in \[0, 1\], got -0.1"):
        SimConfig(loss_prob=-0.1).validate()
    with pytest.raises(ConfigError, match=r"loss_prob must lie in \[0, 1\], got 1.5"):
        SimConfig(loss_prob=1.5).validate()
    # compound packets fragment, so only the fragment header bounds the block
    with pytest.raises(ConfigError, match="must exceed the 6 byte fragment header, got 6"):
        SimConfig(strategy="UC", tb_capacity=FRAGMENT_HEADER_SIZE).validate()
    SimConfig(strategy="UC", tb_capacity=FRAGMENT_HEADER_SIZE + 1, n_loops=1).validate()


def test_degenerate_loss_probabilities():
    never = ErasureChannel(0.0)
    always = ErasureChannel(1.0)
    for draw in [0.0, 0.3, 0.999]:
        assert never.transmit(draw) is True
        assert always.transmit(draw) is False


def test_transmit_threshold():
    ch = ErasureChannel(0.25)
    assert ch.transmit(0.1) is False  # draw below loss_prob means erased
    assert ch.transmit(0.25) is True
    assert ch.transmit(0.9) is True


def test_empirical_loss_rate_matches_probability():
    rng = np.random.default_rng(42)
    ch = ErasureChannel(0.10)
    n = 100_000
    delivered = sum(ch.transmit(u) for u in rng.random(n))
    rate = 1.0 - delivered / n
    # three-sigma band of the binomial estimate
    assert abs(rate - 0.10) <= 3.0 * math.sqrt(0.1 * 0.9 / n)


def test_fragment_header_size():
    assert FRAGMENT_HEADER_SIZE == 6


def test_fragment_count_hand_checked():
    assert len(fragment_packet(bytes(100), 64, 0)) == 2
    assert len(fragment_packet(bytes(58), 64, 0)) == 1
    assert len(fragment_packet(bytes(59), 64, 0)) == 2
    assert len(fragment_packet(bytes(1), 64, 0)) == 1
    assert len(fragment_packet(bytes(58 * 3 + 1), 64, 0)) == 4


def test_fragment_layout_and_parse_roundtrip():
    packet = bytes(range(100))
    frags = fragment_packet(packet, 64, packet_id=513)
    assert len(frags) == 2
    assert len(frags[0]) == 64
    assert len(frags[1]) == 6 + 42
    pid, idx, total, chunk = parse_fragment(frags[0])
    assert (pid, idx, total) == (513, 0, 2)
    assert chunk == packet[:58]
    pid, idx, total, chunk = parse_fragment(frags[1])
    assert (pid, idx, total) == (513, 1, 2)
    assert chunk == packet[58:]


def test_fragment_sizes_match_the_framed_fragments():
    # scalar and array forms agree with what fragment_packet emits
    lengths = np.arange(1, 256)
    for capacity in (7, 30, 64):
        counts, pads = fragment_layout(lengths, capacity)
        for length, count, pad in zip(lengths.tolist(), counts.tolist(), pads.tolist()):
            frags = fragment_packet(bytes(length), capacity, 0)
            assert fragment_layout(length, capacity) == (count, pad)
            assert len(frags) == count
            assert capacity - len(frags[-1]) == pad


def test_fragment_rejects_oversized_packets():
    # more than 255 fragments cannot be indexed by the u8 counter
    with pytest.raises(FragmentError):
        fragment_packet(bytes(58 * 256 + 1), 64, 0)


def test_parse_fragment_rejects_garbage():
    with pytest.raises(FragmentError):
        parse_fragment(b"\x00\x01")
    frags = fragment_packet(bytes(10), 64, 0)
    with pytest.raises(FragmentError):
        parse_fragment(frags[0][:-1])


def test_reassembly_completes_in_order():
    packet = bytes(range(150))
    frags = fragment_packet(packet, 64, 7)
    r = Reassembler()
    assert r.receive(frags[0]) is None
    assert r.receive(frags[1]) is None
    assert r.receive(frags[2]) == packet


def test_single_fragment_packet_completes_immediately():
    packet = b"hello"
    frag, = fragment_packet(packet, 64, 3)
    assert Reassembler().receive(frag) == packet


def test_missing_fragment_voids_packet():
    packet = bytes(range(150))
    frags = fragment_packet(packet, 64, 7)
    r = Reassembler()
    r.receive(frags[0])
    # fragment 1 was erased; the sequence completes broken and is discarded
    assert r.receive(frags[2]) is None
    # the next packet is unaffected
    nxt = fragment_packet(b"fresh", 64, 8)
    assert r.receive(nxt[0]) == b"fresh"


def test_lost_tail_discarded_when_next_packet_starts():
    first = fragment_packet(bytes(100), 64, 1)
    second = fragment_packet(b"ok", 64, 2)
    r = Reassembler()
    r.receive(first[0])
    # first[1] never arrives; a new packet id flushes the stale partial state
    assert r.receive(second[0]) == b"ok"


def test_all_or_nothing_delivery_probability():
    # a three-fragment packet survives a 10% per-block erasure channel
    # with probability 0.9^3 = 0.729
    rng = np.random.default_rng(777)
    ch = ErasureChannel(0.10)
    packet = bytes(120)  # 3 fragments at capacity 64  (58 + 58 + 4)
    assert len(fragment_packet(packet, 64, 0)) == 3
    n = 100_000
    draws = rng.random((n, 3))
    delivered = 0
    for k in range(n):
        frags = fragment_packet(packet, 64, k % 65536)
        r = Reassembler()
        got = None
        for i, f in enumerate(frags):
            if ch.transmit(draws[k][i]):
                got = r.receive(f)
        if got == packet:
            delivered += 1
    assert abs(delivered / n - 0.729) <= 0.005
