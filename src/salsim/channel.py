"""Bernoulli packet-erasure link and transport-block fragmentation.

One transmit opportunity per slot. A transport block is erased with
probability loss_prob, decided by a single uniform draw; the caller owns
the random stream so that draws stay aligned across compared runs.

Packets larger than a block are split into fragments carried on
consecutive slots. Each fragment starts with a 6-byte header (packet id
u16, fragment index u8, fragment total u8, chunk length u16, big-endian).
Reassembly is all-or-nothing: one erased fragment voids the packet.
"""

import struct

FRAGMENT_HEADER_SIZE = 6

_FRAG_HEADER = struct.Struct(">HBBH")


class FragmentError(Exception):
    """Raised for unfragmentable packets or undecodable fragments."""


class ErasureChannel:
    __slots__ = ("loss_prob",)

    def __init__(self, loss_prob):
        self.loss_prob = loss_prob

    def transmit(self, draw):
        """True when the block is delivered, False when erased."""
        return draw >= self.loss_prob


def fragment_layout(packet_len, tb_capacity):
    """Fragment count of a packet and the padding of its last block.

    packet_len is a byte count or a numpy array of them, for which both
    results come back as arrays.
    """
    chunk_size = tb_capacity - FRAGMENT_HEADER_SIZE
    total = -(-packet_len // chunk_size)
    return total, total * chunk_size - packet_len


def fragment_packet(packet, tb_capacity, packet_id):
    """Split a packet into framed fragments of at most tb_capacity bytes."""
    chunk_size = tb_capacity - FRAGMENT_HEADER_SIZE
    total = max(1, fragment_layout(len(packet), tb_capacity)[0])
    if total > 255:
        raise FragmentError(f"packet needs {total} fragments, limit is 255")
    pack = _FRAG_HEADER.pack
    frags = []
    for idx in range(total):
        chunk = packet[idx * chunk_size : (idx + 1) * chunk_size]
        frags.append(pack(packet_id, idx, total, len(chunk)) + chunk)
    return frags


def parse_fragment(block):
    if len(block) < FRAGMENT_HEADER_SIZE:
        raise FragmentError("block shorter than the fragment header")
    packet_id, idx, total, length = _FRAG_HEADER.unpack_from(block)
    if len(block) < FRAGMENT_HEADER_SIZE + length:
        raise FragmentError("fragment chunk runs past the block")
    return packet_id, idx, total, block[FRAGMENT_HEADER_SIZE : FRAGMENT_HEADER_SIZE + length]


class Reassembler:
    """Receiver-side all-or-nothing packet reassembly.

    Fragments of the packet currently in flight are collected by index;
    when the final index arrives the packet is returned only if every
    fragment made it. A fragment of a new packet id flushes whatever
    partial state a lost tail left behind.
    """

    __slots__ = ("_packet_id", "_total", "_chunks", "_have")

    def __init__(self):
        self._packet_id = None
        self._total = 0
        self._chunks = []
        self._have = 0

    def receive(self, fragment):
        packet_id, idx, total, chunk = parse_fragment(fragment)
        if packet_id != self._packet_id:
            self._packet_id = packet_id
            self._total = total
            self._chunks = [None] * total
            self._have = 0
        if idx >= self._total:
            raise FragmentError("fragment index outside the announced total")
        if self._chunks[idx] is None:
            self._chunks[idx] = chunk
            self._have += 1
        if idx == self._total - 1:
            complete = self._have == self._total
            packet = b"".join(self._chunks) if complete else None
            self._packet_id = None
            self._chunks = []
            return packet
        return None
