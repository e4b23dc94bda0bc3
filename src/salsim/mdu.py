"""Minimal data units and the aggregation-layer PDU wire codec.

Wire layout (all integers big-endian):

    byte 0      version, currently 0x01
    byte 1      entry count (at most 255 entries per PDU)
    per entry   id u16, gen_time u32, payload length u16, payload bytes
    tail        zero padding up to the transport block size

A PDU therefore occupies 2 + sum(8 + payload_len) + padding bytes. Ids
inside one PDU must be distinct; the decoder enforces this and rejects
any non-zero byte in the padding region.
"""

import struct
from dataclasses import dataclass

PDU_VERSION = 0x01
PDU_HEADER_SIZE = 2
PDU_ENTRY_OVERHEAD = 8

_ENTRY_HEADER = struct.Struct(">HIH")


class CapacityError(Exception):
    """Raised when content does not fit the frame or block it is meant for."""


class VersionError(Exception):
    """Raised when a PDU announces an unsupported version byte."""


class MalformedPduError(Exception):
    """Raised when a PDU buffer cannot be decoded."""


@dataclass(slots=True)
class Mdu:
    """One minimal data unit: id, generation slot and opaque payload."""

    id: int
    gen_time: int
    payload: bytes


@dataclass(slots=True)
class SalPdu:
    """An ordered list of MDU entries plus trailing zero padding."""

    entries: list
    padding_bytes: int = 0


def pdu_size(pdu):
    """Serialized size in bytes of `pdu`."""
    return (
        PDU_HEADER_SIZE
        + sum(PDU_ENTRY_OVERHEAD + len(m.payload) for m in pdu.entries)
        + pdu.padding_bytes
    )


def serialize_pdu(pdu):
    entries = pdu.entries
    if len(entries) > 255:
        raise CapacityError(f"{len(entries)} entries exceed the 255 entry limit")
    parts = [bytes((PDU_VERSION, len(entries)))]
    pack = _ENTRY_HEADER.pack
    for m in entries:
        parts.append(pack(m.id, m.gen_time, len(m.payload)))
        parts.append(m.payload)
    if pdu.padding_bytes:
        parts.append(b"\x00" * pdu.padding_bytes)
    return b"".join(parts)


def deserialize_pdu(data):
    if len(data) < PDU_HEADER_SIZE:
        raise MalformedPduError("buffer shorter than the PDU header")
    if data[0] != PDU_VERSION:
        raise VersionError(f"unsupported PDU version {data[0]:#04x}")
    count = data[1]
    offset = PDU_HEADER_SIZE
    end_of_data = len(data)
    entries = []
    seen = set()
    unpack_from = _ENTRY_HEADER.unpack_from
    for _ in range(count):
        if offset + PDU_ENTRY_OVERHEAD > end_of_data:
            raise MalformedPduError("truncated entry header")
        mdu_id, gen_time, payload_len = unpack_from(data, offset)
        offset += PDU_ENTRY_OVERHEAD
        end = offset + payload_len
        if end > end_of_data:
            raise MalformedPduError("payload length runs past the buffer")
        if mdu_id in seen:
            raise MalformedPduError(f"duplicate id {mdu_id} in one PDU")
        seen.add(mdu_id)
        entries.append(Mdu(mdu_id, gen_time, data[offset:end]))
        offset = end
    padding = end_of_data - offset
    if data.count(0, offset) != padding:
        raise MalformedPduError("non-zero bytes in the padding region")
    return SalPdu(entries, padding)
