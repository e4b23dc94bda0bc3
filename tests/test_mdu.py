"""Wire-format tests for the aggregation-layer PDU codec.

Expected byte strings are written out by hand from the documented layout:
version u8 (0x01), entry count u8, then per entry id u16 / gen_time u32 /
payload length u16 (all big-endian) followed by the payload bytes, with
zero padding at the end of the buffer.
"""

import random

import pytest

from salsim.mdu import (
    CapacityError,
    MalformedPduError,
    Mdu,
    PDU_ENTRY_OVERHEAD,
    PDU_HEADER_SIZE,
    PDU_VERSION,
    SalPdu,
    VersionError,
    deserialize_pdu,
    pdu_size,
    serialize_pdu,
)


def test_version_constant():
    assert PDU_VERSION == 0x01
    assert PDU_HEADER_SIZE == 2
    assert PDU_ENTRY_OVERHEAD == 8


def test_records_compare_field_by_field_within_their_own_class():
    mdu = Mdu(1, 2, b"x")
    assert mdu == Mdu(1, 2, b"x")
    assert mdu != Mdu(1, 2, b"y")
    assert mdu != (1, 2, b"x")
    pdu = SalPdu([mdu], 3)
    assert pdu == SalPdu([Mdu(1, 2, b"x")], 3)
    assert pdu != SalPdu([Mdu(1, 3, b"x")], 3)
    assert pdu != SalPdu([mdu], 4)
    assert pdu != ([mdu], 3)
    with pytest.raises(TypeError):
        hash(mdu)
    with pytest.raises(TypeError):
        hash(pdu)


def test_empty_pdu_is_two_bytes():
    assert serialize_pdu(SalPdu([], 0)) == b"\x01\x00"


def test_empty_pdu_with_padding():
    data = serialize_pdu(SalPdu([], 48))
    assert data == b"\x01\x00" + b"\x00" * 48
    assert len(data) == 50


def test_single_entry_layout_hand_checked():
    payload = bytes(range(20))
    pdu = SalPdu([Mdu(7, 3, payload)], 0)
    expected = b"\x01\x01" + b"\x00\x07" + b"\x00\x00\x00\x03" + b"\x00\x14" + payload
    data = serialize_pdu(pdu)
    assert data == expected
    assert len(data) == 30


def test_two_entries_and_padding_size_formula():
    pdu = SalPdu([Mdu(0, 1, b"ab"), Mdu(9, 2, b"xyz")], 5)
    data = serialize_pdu(pdu)
    # 2 + (8 + 2) + (8 + 3) + 5
    assert len(data) == 28
    assert pdu_size(pdu) == 28
    assert data.endswith(b"\x00" * 5)


def test_size_matches_serialized_length_for_random_pdus():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(0, 9)
        ids = rng.sample(range(65536), n)
        entries = [
            Mdu(i, rng.randrange(0, 2**32), rng.randbytes(rng.randrange(0, 33)))
            for i in ids
        ]
        pdu = SalPdu(entries, rng.randrange(0, 40))
        assert pdu_size(pdu) == len(serialize_pdu(pdu))


def test_roundtrip_ten_thousand_random_pdus_zero_mismatches():
    rng = random.Random(20260819)
    mismatches = 0
    for _ in range(10_000):
        n = rng.randrange(0, 13)
        ids = rng.sample(range(65536), n)
        entries = [
            Mdu(i, rng.randrange(0, 2**32), rng.randbytes(rng.randrange(0, 41)))
            for i in ids
        ]
        pdu = SalPdu(entries, rng.randrange(0, 64))
        back = deserialize_pdu(serialize_pdu(pdu))
        if back != pdu:
            mismatches += 1
    assert mismatches == 0


def test_roundtrip_preserves_entry_order():
    entries = [Mdu(5, 10, b"a"), Mdu(2, 11, b"b"), Mdu(9, 9, b"c")]
    back = deserialize_pdu(serialize_pdu(SalPdu(entries, 0)))
    assert [m.id for m in back.entries] == [5, 2, 9]


def test_wrong_version_rejected():
    with pytest.raises(VersionError):
        deserialize_pdu(b"\x02\x00")


def test_truncated_buffers_rejected():
    with pytest.raises(MalformedPduError):
        deserialize_pdu(b"")
    with pytest.raises(MalformedPduError):
        deserialize_pdu(b"\x01")
    # count says one entry but the header is cut short
    with pytest.raises(MalformedPduError):
        deserialize_pdu(b"\x01\x01\x00\x07")
    # declared payload length runs past the end of the buffer
    with pytest.raises(MalformedPduError):
        deserialize_pdu(b"\x01\x01\x00\x07\x00\x00\x00\x03\x00\x14" + b"\x00" * 10)


def test_nonzero_trailing_bytes_rejected():
    good = serialize_pdu(SalPdu([Mdu(1, 2, b"ok")], 4))
    bad = good[:-1] + b"\x01"
    with pytest.raises(MalformedPduError):
        deserialize_pdu(bad)


def test_duplicate_ids_rejected_on_decode():
    raw = b"\x01\x02"
    raw += b"\x00\x07\x00\x00\x00\x01\x00\x00"
    raw += b"\x00\x07\x00\x00\x00\x02\x00\x00"
    with pytest.raises(MalformedPduError):
        deserialize_pdu(raw)


def test_more_than_255_entries_rejected_on_encode():
    entries = [Mdu(i, 0, b"") for i in range(256)]
    with pytest.raises(CapacityError):
        serialize_pdu(SalPdu(entries, 0))


def test_255_entries_allowed():
    entries = [Mdu(i, 0, b"") for i in range(255)]
    back = deserialize_pdu(serialize_pdu(SalPdu(entries, 0)))
    assert len(back.entries) == 255


def test_padding_survives_roundtrip():
    pdu = SalPdu([Mdu(4, 4, b"zz")], 17)
    assert deserialize_pdu(serialize_pdu(pdu)).padding_bytes == 17
