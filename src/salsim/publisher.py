"""Publishing strategies, the deadband filter and the value codec.

Four ways to hand sensor samples to the aggregation layer each slot:

    UC  one compound packet with every loop's value, opaque downstream
    FC  one compound packet with the deadband-admitted values only
    UA  one atomic data unit per loop
    FA  one atomic data unit per admitted loop

FA may additionally surrender the suppressed samples to the layer below
(transmit-if-space), which can use them as filler instead of padding.

The deadband filter compares each sample against the last *admitted*
value. It never learns whether that value was actually delivered, so an
erased transmission silences a loop until the state drifts out of the
band again. That blindness is deliberate and pinned by regression tests.
"""

import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

_VALUE = struct.Struct(">d")
_COMPOUND_ENTRY = struct.Struct(">HIH")

VALUE_PAYLOAD_SIZE = 20


class MalformedPayload(Exception):
    """Raised when a value or compound payload has the wrong shape."""


def encode_value(x, size=VALUE_PAYLOAD_SIZE):
    """IEEE-754 double, big-endian, zero-padded to the payload size."""
    if size < 8:
        raise ValueError("payload size must fit an 8 byte double")
    return _VALUE.pack(x) + b"\x00" * (size - 8)


def decode_value(payload, size=VALUE_PAYLOAD_SIZE):
    if len(payload) != size:
        raise MalformedPayload(f"expected {size} payload bytes, got {len(payload)}")
    return _VALUE.unpack_from(payload)[0]


class Strategy(Enum):
    UC = "UC"
    FC = "FC"
    UA = "UA"
    FA = "FA"


_COMPOUND = (Strategy.UC, Strategy.FC)
_FILTERED = (Strategy.FC, Strategy.FA)


@dataclass(frozen=True)
class StrategyConfig:
    kind: Strategy
    tis: bool = False

    def validate(self):
        if self.tis and self.kind is not Strategy.FA:
            raise ValueError("transmit-if-space only applies to FA")
        return self

    @property
    def compound(self):
        return self.kind in _COMPOUND

    @property
    def filtered(self):
        return self.kind in _FILTERED


STRATEGY_ORDER = ("UC", "FC", "UA", "FA", "FA+TIS")


@lru_cache(maxsize=64)
def parse_strategy(token):
    """StrategyConfig for a token such as "fa_tis"; memoized, as every run
    parses its config's token. The result is frozen, and an unknown token
    raises afresh on every call."""
    name = token.strip().upper().replace("_", "+")
    tis = False
    if name.endswith("+TIS"):
        tis = True
        name = name[: -len("+TIS")]
    try:
        kind = Strategy(name)
    except ValueError:
        raise ValueError(f"unknown strategy token {token!r}") from None
    return StrategyConfig(kind, tis).validate()


def strategy_label(cfg):
    return cfg.kind.value + ("+TIS" if cfg.tis else "")


class DeadbandFilter:
    """Per-loop deadband admission against the last admitted value.

    A sample is admitted when no value was admitted before or when it
    differs from the last admitted one by strictly more than the
    threshold; admission moves the reference. With threshold zero the
    filter degenerates to admit-on-any-change.
    """

    __slots__ = ("threshold", "last_admitted")

    def __init__(self, threshold):
        if threshold < 0.0:
            raise ValueError("deadband threshold must be non-negative")
        self.threshold = threshold
        self.last_admitted = {}

    def check(self, loop_id, value):
        last = self.last_admitted.get(loop_id)
        if last is None or abs(value - last) > self.threshold:
            self.last_admitted[loop_id] = value
            return True
        return False


@dataclass
class PublishResult:
    triggered: list
    atomic: list
    tis: list
    compound: object  # list of (id, gen_time, value) or None


class Publisher:
    """Applies one strategy to the vector of samples taken each slot."""

    def __init__(self, strategy, n_loops, deadband, payload_size=VALUE_PAYLOAD_SIZE):
        strategy.validate()
        self.strategy = strategy
        self.n_loops = n_loops
        self.payload_size = payload_size
        self.filter = DeadbandFilter(deadband) if strategy.filtered else None

    def publish(self, now, values):
        if len(values) != self.n_loops:
            raise ValueError(f"expected {self.n_loops} samples, got {len(values)}")
        kind = self.strategy.kind
        if kind is Strategy.UA:
            atomic = [(i, now, v) for i, v in enumerate(values)]
            return PublishResult([True] * self.n_loops, atomic, [], None)
        if kind is Strategy.UC:
            compound = [(i, now, v) for i, v in enumerate(values)]
            return PublishResult([True] * self.n_loops, [], [], compound)
        check = self.filter.check
        triggered = [check(i, v) for i, v in enumerate(values)]
        if kind is Strategy.FC:
            entries = [(i, now, values[i]) for i in range(self.n_loops) if triggered[i]]
            return PublishResult(triggered, [], [], entries or None)
        atomic = [(i, now, values[i]) for i in range(self.n_loops) if triggered[i]]
        handed = []
        if self.strategy.tis:
            handed = [(i, now, values[i]) for i in range(self.n_loops) if not triggered[i]]
        return PublishResult(triggered, atomic, handed, None)


def encode_compound(entries):
    """Application codec for compound packets.

    Count byte, then per entry id u16, gen_time u32, payload length u16
    and the payload itself (big-endian throughout). Opaque to the
    aggregation layer; only the publishing and receiving applications
    interpret it.
    """
    if len(entries) > 255:
        raise ValueError(f"{len(entries)} entries exceed the 255 entry limit")
    parts = [bytes((len(entries),))]
    pack = _COMPOUND_ENTRY.pack
    for mdu_id, gen_time, payload in entries:
        parts.append(pack(mdu_id, gen_time, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_compound(data):
    if not data:
        raise MalformedPayload("empty compound packet")
    count = data[0]
    offset = 1
    end_of_data = len(data)
    unpack_from = _COMPOUND_ENTRY.unpack_from
    entries = []
    for _ in range(count):
        if offset + 8 > end_of_data:
            raise MalformedPayload("truncated compound entry header")
        mdu_id, gen_time, length = unpack_from(data, offset)
        offset += 8
        if offset + length > end_of_data:
            raise MalformedPayload("compound payload runs past the packet")
        entries.append((mdu_id, gen_time, data[offset : offset + length]))
        offset += length
    if offset != end_of_data:
        raise MalformedPayload("trailing bytes after the last compound entry")
    return entries
