"""Isolated microbenchmarks of public layer functions run() does not call.

run() mirrors the wire formats inline, so none of these move an
end-to-end metric today; they start to once run() goes through the
codecs. Each is timed in microseconds per call on inputs drawn from the
benchmark seed, reported as the median of REPEATS passes, and checked
against an independent result.
"""

import random
import statistics
import time

REPEATS = 5
N_LOOPS = 20
CAPACITY = 64
PAYLOAD = 20


def _median_us(passes, calls):
    return statistics.median(passes) / calls * 1e6


def pdu_roundtrip(salsim, rng):
    """mdu.serialize_pdu then deserialize_pdu of a two-entry 64-byte block."""
    mdu = salsim.mdu
    encode = salsim.publisher.encode_value
    pdus = []
    for _ in range(2000):
        ids = rng.sample(range(N_LOOPS), 2)
        entries = [mdu.Mdu(i, rng.randrange(1 << 32), encode(rng.gauss(0, 3), PAYLOAD)) for i in ids]
        pdus.append(mdu.SalPdu(entries, CAPACITY - mdu.PDU_HEADER_SIZE - 2 * (mdu.PDU_ENTRY_OVERHEAD + PAYLOAD)))
    serialize, deserialize = mdu.serialize_pdu, mdu.deserialize_pdu
    ok = all(len(serialize(p)) == CAPACITY and deserialize(serialize(p)) == p for p in pdus)
    passes = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for p in pdus:
            deserialize(serialize(p))
        passes.append(time.perf_counter() - start)
    return _median_us(passes, len(pdus)), ok


def fragment_reassemble(salsim, rng):
    """channel.fragment_packet and Reassembler.receive of a UC N=20 packet."""
    channel = salsim.channel
    encode = salsim.publisher.encode_value
    packets = []
    for t in range(200):
        entries = [(i, t, encode(rng.gauss(0, 3), PAYLOAD)) for i in range(N_LOOPS)]
        packets.append(salsim.publisher.encode_compound(entries))
    fragment, Reassembler = channel.fragment_packet, channel.Reassembler

    def deliver(pid, packet):
        receiver = Reassembler()
        out = None
        for frag in fragment(packet, CAPACITY, pid):
            out = receiver.receive(frag)
        return out

    ok = all(len(p) == 561 and deliver(pid, p) == p for pid, p in enumerate(packets))
    passes = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for pid, p in enumerate(packets):
            deliver(pid, p)
        passes.append(time.perf_counter() - start)
    return _median_us(passes, len(packets)), ok


def select_uniform(salsim, rng, policy):
    """sal.DataHandler.select_uniform at N=20, checked against select()."""
    sal = salsim.sal
    slots = 500
    values = [[rng.gauss(0, 3) for _ in range(N_LOOPS)] for _ in range(slots)]
    arrives = [rng.random() >= 0.1 for _ in range(slots)]
    gains = [(1.0 + 0.2 * i / (N_LOOPS - 1), 1.0) for i in range(N_LOOPS)]

    def handler():
        session = sal.SessionHandler()
        for i in range(N_LOOPS):
            session.subscribe(session.register(f"loop/{i}"), i)
        return sal.DataHandler(session, policy=sal.Policy[policy], gains=gains)

    def drive(select):
        h = handler()
        picks = []
        busy = 0.0
        for t in range(slots):
            h.ingest_fresh_all(t, values[t], PAYLOAD)
            start = time.perf_counter()
            picked = select(h, t)
            busy += time.perf_counter() - start
            picks.append([(e.mdu_id, e.gen_time) for e in picked])
            if arrives[t]:
                for e in picked:
                    h.handle_ack(sal.AckMessage(e.mdu_id, e.gen_time))
        return picks, busy

    uniform, _ = drive(lambda h, t: h.select_uniform(CAPACITY, t, PAYLOAD))
    general, _ = drive(lambda h, t: h.select(CAPACITY, t))
    passes = [drive(lambda h, t: h.select_uniform(CAPACITY, t, PAYLOAD))[1] for _ in range(REPEATS)]
    return _median_us(passes, slots), uniform == general


def deadband_check(salsim, rng):
    """publisher.DeadbandFilter.check over random walks of N=20 loops."""
    threshold = 0.5
    samples = []
    x = [0.0] * N_LOOPS
    for _ in range(500):
        for i in range(N_LOOPS):
            x[i] += rng.gauss(0, 0.4)
            samples.append((i, x[i]))

    def expected():
        last = {}
        out = []
        for i, v in samples:
            hit = i not in last or abs(v - last[i]) > threshold
            if hit:
                last[i] = v
            out.append(hit)
        return out

    make = salsim.publisher.DeadbandFilter
    check = make(threshold).check
    ok = [check(i, v) for i, v in samples] == expected()
    passes = []
    for _ in range(REPEATS):
        check = make(threshold).check
        start = time.perf_counter()
        for i, v in samples:
            check(i, v)
        passes.append(time.perf_counter() - start)
    return _median_us(passes, len(samples)), ok


def run_all(salsim, seed):
    """Metric name -> (microseconds per call, output checked correct)."""
    rng = random.Random(seed)
    return {
        "mdu.pdu_roundtrip_us": pdu_roundtrip(salsim, rng),
        "channel.fragment_reassemble_us": fragment_reassemble(salsim, rng),
        "sal.select_uniform_aoi_cost_us": select_uniform(salsim, rng, "AOI_COST"),
        "sal.select_uniform_fifo_us": select_uniform(salsim, rng, "FIFO"),
        "publisher.deadband_check_us": deadband_check(salsim, rng),
    }
