"""Shared test settings and helpers.

Property tests draw their examples from a fixed derivation of each
test's source (derandomize), so a run is reproducible, and take no
per-example deadline, as example times follow the host's speed. They
keep no example database; the one other file Hypothesis writes, a cache
of the constants in the source, goes to a temporary directory removed at
exit, so tests leave no .hypothesis/ directory behind.

scripted_uc_log, UC's delivery schedule over a scripted link, serves
the engine tests and the acceptance oracles; test modules import it
from here.
"""

import atexit
import collections
import os
import shutil
import tempfile

from hypothesis import settings

if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
    _storage = tempfile.mkdtemp(prefix="salsim-hypothesis-")
    atexit.register(shutil.rmtree, _storage, ignore_errors=True)
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _storage

settings.register_profile("salsim", derandomize=True, deadline=None, database=None)
settings.load_profile("salsim")


def scripted_uc_log(n, horizon, fragments, maxlen, erased, per_packet):
    """(slot, loop, gen) deliveries of UC over a scripted link.

    Every slot queues a packet of all n loops, the queue drops its
    oldest packet past maxlen, and an idle wire takes the oldest queued
    packet, which arrives when its first block does and, unless loss is
    per packet, every later one too.
    """
    queue = collections.deque(maxlen=maxlen)
    log = []
    left = 0
    for t in range(horizon):
        queue.append(t)
        if not left:
            gen = queue.popleft()
            left = fragments
            ok = not erased[t]
        elif erased[t] and not per_packet:
            ok = False
        left -= 1
        if not left and ok:
            log.extend((t, i, gen) for i in range(n))
    return log
