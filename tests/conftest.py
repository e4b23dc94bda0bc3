"""Shared test settings.

Property tests draw their examples from a fixed derivation of each
test's source (derandomize), so a run is reproducible, and take no
per-example deadline, as example times follow the host's speed. They
keep no example database; the one other file Hypothesis writes, a cache
of the constants in the source, goes to a temporary directory removed at
exit, so tests leave no .hypothesis/ directory behind.
"""

import atexit
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
