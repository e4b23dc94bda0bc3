"""Set-up probe, started in a fresh interpreter for each set-up sample.

Imports salsim from the given source directory, loads (and thereby
validates) each config file, then prints "ready". Everything up to that
line is what a user pays before the first simulated slot.

    python3 probe_setup.py SRC_DIR CONFIG [CONFIG ...]
"""

import sys

sys.path.insert(0, sys.argv[1])

import salsim  # noqa: E402

for path in sys.argv[2:]:
    salsim.load_config(path)
print("ready", flush=True)
