"""Record reference.json from the program as it stands.

    python3 benchmarks/record_reference.py [FIRST_SEED LAST_SEED]

For every workload and each benchmark seed in the range (default 0 to
10), runs one untraced pass and stores the digest of every run result
and artifact. The benchmark holds the first pass of a run with such a
seed to these digests. Re-record only in a change that is meant to
alter simulation results or artifact bytes, and say so in CHANGES.md.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main(argv):
    first, last = (int(a) for a in argv) if argv else (0, 10)
    salsim = run.import_salsim()
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        recorded[name] = {}
        for seed in range(first, last + 1):
            out_dir = os.path.join(run.OUT, f"reference-{name}-seed{seed}")
            shutil.rmtree(out_dir, ignore_errors=True)
            paths = workloads.write_configs(workload, seed, out_dir)
            it = workloads.iterate(salsim, workload, paths, os.path.join(out_dir, "artifacts"))
            recorded[name][str(seed)] = run.fingerprint(it)
            shutil.rmtree(out_dir)
            print(f"{name} seed {seed}: {len(it.results)} runs", file=sys.stderr)
    reference = {
        "salsim_version": salsim.__version__,
        "result_fields": list(run.RESULT_FIELDS),
        "workloads": recorded,
    }
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
