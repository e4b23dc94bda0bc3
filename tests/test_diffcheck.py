"""tools/diffcheck.py's corpus gives the digests recorded for it.

tests/diffcheck_digests.txt was written by `python tools/diffcheck.py`
before the engine changes it now guards. A change that keeps every
result, error message included, keeps every digest; one that means to
change results records the file anew and says so.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).with_name("diffcheck_digests.txt")


def load_diffcheck():
    spec = importlib.util.spec_from_file_location("diffcheck", ROOT / "tools" / "diffcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_results_match_their_recorded_digests():
    diffcheck = load_diffcheck()
    recorded = RECORDED.read_text().splitlines()
    now = diffcheck.lines(diffcheck.digests())
    assert len(now) == len(recorded)
    entries = diffcheck.corpus()
    differ = [diffcheck.describe(entries[i]) for i, (a, b) in enumerate(zip(now, recorded)) if a != b]
    assert not differ, f"{len(differ)} entries differ, first: {differ[:3]}"


def test_corpus_covers_what_it_promises():
    entries = load_diffcheck().corpus()
    runs = [e for e in entries if e["kind"] == "run"]
    cells = [e for e in entries if e["kind"] == "cell"]
    combos = {(e["kw"]["strategy"], e["kw"]["policy"]) for e in runs}
    for strategy in ("UC", "FC", "UA", "FA", "FA+TIS"):
        for policy in ("AOI_COST", "FIFO", "ROUND_ROBIN"):
            assert (strategy, policy) in combos
    horizons = {e["kw"]["horizon"] for e in runs}
    assert {1, 512, 513, 1024, 1025} <= horizons
    assert 0.2 < sum(e["erasures"] is not None for e in runs) / len(runs) < 0.35
    assert 0.25 < sum(e["traces"] for e in runs) / len(runs) < 0.35
    assert {len(e["seeds"]) for e in cells} >= {2, 20}
