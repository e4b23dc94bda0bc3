"""tools/bench.py measures a tree and compares two.

The script times each (N, strategy) cell of the default grid in a fresh
interpreter per tree; here it runs one loop count for a few slots and
compares the tree with itself.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_measures_each_cell_and_pairs_two_trees(tmp_path):
    bench = load_bench()
    out = tmp_path / "bench.json"
    bench.main([str(out), str(ROOT), "--n", "2", "--slots", "6"])
    report = json.loads(out.read_text())
    cells = [f"2/{token}" for token in bench.STRATEGIES]
    assert len(report["trees"]) == 2
    for tree in report["trees"]:
        assert tree["src_lines"] == bench.src_lines(ROOT)
        assert list(tree["cells"]) == cells
        for cell in tree["cells"].values():
            assert cell["cell_us_per_slot"] > 0.0 and cell["run_us_per_slot"] > 0.0
        assert tree["tiny_run_us"] > 0.0
    ratios = report["ratios"]
    assert list(ratios["cells"]) == cells
    assert len(ratios["summed_pairs"]) == report["pairs"] == 1
    assert ratios["summed_cell_us_per_slot"] > 0.0
