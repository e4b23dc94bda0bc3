"""tools/bench.py measures a tree and compares two.

The script times each (N, strategy) cell of the default grid in a fresh
interpreter per tree; here it runs one loop count for a few slots and
compares the tree with itself.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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
    grid = [f"2/{token}" for token in bench.STRATEGIES]
    policies = [f"2/{token}/{p}" for p in bench.POLICIES for token in bench.POLICY_STRATEGIES]
    assert len(report["trees"]) == 2
    for tree in report["trees"]:
        assert tree["src_lines"] == bench.src_lines(ROOT)
        assert 0 < tree["src_code_lines"] == bench.src_code_lines(ROOT) < tree["src_lines"]
        assert list(tree["cells"]) == grid + policies
        for name, cell in tree["cells"].items():
            # FIFO and ROUND_ROBIN cells time run() alone
            timed = ["run_us_per_slot"] if name in policies else ["cell_us_per_slot", "run_us_per_slot"]
            assert list(cell) == timed
            assert all(value > 0.0 for value in cell.values())
        assert tree["tiny_run_us"] > 0.0
    ratios = report["ratios"]
    assert list(ratios["cells"]) == grid + policies
    assert all(list(ratios["cells"][name]) == ["run_us_per_slot"] for name in policies)
    assert len(ratios["summed_pairs"]) == report["pairs"] == 1
    assert ratios["summed_cell_us_per_slot"] > 0.0


def test_bench_stages_split_each_lockstep_cell_and_unwrap_after(tmp_path):
    from salsim import lockstep
    from salsim.engine import SimConfig, _takes_lockstep

    bench = load_bench()
    methods = {(o, m): vars(getattr(lockstep, o))[m] for ts in bench.STAGES.values() for o, m in ts}
    out = tmp_path / "bench.json"
    bench.main([str(out), "--n", "2", "--slots", "6", "--stages"])
    cells = json.loads(out.read_text())["trees"][0]["cells"]
    for token in bench.STRATEGIES:
        cell = cells[f"2/{token}"]
        if not _takes_lockstep([SimConfig(n_loops=2, strategy=token)] * 20):
            assert "stages_us_per_slot" not in cell
            continue
        stages = cell["stages_us_per_slot"]
        assert list(stages) == [*bench.STAGES, bench.REST]
        assert stages["noise"] > 0.0 and stages["step"] > 0.0 and stages["fold"] > 0.0
        assert sum(stages.values()) == pytest.approx(cell["staged_us_per_slot"])
    assert "2/UA" in cells and "stages_us_per_slot" in cells["2/UA"]
    for (owner, name), method in methods.items():
        assert vars(getattr(lockstep, owner))[name] is method


CODE_SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # code with a comment


class Thing:
    """One line."""

    def method(self, value):
        """Lines
        and lines.
        """
        text = """a string that is
        not a docstring"""
        return (value,
                text)


def bare():
    return os.sep
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # code: import, class, def, text (2 lines), return (2), def, return
    assert load_bench().code_lines(CODE_SAMPLE) == 9
