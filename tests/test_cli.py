"""Command-line interface tests: outputs, exit codes, determinism."""

import subprocess
import sys

import pytest

from salsim.cli import main
from salsim.metrics import read_csv

CONFIG = """
n_loops = 2
horizon = 400
warmup = 50
repetitions = 2
seed = 3
strategy = UA
deadband = 0.4
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    return path


def test_run_writes_one_row(cfg, tmp_path):
    out = tmp_path / "results.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert (rows[0].n_loops, rows[0].strategy, rows[0].seed) == (2, "UA", 3)
    assert rows[0].mean_aoi > 0.0


def test_run_seed_override(cfg, tmp_path):
    out = tmp_path / "results.csv"
    assert main(["run", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    assert read_csv(out)[0].seed == 9


def test_run_default_output_name(cfg, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "results.csv").is_file()


def test_sweep_grid_rows_in_canonical_order(cfg, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--config", str(cfg), "--n", "3,2", "--strategies", "FA,UA", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert [(r.n_loops, r.strategy, r.seed) for r in rows] == [
        (2, "UA", 3),
        (2, "UA", 4),
        (2, "FA", 3),
        (2, "FA", 4),
        (3, "UA", 3),
        (3, "UA", 4),
        (3, "FA", 3),
        (3, "FA", 4),
    ]


def test_sweep_tis_flag_upgrades_fa(cfg, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--config", str(cfg), "--n", "2,3", "--strategies", "FA", "--tis", "--out", str(out)]
    )
    assert code == 0
    assert {r.strategy for r in read_csv(out)} == {"FA+TIS"}


def test_plot_writes_svg_for_both_metrics(cfg, tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    main(["sweep", "--config", str(cfg), "--n", "2,3", "--strategies", "UA,FA", "--out", str(sweep_csv)])
    for metric in ("aoi", "lqg"):
        fig = tmp_path / f"{metric}.svg"
        assert main(["plot", "--in", str(sweep_csv), "--metric", metric, "--out", str(fig)]) == 0
        assert fig.read_bytes().startswith(b"<svg")


def test_repeat_invocations_are_byte_identical(cfg, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", str(cfg), "--out", str(a)])
    main(["run", "--config", str(cfg), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_missing_config_is_an_io_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")]) == 2


def test_bad_config_content_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("loss_probability = 0.1\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
    bad.write_text("loss_prob = banana\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1


@pytest.mark.parametrize("line", ["deadband = nan", "sigma_w2 = inf", "q = 1e300", "r = inf", "plant.a_min = nan"])
def test_unusable_config_values_are_config_errors(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG + line + "\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_output_is_an_io_error(cfg, tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "results.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2


def test_sweep_rejects_bad_grid_arguments(cfg, tmp_path):
    out = str(tmp_path / "sweep.csv")
    base = ["sweep", "--config", str(cfg), "--out", out]
    assert main(base + ["--n", "2,x", "--strategies", "UA"]) == 1
    assert main(base + ["--n", ",", "--strategies", "UA"]) == 1
    assert main(base + ["--n", "2,3", "--strategies", "banana"]) == 1
    assert main(base + ["--n", "2", "--strategies", "UA", "--jobs", "0"]) == 1


def test_plot_error_mapping(cfg, tmp_path):
    missing = tmp_path / "missing.csv"
    fig = str(tmp_path / "fig.svg")
    assert main(["plot", "--in", str(missing), "--metric", "aoi", "--out", fig]) == 2
    single = tmp_path / "single.csv"
    main(["sweep", "--config", str(cfg), "--n", "2", "--strategies", "UA", "--out", str(single)])
    assert main(["plot", "--in", str(single), "--metric", "aoi", "--out", fig]) == 1
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("not,a,results\nfile,at,all\n", encoding="utf-8")
    assert main(["plot", "--in", str(garbage), "--metric", "aoi", "--out", fig]) == 1


def test_module_entry_point(cfg, tmp_path):
    out = tmp_path / "results.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "salsim", "run", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.is_file()
    assert f"wrote {out}" in proc.stdout
