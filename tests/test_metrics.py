"""Results CSV, config-file parsing and SVG rendering tests.

Oracles: hand-written expected file bytes for the CSV writer, the
re-parse identity at nine significant digits, and structural counts
(polylines, band polygons, legend entries) plus extracted coordinates
for the renderer.
"""

import dataclasses
import math
import random
import re
from pathlib import Path

import pytest

from salsim.engine import ConfigError, SimConfig
from salsim.metrics import (
    CSV_HEADER,
    ConfigKeyError,
    ConfigValueError,
    CsvRow,
    ParseError,
    PlotSpec,
    load_config,
    parse_config_text,
    parse_csv_text,
    read_csv,
    render_plot,
    render_svg,
    write_csv,
)

STRATS = ("UC", "FC", "UA", "FA", "FA+TIS")


def _row(n, strategy, seed, aoi, lqg, pad=0.125, trig=1.0, disc=0):
    return CsvRow(n, strategy, seed, aoi, lqg, pad, trig, disc)


# ---------------------------------------------------------------- CSV


def test_csv_single_row_exact_bytes(tmp_path):
    path = tmp_path / "one.csv"
    row = CsvRow(5, "UA", 1, 1.073888888888889, 3.433188151215661, 0.09375, 1.0, 666)
    write_csv([row], path)
    expected = (
        "N,strategy,seed,mean_aoi,mean_lqg,padding_fraction,trigger_rate,discards\n"
        "5,UA,1,1.07388889,3.43318815,0.09375,1,666\n"
    )
    assert path.read_bytes() == expected.encode("utf-8")


def test_csv_empty_table_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv([], tmp_path / "none.csv")


def test_csv_rewrite_is_byte_identical(tmp_path):
    rows = [_row(5, "FA", 3, 2.5, 7.25), _row(5, "FA", 4, 2.25, 6.5)]
    write_csv(rows, tmp_path / "a.csv")
    write_csv(rows, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_roundtrip_exact_at_nine_significant_digits(tmp_path):
    rng = random.Random(172)
    rows = []
    for k in range(200):
        rows.append(
            CsvRow(
                n_loops=rng.randrange(1, 40),
                strategy=rng.choice(STRATS),
                seed=k,
                mean_aoi=rng.uniform(0.0, 50.0),
                mean_lqg=rng.uniform(1.0, 10.0) * 10.0 ** rng.randrange(-3, 38),
                padding_fraction=rng.uniform(0.0, 1.0),
                trigger_rate=rng.uniform(0.0, 1.0),
                discards=rng.randrange(0, 10**7),
            )
        )
    path = tmp_path / "roundtrip.csv"
    write_csv(rows, path)
    back = read_csv(path)
    assert len(back) == len(rows)
    key = lambda r: (r.n_loops, STRATS.index(r.strategy), r.seed)
    for got, sent in zip(back, sorted(rows, key=key)):
        assert got.n_loops == sent.n_loops
        assert got.strategy == sent.strategy
        assert got.seed == sent.seed
        assert got.discards == sent.discards
        for field in ("mean_aoi", "mean_lqg", "padding_fraction", "trigger_rate"):
            assert getattr(got, field) == float("%.9g" % getattr(sent, field))


def test_csv_rows_come_back_in_canonical_order(tmp_path):
    rows = [
        _row(10, "UA", 2, 1.0, 2.0),
        _row(5, "FA+TIS", 1, 1.0, 2.0),
        _row(5, "UC", 2, 1.0, 2.0),
        _row(5, "UC", 1, 1.0, 2.0),
        _row(10, "FC", 1, 1.0, 2.0),
    ]
    path = tmp_path / "order.csv"
    write_csv(rows, path)
    got = [(r.n_loops, r.strategy, r.seed) for r in read_csv(path)]
    assert got == [
        (5, "UC", 1),
        (5, "UC", 2),
        (5, "FA+TIS", 1),
        (10, "FC", 1),
        (10, "UA", 2),
    ]


def test_csv_parse_rejects_malformed_text():
    good = "5,UA,1,1.5,2.5,0.25,1,0"
    with pytest.raises(ParseError):
        parse_csv_text("wrong,header\n" + good + "\n")
    with pytest.raises(ParseError):
        parse_csv_text(CSV_HEADER + "\n5,UA,1,1.5\n")
    with pytest.raises(ParseError):
        parse_csv_text(CSV_HEADER + "\n5,XX,1,1.5,2.5,0.25,1,0\n")
    with pytest.raises(ParseError):
        parse_csv_text(CSV_HEADER + "\nfive,UA,1,1.5,2.5,0.25,1,0\n")
    with pytest.raises(ParseError):
        parse_csv_text(CSV_HEADER + "\n5,UA,1,banana,2.5,0.25,1,0\n")
    with pytest.raises(ParseError):
        parse_csv_text(CSV_HEADER + "\n")
    with pytest.raises(ParseError):
        parse_csv_text("")


def test_csv_parse_accepts_crlf_line_endings():
    text = CSV_HEADER + "\r\n5,UA,1,1.5,2.5,0.25,1,0\r\n"
    rows = parse_csv_text(text)
    assert rows == [CsvRow(5, "UA", 1, 1.5, 2.5, 0.25, 1.0, 0)]


# ------------------------------------------------------------- config


def test_config_empty_text_gives_defaults():
    assert parse_config_text("") == SimConfig()


def test_config_single_override():
    config = parse_config_text("loss_prob = 0.25\n")
    assert config.loss_prob == 0.25
    assert config.n_loops == SimConfig().n_loops


def test_config_every_documented_key():
    text = """
    # full sweep configuration
    n_loops      = 7
    horizon      = 5000
    strategy     = FC
    loss_prob    = 0.2
    tb_capacity  = 92
    deadband     = 0.75

    seed         = 11
    repetitions  = 3
    plant.a_min  = 1.01
    plant.a_max  = 1.19
    sigma_w2     = 2.0
    q            = 0.5
    r            = 2.5
    tis          = false
    policy       = FIFO
    warmup       = 100
    """
    config = parse_config_text(text)
    assert config.n_loops == 7
    assert config.horizon == 5000
    assert config.strategy == "FC"
    assert config.loss_prob == 0.2
    assert config.tb_capacity == 92
    assert config.deadband == 0.75
    assert config.seed == 11
    assert config.repetitions == 3
    assert config.a_min == 1.01
    assert config.a_max == 1.19
    assert config.sigma_w2 == 2.0
    assert config.q == 0.5
    assert config.r == 2.5
    assert config.tis is False
    assert config.policy == "FIFO"
    assert config.warmup == 100


def test_config_boolean_spellings():
    for token, value in [
        ("true", True),
        ("TRUE", True),
        ("1", True),
        ("yes", True),
        ("false", False),
        ("0", False),
        ("No", False),
    ]:
        assert parse_config_text(f"strategy = FA\ntis = {token}\n").tis is value
    with pytest.raises(ConfigValueError):
        parse_config_text("tis = maybe\n")


def test_config_unknown_key():
    with pytest.raises(ConfigKeyError):
        parse_config_text("n_loops = 3\nloss_probability = 0.1\n")


def test_config_unparsable_values():
    with pytest.raises(ConfigValueError):
        parse_config_text("loss_prob = banana\n")
    with pytest.raises(ConfigValueError):
        parse_config_text("n_loops = 2.5\n")
    with pytest.raises(ConfigValueError):
        parse_config_text("horizon ten thousand\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("n_loops = 2.5", "line 1: n_loops expects an integer, got '2.5'"),
        ("loss_prob = banana", "line 1: loss_prob expects a number, got 'banana'"),
        ("tis = maybe", "line 1: tis expects a boolean, got 'maybe'"),
        ("plant.a_min = x", "line 1: plant.a_min expects a number, got 'x'"),
    ],
)
def test_config_value_errors_name_the_key_as_written(line, message):
    with pytest.raises(ConfigValueError) as err:
        parse_config_text(line + "\n")
    assert str(err.value) == message


def _readme_config_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\S+) +\| (\S+) +\|", section, flags=re.M)
    return dict(rows[1:])  # the first row is the header


def test_readme_config_table_names_the_parsers_keys_and_defaults():
    documented = _readme_config_table()
    # every key the parser could plausibly take: each field, bare or under plant.
    defaults = dataclasses.asdict(SimConfig())
    accepted = set()
    for name, value in defaults.items():
        for key in (name, "plant." + name):
            try:
                parse_config_text(f"{key} = {value}\n")
            except ConfigKeyError:
                continue
            accepted.add(key)
    assert set(documented) == accepted
    text = "".join(f"{key} = {default}\n" for key, default in documented.items())
    assert parse_config_text(text) == SimConfig()


def test_config_error_messages_name_the_line():
    with pytest.raises(ConfigValueError, match="line 3"):
        parse_config_text("# comment\nn_loops = 3\nloss_prob = banana\n")


def test_config_duplicate_key_last_wins():
    assert parse_config_text("seed = 1\nseed = 9\n").seed == 9


def test_config_fa_tis_alias():
    config = parse_config_text("strategy = FA_TIS\n")
    assert config.resolved_strategy().tis is True


def test_config_semantic_errors_surface_as_config_errors():
    with pytest.raises(ConfigError):
        parse_config_text("n_loops = 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("strategy = banana\n")
    with pytest.raises(ConfigError):
        parse_config_text("tis = true\nstrategy = UC\n")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("n_loops = 4\nseed = 42\n", encoding="utf-8")
    config = load_config(path)
    assert (config.n_loops, config.seed) == (4, 42)
    with pytest.raises(OSError):
        load_config(tmp_path / "missing.cfg")


# ---------------------------------------------------------------- SVG


def _grid_rows(strategies, sizes, seeds=2, base=3.0):
    rows = []
    for si, strat in enumerate(strategies):
        for n in sizes:
            for seed in range(1, seeds + 1):
                value = base * (si + 1) + 0.5 * n + 0.25 * seed
                rows.append(_row(n, strat, seed, value, value * 10.0))
    return rows


def test_plot_counts_polylines_and_bands():
    svg = render_svg(_grid_rows(["UA", "FA"], [5, 10, 15]), PlotSpec(metric="aoi"))
    assert svg.count("<polyline") == 2
    assert svg.count("<polygon") == 2
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_plot_single_strategy():
    svg = render_svg(_grid_rows(["FC"], [5, 10]), PlotSpec(metric="lqg"))
    assert svg.count("<polyline") == 1
    assert svg.count("<polygon") == 1


def test_plot_degenerate_band_single_repetition():
    svg = render_svg(_grid_rows(["UA"], [5, 10], seeds=1), PlotSpec(metric="aoi"))
    assert svg.count("<polygon") == 1


def test_plot_labels_and_legend():
    svg = render_svg(_grid_rows(["UC", "UA", "FA+TIS"], [5, 10]), PlotSpec(metric="aoi"))
    for label in ("UC", "UA", "FA+TIS"):
        assert f">{label}<" in svg
    assert "number of control loops" in svg
    assert "mean AoI (slots)" in svg
    # colors are fixed per strategy
    assert "#d62728" in svg and "#2ca02c" in svg and "#9467bd" in svg
    assert "#1f77b4" not in svg


def test_plot_needs_two_loop_counts():
    with pytest.raises(ParseError):
        render_svg(_grid_rows(["UA"], [5]), PlotSpec(metric="aoi"))


def test_plot_metric_must_be_known():
    with pytest.raises(ParseError):
        render_svg(_grid_rows(["UA"], [5, 10]), PlotSpec(metric="cost"))


def test_plot_lqg_spanning_decades_switches_to_log_axis():
    rows = [
        _row(5, "UA", 1, 1.0, 3.0),
        _row(5, "UA", 2, 1.1, 4.0),
        _row(20, "UA", 1, 6.0, 2.0e12),
        _row(20, "UA", 2, 6.5, 8.0e12),
    ]
    assert "log scale" in render_svg(rows, PlotSpec(metric="lqg"))
    assert "log scale" not in render_svg(rows, PlotSpec(metric="aoi"))


def test_plot_rejects_non_finite_values():
    rows = [_row(5, "UA", 1, 1.0, float("inf")), _row(10, "UA", 1, 2.0, 4.0)]
    with pytest.raises(ParseError):
        render_svg(rows, PlotSpec(metric="lqg"))
    assert "<svg" in render_svg(rows, PlotSpec(metric="aoi"))


_POINTS = re.compile(r'<(polyline|polygon)[^>]* points="([^"]+)"')


def _extract_curves(svg):
    lines, bands = [], []
    for kind, points in _POINTS.findall(svg):
        coords = [tuple(map(float, pair.split(","))) for pair in points.split()]
        (lines if kind == "polyline" else bands).append(coords)
    return lines, bands


def test_plot_band_envelopes_the_mean_line():
    rows = _grid_rows(["UC", "FA"], [5, 10, 15, 20], seeds=4)
    lines, bands = _extract_curves(render_svg(rows, PlotSpec(metric="aoi")))
    assert len(lines) == len(bands) == 2
    for line, band in zip(lines, bands):
        k = len(line)
        assert len(band) == 2 * k
        upper, lower = band[:k], band[k:][::-1]
        for (lx, ly), (ux, uy), (dx, dy) in zip(line, upper, lower):
            assert lx == ux == dx
            # svg y grows downward, so the max curve sits at smaller y
            assert uy <= ly + 0.011
            assert dy >= ly - 0.011


def test_plot_render_is_pure_and_never_mutates_the_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    write_csv(_grid_rows(["UA", "FA"], [5, 10]), csv_path)
    before = csv_path.read_bytes()
    out_a = tmp_path / "a.svg"
    out_b = tmp_path / "b.svg"
    render_plot(csv_path, PlotSpec(metric="aoi"), out_a)
    render_plot(csv_path, PlotSpec(metric="aoi"), out_b)
    assert csv_path.read_bytes() == before
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes().startswith(b"<svg")


def test_plot_x_positions_follow_loop_counts():
    rows = _grid_rows(["UA"], [5, 10, 20])
    lines, _ = _extract_curves(render_svg(rows, PlotSpec(metric="aoi")))
    xs = [x for x, _ in lines[0]]
    assert xs == sorted(xs)
    # 10 sits a third of the way from 5 to 20
    assert xs[1] - xs[0] == pytest.approx((xs[2] - xs[0]) / 3.0, abs=0.02)


def test_plot_linear_axis_starts_at_zero():
    rows = _grid_rows(["UA"], [5, 10])
    svg = render_svg(rows, PlotSpec(metric="aoi"))
    assert '>0<' in svg
