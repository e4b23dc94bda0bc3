"""Results table I/O, flat config files and deterministic SVG plots.

The results CSV has a fixed header (N, strategy, seed, mean_aoi,
mean_lqg, padding_fraction, trigger_rate, discards), '\\n' line endings
and floats printed with nine significant digits, so identical result
tables serialize to identical bytes. Rows are kept in canonical order:
loop count ascending, strategy in declaration order, seed ascending.

Config files are flat `key = value` text with full-line comments. One
key table names the accepted vocabulary and SimConfig's annotations give
each value its type. Any other key is an error, which keeps typos from
silently running the defaults.

Plots are written as standalone SVG by hand. A plotting library would
be less code, but matplotlib embeds generated ids and version strings
in its SVG output, and byte-identical artifacts for identical inputs
are part of the contract here.
"""

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .engine import ConfigError, SimConfig, summarize
from .publisher import STRATEGY_ORDER

CSV_HEADER = "N,strategy,seed,mean_aoi,mean_lqg,padding_fraction,trigger_rate,discards"

_COLORS = {
    "UC": "#d62728",
    "FC": "#ff7f0e",
    "UA": "#2ca02c",
    "FA": "#1f77b4",
    "FA+TIS": "#9467bd",
}


class ParseError(Exception):
    """Raised when a results CSV cannot be parsed or plotted."""


class ConfigKeyError(ConfigError):
    """Raised for keys outside the documented config vocabulary."""


class ConfigValueError(ConfigError):
    """Raised when a config value does not parse as its declared type."""


class CsvRow(NamedTuple):
    n_loops: int
    strategy: str
    seed: int
    mean_aoi: float
    mean_lqg: float
    padding_fraction: float
    trigger_rate: float
    discards: int


def _fmt(value):
    return "%.9g" % value


# the CSV columns follow CsvRow's fields and take their types from it
_CSV_TYPES = tuple(CsvRow.__annotations__.values())
_CSV_FORMATS = tuple(_fmt if kind is float else str for kind in _CSV_TYPES)
_csv_values = operator.attrgetter(*CsvRow._fields)


def write_csv(table, path):
    """Write run results (anything with the CsvRow fields) to `path`."""
    rows = sorted(
        table,
        key=lambda r: (r.n_loops, STRATEGY_ORDER.index(r.strategy), r.seed),
    )
    if not rows:
        raise ValueError("refusing to write an empty results table")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([fmt(v) for fmt, v in zip(_CSV_FORMATS, _csv_values(r))]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv_text(text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [ln[:-1] if ln.endswith("\r") else ln for ln in lines]
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}")
    rows = []
    for num, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise ParseError(f"line {num}: expected 8 fields, got {len(parts)}")
        if parts[1] not in STRATEGY_ORDER:
            raise ParseError(f"line {num}: unknown strategy {parts[1]!r}")
        try:
            rows.append(CsvRow._make([kind(p) for kind, p in zip(_CSV_TYPES, parts)]))
        except ValueError as exc:
            raise ParseError(f"line {num}: {exc}") from None
    if not rows:
        raise ParseError("no data rows")
    return rows


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_csv_text(fh.read())


# ------------------------------------------------------------- config

# config-file key -> SimConfig field; the plant poles sit under plant.
_CONFIG_KEYS = {
    key: key.removeprefix("plant.")
    for key in (
        "n_loops", "horizon", "strategy", "loss_prob", "tb_capacity", "deadband",
        "seed", "repetitions", "plant.a_min", "plant.a_max", "sigma_w2", "q", "r",
        "tis", "policy", "warmup",
    )
}
_BOOL_TOKENS = {
    "true": True,
    "1": True,
    "yes": True,
    "false": False,
    "0": False,
    "no": False,
}
# a field's annotation -> (value parser, what the error says it expects)
_PARSERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: (lambda value: _BOOL_TOKENS[value.lower()], "a boolean"),
    str: (str, "a string"),
}
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SimConfig)}


def parse_config_text(text):
    """Parse flat `key = value` config text into a validated SimConfig."""
    fields = {}
    for num, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigValueError(f"line {num}: expected key = value, got {line!r}")
        key = key.strip()
        value = value.strip()
        name = _CONFIG_KEYS.get(key)
        if name is None:
            raise ConfigKeyError(f"line {num}: unknown key {key!r}")
        parse, expects = _PARSERS[_FIELD_TYPES[name]]
        try:
            fields[name] = parse(value)
        except (ValueError, KeyError):
            raise ConfigValueError(
                f"line {num}: {key} expects {expects}, got {value!r}"
            ) from None
    return SimConfig(**fields).validate()


def load_config(path):
    """Read and parse a config file; a missing file raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# --------------------------------------------------------------- SVG

@dataclass
class PlotSpec:
    metric: str  # "aoi" or "lqg"


_W, _H = 720, 480
_X0, _X1 = 72.0, 560.0
_Y0, _Y1 = 36.0, 420.0


def _nice_ticks(lo, hi, target=5):
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0):
        if mult * mag >= raw:
            step = mult * mag
            break
    out = []
    k = math.ceil(lo / step)
    while k * step <= hi + 1e-9 * (hi - lo):
        out.append(k * step)
        k += 1
    return out


def render_svg(rows, spec):
    """Render per-strategy mean lines with min-max bands to SVG text."""
    metric = spec.metric
    if metric not in ("aoi", "lqg"):
        raise ParseError(f"unknown plot metric {metric!r}")
    if not rows:
        raise ParseError("no rows to plot")

    series = {}
    for s in summarize(rows):
        if metric == "aoi":
            point = (s.n_loops, s.aoi_mean, s.aoi_min, s.aoi_max)
        else:
            point = (s.n_loops, s.lqg_mean, s.lqg_min, s.lqg_max)
        series.setdefault(s.strategy, []).append(point)
    for label, points in series.items():
        if label not in _COLORS:
            raise ParseError(f"no plot color for strategy {label!r}")
        points.sort()
    labels = sorted(series, key=STRATEGY_ORDER.index)

    sizes = sorted({p[0] for points in series.values() for p in points})
    if len(sizes) < 2:
        raise ParseError("plotting needs at least two distinct loop counts")
    values = [v for points in series.values() for p in points for v in p[1:]]
    if not all(map(math.isfinite, values)):
        raise ParseError(f"non-finite {metric} values cannot be plotted")

    log_scale = metric == "lqg" and min(values) > 0.0
    if log_scale:
        tlo = float(math.floor(math.log10(min(values))))
        thi = float(math.ceil(math.log10(max(values))))
        if thi <= tlo:
            thi = tlo + 1.0
        exps = list(range(int(tlo), int(thi) + 1))
        if len(exps) > 8:
            exps = exps[:: -(-len(exps) // 8)]
        ticks = [(float(k), _fmt(10.0 ** k)) for k in exps]
        transform = math.log10
    else:
        tlo = min(0.0, min(values))
        thi = max(values)
        if thi <= tlo:
            thi = tlo + 1.0
        thi += 0.05 * (thi - tlo)
        ticks = [(v, "%g" % v) for v in _nice_ticks(tlo, thi)]
        transform = float

    xspan = sizes[-1] - sizes[0]
    yspan = thi - tlo

    def px(n):
        return _X0 + (n - sizes[0]) * (_X1 - _X0) / xspan

    def py(v):
        return _Y1 - (transform(v) - tlo) * (_Y1 - _Y0) / yspan

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
    ]
    for tv, tick_label in ticks:
        y = py(10.0 ** tv) if log_scale else py(tv)
        out.append(
            f'<line x1="{_X0:.2f}" y1="{y:.2f}" x2="{_X1:.2f}" y2="{y:.2f}" '
            f'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{_X0 - 6:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12">{tick_label}</text>'
        )
    for n in sizes:
        x = px(n)
        out.append(
            f'<line x1="{x:.2f}" y1="{_Y1:.2f}" x2="{x:.2f}" y2="{_Y1 + 5:.2f}" '
            f'stroke="#000000"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_Y1 + 18:.2f}" text-anchor="middle" '
            f'font-size="12">{n}</text>'
        )
    for label in labels:
        color = _COLORS[label]
        points = series[label]
        band = [f"{px(n):.2f},{py(top):.2f}" for n, _, _, top in points]
        band += [f"{px(n):.2f},{py(bottom):.2f}" for n, _, bottom, _ in reversed(points)]
        out.append(
            f'<polygon points="{" ".join(band)}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none"/>'
        )
    for label in labels:
        color = _COLORS[label]
        points = series[label]
        mean = " ".join(f"{px(n):.2f},{py(m):.2f}" for n, m, _, _ in points)
        out.append(
            f'<polyline points="{mean}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        for n, m, _, _ in points:
            out.append(f'<circle cx="{px(n):.2f}" cy="{py(m):.2f}" r="3" fill="{color}"/>')
    out.append(
        f'<line x1="{_X0:.2f}" y1="{_Y1:.2f}" x2="{_X1:.2f}" y2="{_Y1:.2f}" '
        f'stroke="#000000"/>'
    )
    out.append(
        f'<line x1="{_X0:.2f}" y1="{_Y0:.2f}" x2="{_X0:.2f}" y2="{_Y1:.2f}" '
        f'stroke="#000000"/>'
    )
    for idx, label in enumerate(labels):
        y = 52.0 + 22.0 * idx
        out.append(
            f'<line x1="576.00" y1="{y:.2f}" x2="600.00" y2="{y:.2f}" '
            f'stroke="{_COLORS[label]}" stroke-width="3"/>'
        )
        out.append(f'<text x="606.00" y="{y + 4:.2f}" font-size="12">{label}</text>')
    x_mid = (_X0 + _X1) / 2.0
    y_mid = (_Y0 + _Y1) / 2.0
    out.append(
        f'<text x="{x_mid:.2f}" y="462.00" text-anchor="middle" font-size="13">'
        f"number of control loops</text>"
    )
    y_label = "mean AoI (slots)" if metric == "aoi" else "mean LQG cost per slot"
    if log_scale:
        y_label += " (log scale)"
    out.append(
        f'<text x="18.00" y="{y_mid:.2f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {y_mid:g})">{y_label}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_plot(csv_path, spec, out_path):
    """Plot a results CSV to a standalone SVG file."""
    text = render_svg(read_csv(csv_path), spec)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
