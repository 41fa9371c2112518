"""Command-line entry point.

Subcommands: simulate (experiment config -> CSV), verify (property suites),
construct (dispersion-set text files), plot (CSV -> SVG line chart).
Exit codes: 0 success, 1 failed verification, 2 usage/config error,
3 infeasible construction.
"""

import argparse
import os
import re
import sys

import numpy as np

from . import dispersion, simengine
from .channel import check_antennas, custom_model, iid_model, v4_model
from .errors import ConfigError, InfeasibleError, PreconditionError
from .infotheory import Constellation
from .matkit import KEY_LIMIT, Rng

SEED_ENV_VAR = "LDFEEDBACK_SEED"


def _fmt(x):
    return format(float(x), ".12g")


def parse_config_text(text, path="<config>"):
    """Flat key = value lines; # comments; unknown or duplicate keys are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    return values


def _natural(text):
    """text as an integer in [0, 2**64) written in ASCII digits only: how every integer input is read.

    Python's int would also take a sign, underscores, spaces and non-ASCII
    digits; each of these is a ValueError that names the accepted form, and so
    is a value of 2**64 or more. A seed is a Philox key word, taken mod 2**64
    (matkit.KEY_LIMIT), so a larger one would alias a smaller seed; no count,
    size or index the commands read comes near it. 2**64 has 20 digits, so a
    longer text (leading zeros aside) is rejected before int reads it.
    """
    if not (text.isascii() and text.isdigit() and len(text.lstrip("0")) <= 20 and int(text) < KEY_LIMIT):
        raise ValueError("expected an integer in [0, 2**64) written in ASCII digits 0-9")
    return int(text)


# an optional '-', ASCII digits with at most one '.', an optional exponent; [0-9], as \d
# would also match non-ASCII digits
_REAL_FORM = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")


def _real(text):
    """text as a finite float written in ASCII digits only: how every real input is read.

    Python's float would also take a leading '+', underscores, spaces,
    non-ASCII digits, nan and inf; each of these is a ValueError that names the
    accepted form, and so is a value that overflows to infinity, such as 1e999.
    """
    if not (_REAL_FORM.fullmatch(text) and np.isfinite(float(text))):
        raise ValueError("expected a finite real: an optional '-', ASCII digits 0-9 with at most one '.', "
                         "and an optional exponent e or E with an optional sign")
    return float(text)


def _reals(text):
    """A comma-separated list, each piece read by _real once the spaces around it are stripped, so an
    empty piece is malformed: how every list of reals is read."""
    return [_real(piece.strip()) for piece in text.split(",")]


def _preset(text):
    if text not in ("iid", "v4"):
        raise ValueError(f"unknown model preset {text!r}")
    return text


def _schemes(text):
    schemes = [s.strip() for s in text.split(",") if s.strip()]
    if not schemes:
        raise ValueError("schemes must name at least one scheme")
    simengine.check_schemes(schemes)
    return schemes


# every simulate config key and the parser of its text, one line per quantity of the
# experiment. SimConfig owns the defaults of opt_samples, b, n1, n2 and rank_two_sets;
# build_experiment defaults model to iid, k to nc and constellation to gaussian
CONFIG_KEYS = {
    "model": _preset, "vmask": _reals, "nt": _natural, "nr": _natural,  # the channel law
    "nc": _natural, "k": _natural,  # K symbols over Nc channel uses
    "snr_db": _reals, "trials": _natural, "seed": _natural,
    "constellation": Constellation, "schemes": _schemes,
    # the fits and the B-bit split
    "opt_samples": _natural, "b": _natural, "n1": _natural, "n2": _natural, "rank_two_sets": _natural,
}
REQUIRED_KEYS = ("nt", "nr", "nc", "snr_db", "trials", "schemes")


def _read_as(parser, text, source):
    """parser(text); a text it cannot read is a ConfigError naming source (a config key, a flag, the
    environment variable or a CSV field), the text and the parser's reason."""
    try:
        return parser(text)
    except ValueError as exc:
        raise ConfigError(f"{source} = {text!r}: {exc}") from exc


def resolve_seed(config_values, cli_seed):
    """Flag beats config beats environment beats the built-in default.

    cli_seed is the --seed text. A set environment value is read even when
    the flag or the config overrides it, so a bad one never passes without
    a word. Each source is read by _natural.
    """
    seed = 1
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        seed = _read_as(_natural, env, SEED_ENV_VAR)
    if cli_seed is not None:
        return _read_as(_natural, cli_seed, "--seed")
    if "seed" in config_values:
        return _read_as(_natural, config_values["seed"], "key 'seed'")
    return seed


def build_experiment(values, cli_seed=None):
    """Turn parsed config values into the SimConfig of one experiment.

    The checks run in this order: required keys present, not both model and
    vmask, every value the file gives read by its parser (in file order, seed
    included when --seed overrides it), then the rules that join keys and
    the --seed flag. simengine.run validates the SimConfig before any draw.
    """
    for key in REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    if "vmask" in values and "model" in values:
        raise ConfigError("give either model or vmask, not both")
    fields = {key: _read_as(CONFIG_KEYS[key], values[key], f"key {key!r}") for key in values}
    nt, nr = fields.pop("nt"), fields.pop("nr")
    if "vmask" in fields:
        flat = fields.pop("vmask")
        check_antennas(nt, nr)
        if len(flat) != nt * nr:
            raise ConfigError(f"vmask needs {nt * nr} entries, got {len(flat)}")
        model = custom_model(np.array(flat).reshape(nr, nt))
    elif fields.pop("model", "iid") == "iid":
        model = iid_model(nt, nr)
    elif (nt, nr) == (4, 4):
        model = v4_model()
    else:
        raise ConfigError("the v4 preset is a 4x4 model")
    fields["seed"] = resolve_seed(values, cli_seed)
    fields.setdefault("k", fields["nc"])
    fields.setdefault("constellation", Constellation.gaussian())
    return simengine.SimConfig(model=model, snr_grid_db=fields.pop("snr_db"), **fields)


def curves_to_csv(curves):
    """CSV text with one row per point, in the order given (run sorts by scheme, then SNR)."""
    lines = [CSV_HEADER]
    for p in curves:
        lines.append(f"{_fmt(p.snr_db)},{p.scheme},{_fmt(p.mi_bits_per_use)},{_fmt(p.stderr)},{p.trials}")
    return "\n".join(lines) + "\n"


# the columns of a simulate CSV and the reader of each field
CSV_FIELDS = {"snr_db": _real, "scheme": str, "mi_bits_per_use": _real, "stderr": _real, "trials": _natural}
CSV_HEADER = ",".join(CSV_FIELDS)


def parse_csv(text):
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"CSV header must be exactly {CSV_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ConfigError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        rows.append(tuple(_read_as(parser, field, f"line {lineno} field {name!r}")
                          for (name, parser), field in zip(CSV_FIELDS.items(), parts)))
    if not rows:
        raise ConfigError("CSV has no data rows")
    return rows


# fixed palette, assigned to schemes in sorted label order
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"]


def render_svg(rows, xmin=None, xmax=None, ymin=None, ymax=None):
    """Deterministic 800x600 line chart, one polyline per scheme."""
    # imported here: saxutils loads urllib.request, which no other command needs
    from xml.sax.saxutils import escape

    if xmin is not None or xmax is not None:
        lo = -np.inf if xmin is None else xmin
        hi = np.inf if xmax is None else xmax
        rows = [r for r in rows if lo <= r[0] <= hi]
        if not rows:
            raise ConfigError("zoom window leaves no data points")
    schemes = sorted({r[1] for r in rows})
    xs = [r[0] for r in rows]
    ys = [r[2] for r in rows]
    x0 = min(xs) if xmin is None else xmin
    x1 = max(xs) if xmax is None else xmax
    y0 = min(ys) if ymin is None else ymin
    y1 = max(ys) if ymax is None else ymax
    # one y bound beyond the data would leave no point on the plot, or be dropped by the fallback below
    if ymin is not None and ymax is None and ymin >= y1:
        raise ConfigError(f"--ymin {ymin:g} must be below the largest y value {y1:g}")
    if ymax is not None and ymin is None and ymax <= y0:
        raise ConfigError(f"--ymax {ymax:g} must be above the smallest y value {y0:g}")
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    width, height = 800, 600
    left, right, top, bottom = 70, 210, 40, 50
    pw, ph = width - left - right, height - top - bottom

    def px(x):
        return left + (x - x0) / (x1 - x0) * pw

    def py(y):
        return top + ph - (y - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<defs><clipPath id="plot"><rect x="{left}" y="{top}" width="{pw}" height="{ph}"/>'
        "</clipPath></defs>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for i in range(6):
        xv = x0 + i * (x1 - x0) / 5
        yv = y0 + i * (y1 - y0) / 5
        xp, yp = px(xv), py(yv)
        parts.append(f'<line x1="{xp:.2f}" y1="{top + ph}" x2="{xp:.2f}" y2="{top + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{xp:.2f}" y="{top + ph + 20}" font-size="12" text-anchor="middle">{xv:.3g}</text>')
        parts.append(f'<line x1="{left - 5}" y1="{yp:.2f}" x2="{left}" y2="{yp:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{yp + 4:.2f}" font-size="12" text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{left + pw / 2:.2f}" y="{height - 12}" font-size="14" '
                 f'text-anchor="middle">SNR (dB)</text>')
    parts.append(f'<text x="18" y="{top + ph / 2:.2f}" font-size="14" text-anchor="middle" '
                 f'transform="rotate(-90 18 {top + ph / 2:.2f})">mutual information (bits/use)</text>')
    for idx, scheme in enumerate(schemes):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted((r[0], r[2]) for r in rows if r[1] == scheme)
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'clip-path="url(#plot)" points="{coords}"/>')
        ly = top + 16 + 18 * idx
        parts.append(f'<line x1="{width - right + 14}" y1="{ly - 4}" x2="{width - right + 44}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - right + 50}" y="{ly}" font-size="12">{escape(scheme)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read(path):
    """The file at path as UTF-8 text; a file that cannot be read or decoded is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _write(path, text):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_simulate(args):
    values = parse_config_text(_read(args.config), path=args.config)
    curves = simengine.run(build_experiment(values, cli_seed=args.seed))
    _write(args.output, curves_to_csv(curves))
    return 0


def cmd_verify(args):
    # imported here, so that simulate, construct and plot processes do not compile the suites
    from . import verify

    if args.suite == "all":
        names = list(verify.SUITES)
    elif args.suite in verify.SUITES:
        names = [args.suite]
    else:
        raise ConfigError(f"unknown suite {args.suite!r}; known: all, {', '.join(verify.SUITES)}")
    if args.mutate and args.suite not in ("goc", "all"):
        raise ConfigError(f"--mutate corrupts the goc construction only; suite {args.suite!r} has nothing to mutate")
    seed = verify.DEFAULT_SEED if args.seed is None else _read_as(_natural, args.seed, "--seed")
    results = verify.run_suites(names, seed=seed, mutate=args.mutate)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_construct(args):
    k, nc, nt, mode = (_read_as(_natural, getattr(args, name), f"--{name}") for name in ("k", "nc", "nt", "mode"))
    rng = Rng(1 if args.seed is None else _read_as(_natural, args.seed, "--seed"), 0)
    if args.kind == "rank-one":
        if mode >= nt:
            raise PreconditionError(f"mode {mode} out of range for nt = {nt}")
        u = np.zeros(nt, dtype=complex)
        u[mode] = 1.0
        dset = dispersion.rank_one_set(u, k, nc)
    else:
        if args.lambdas is None:
            raise PreconditionError("statistical kind needs --lambdas")
        lam = np.array(_read_as(_reals, args.lambdas, "--lambdas"))
        if lam.size != nt:
            raise PreconditionError(f"--lambdas needs {nt} entries")
        dset = dispersion.statistical_set(lam, k, nc, rng)
    _write(args.output, dispersion.to_text(dset))
    _, resid = dispersion.check_goc(dset)
    print(f"goc_residual = {resid:.6e}")
    print(f"total_power = {dset.total_power():.12g}")
    return 0


def cmd_plot(args):
    bounds = {name: _read_as(_real, getattr(args, name), f"--{name}")
              for name in ("xmin", "xmax", "ymin", "ymax") if getattr(args, name) is not None}
    for axis in "xy":
        lo, hi = bounds.get(f"{axis}min"), bounds.get(f"{axis}max")
        if lo is not None and hi is not None and lo >= hi:
            raise ConfigError(f"--{axis}min {lo:g} must be below --{axis}max {hi:g}")
    _write(args.output, render_svg(parse_csv(_read(args.csv)), **bounds))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="ldfeedback",
                                     description="orthogonal LD space-time codes with feedback")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run an experiment config and write a CSV of curves")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", default=None, help="override the config/environment seed")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run numeric certificates for the library's claims")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--seed", default=None)
    p.add_argument("--mutate", action="store_true",
                   help="negative control: corrupt the goc construction on purpose")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("construct", help="emit a dispersion set as a text file")
    p.add_argument("--kind", choices=["rank-one", "statistical"], required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--nc", required=True)
    p.add_argument("--nt", required=True)
    p.add_argument("--mode", default="0", help="beam direction index for rank-one")
    p.add_argument("--lambdas", default=None, help="comma-separated diagonal for statistical")
    p.add_argument("--seed", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("plot", help="render a simulate CSV as an SVG line chart")
    p.add_argument("csv")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--xmin", default=None)
    p.add_argument("--xmax", default=None)
    p.add_argument("--ymin", default=None)
    p.add_argument("--ymax", default=None)
    p.set_defaults(fn=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (OSError, ConfigError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
