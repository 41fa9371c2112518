"""Command-line entry point.

Subcommands: simulate (experiment config -> CSV), verify (property suites),
construct (dispersion-set text files), plot (CSV -> SVG line chart).
Exit codes: 0 success, 1 failed verification, 2 usage/config error,
3 infeasible construction.
"""

import argparse
import os
import sys

import numpy as np

from . import codebook, dispersion, simengine, verify
from .channel import custom_model, iid_model, v4_model
from .errors import ConfigError, InfeasibleError, PreconditionError
from .infotheory import Constellation
from .matkit import Rng

SEED_ENV_VAR = "LDFEEDBACK_SEED"
CSV_HEADER = "snr_db,scheme,mi_bits_per_use,stderr,trials"

KNOWN_KEYS = {
    "model", "nt", "nr", "nc", "k", "b", "n1", "n2", "vmask",
    "snr_db", "trials", "seed", "constellation", "schemes",
    "rank_two_sets", "opt_samples",
}

SCHEME_LABELS = {
    "perfect", "statistical", "statistical-beamforming",
    "quantized-rank1-best", "quantized-rank2-best",
}


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
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    return values


def _get_int(values, key, default=None):
    if key not in values:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(values[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected an integer, got {values[key]!r}") from exc


def _get_float_list(values, key):
    if key not in values:
        raise ConfigError(f"missing required key {key!r}")
    try:
        return [float(t) for t in values[key].split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers") from exc


def resolve_seed(config_values, cli_seed):
    """Flag beats config beats environment beats the built-in default."""
    if cli_seed is not None:
        return int(cli_seed)
    if "seed" in config_values:
        return _get_int(config_values, "seed")
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return 1


def build_experiment(values, cli_seed=None):
    """Turn parsed config values into a SimConfig plus codebook split settings."""
    nt = _get_int(values, "nt")
    nr = _get_int(values, "nr")
    nc = _get_int(values, "nc")
    k = _get_int(values, "k", default=nc)
    preset = values.get("model", "iid")
    if "vmask" in values:
        flat = _get_float_list(values, "vmask")
        if len(flat) != nt * nr:
            raise ConfigError(f"vmask needs {nt * nr} entries, got {len(flat)}")
        model = custom_model(np.array(flat).reshape(nr, nt))
    elif preset == "iid":
        model = iid_model(nt, nr)
    elif preset == "v4":
        model = v4_model()
        if (nt, nr) != (4, 4):
            raise ConfigError("the v4 preset is a 4x4 model")
    else:
        raise ConfigError(f"unknown model preset {preset!r}")
    schemes = [s.strip() for s in values.get("schemes", "").split(",") if s.strip()]
    if not schemes:
        raise ConfigError("schemes must name at least one scheme")
    for s in schemes:
        if s not in SCHEME_LABELS:
            raise ConfigError(f"unknown scheme {s!r}")
    try:
        constellation = Constellation.from_name(values.get("constellation", "gaussian"))
    except (PreconditionError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    config = simengine.SimConfig(
        model=model,
        snr_grid_db=_get_float_list(values, "snr_db"),
        trials=_get_int(values, "trials"),
        seed=resolve_seed(values, cli_seed),
        constellation=constellation,
        k=k,
        nc=nc,
        schemes=[s for s in schemes if s in ("perfect", "statistical", "statistical-beamforming")],
        opt_samples=_get_int(values, "opt_samples", default=5000),
    )
    split = {
        "b": _get_int(values, "b", default=2),
        "n1": _get_int(values, "n1", default=4),
        "n2": _get_int(values, "n2", default=1),
        "rank_two_sets": _get_int(values, "rank_two_sets", default=50),
        "rank1": "quantized-rank1-best" in schemes,
        "rank2": "quantized-rank2-best" in schemes,
    }
    if split["n1"] * split["n2"] != 2 ** split["b"]:
        raise ConfigError(f"n1*n2 = {split['n1'] * split['n2']} must equal 2^b = {2 ** split['b']}")
    return config, split


def simulate_curves(config, split):
    """Run all configured schemes on one shared trial batch."""
    config.validate()
    batch = simengine.draw_trials(config.model, config.trials, config.seed)
    curves = simengine.run(config, batch=batch)
    if split["rank1"] or split["rank2"]:
        unitaries = simengine.default_unitaries(config, split["n1"])
        if split["rank1"]:
            _, points = simengine.best_rank_one_codebook(
                config, split["b"], split["n1"], split["n2"], unitaries=unitaries, batch=batch
            )
            curves.extend(points)
        if split["rank2"]:
            best, _ = simengine.rank_two_tournament(
                config, split["b"], split["n1"], split["n2"], split["rank_two_sets"],
                unitaries=unitaries, batch=batch,
            )
            curves.extend(best)
    return curves


def curves_to_csv(curves):
    lines = [CSV_HEADER]
    for p in sorted(curves, key=lambda p: (p.scheme, p.snr_db)):
        lines.append(f"{_fmt(p.snr_db)},{p.scheme},{_fmt(p.mi_bits_per_use)},{_fmt(p.stderr)},{p.trials}")
    return "\n".join(lines) + "\n"


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
        try:
            rows.append((float(parts[0]), parts[1], float(parts[2]), float(parts[3]), int(parts[4])))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad field: {exc}") from exc
    if not rows:
        raise ConfigError("CSV has no data rows")
    return rows


# fixed palette, assigned to schemes in sorted label order
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"]


def render_svg(rows, xmin=None, xmax=None, ymin=None, ymax=None):
    """Deterministic 800x600 line chart, one polyline per scheme."""
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
        parts.append(f'<text x="{width - right + 50}" y="{ly}" font-size="12">{scheme}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_simulate(args):
    try:
        with open(args.config) as f:
            values = parse_config_text(f.read(), path=args.config)
        config, split = build_experiment(values, cli_seed=args.seed)
        curves = simulate_curves(config, split)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    try:
        with open(args.output, "w") as f:
            f.write(curves_to_csv(curves))
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args):
    if args.suite == "all":
        names = list(verify.SUITES)
    elif args.suite in verify.SUITES:
        names = [args.suite]
    else:
        print(f"error: unknown suite {args.suite!r}; known: all, {', '.join(verify.SUITES)}",
              file=sys.stderr)
        return 2
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_suites(names, seed=seed, mutate=args.mutate)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_construct(args):
    rng = Rng(1 if args.seed is None else args.seed, 0)
    try:
        if args.kind == "rank-one":
            u = np.zeros(args.nt, dtype=complex)
            if not 0 <= args.mode < args.nt:
                raise PreconditionError(f"mode {args.mode} out of range for nt = {args.nt}")
            u[args.mode] = 1.0
            dset = dispersion.rank_one_set(u, args.k, args.nc)
        else:
            if args.lambdas is None:
                raise PreconditionError("statistical kind needs --lambdas")
            lam = np.array([float(t) for t in args.lambdas.split(",")])
            if lam.size != args.nt:
                raise PreconditionError(f"--lambdas needs {args.nt} entries")
            dset = dispersion.statistical_set(lam, args.k, args.nc, rng)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.output, "w") as f:
            f.write(dispersion.to_text(dset))
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    _, resid = dispersion.check_goc(dset)
    print(f"goc_residual = {resid:.6e}")
    print(f"total_power = {dset.total_power():.12g}")
    return 0


def cmd_plot(args):
    try:
        with open(args.csv) as f:
            rows = parse_csv(f.read())
        svg = render_svg(rows, xmin=args.xmin, xmax=args.xmax, ymin=args.ymin, ymax=args.ymax)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.output, "w") as f:
            f.write(svg)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="ldfeedback",
                                     description="orthogonal LD space-time codes with feedback")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run an experiment config and write a CSV of curves")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config/environment seed")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run numeric certificates for the library's claims")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mutate", action="store_true",
                   help="negative control: corrupt the goc construction on purpose")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("construct", help="emit a dispersion set as a text file")
    p.add_argument("--kind", choices=["rank-one", "statistical"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nc", type=int, required=True)
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--mode", type=int, default=0, help="beam direction index for rank-one")
    p.add_argument("--lambdas", default=None, help="comma-separated diagonal for statistical")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("plot", help="render a simulate CSV as an SVG line chart")
    p.add_argument("csv")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--ymin", type=float, default=None)
    p.add_argument("--ymax", type=float, default=None)
    p.set_defaults(fn=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
