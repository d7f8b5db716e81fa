"""Command-line entry point.

Verbs: ``ingest`` (prices -> RV CSV), ``run`` (full experiment),
``simulate`` (synthetic price data), ``gradcheck`` (RNN gradient
diagnostic).  Exit codes: 0 success, 2 config error, 3 data error,
4 model error: all models failed, or ``gradcheck`` found a gradient error
of 1e-4 or more.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import synth
from .errors import ConfigError, DataError, FitError
from .rnn import RnnConfig, rnn_gradient_check
from .runner import CONFIG_KEYS, parse_config, run_experiment
from .series import log_returns, read_price_csv, realized_volatility, write_price_csv, write_rv_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_MODEL = 4


def _build_parser():
    parser = argparse.ArgumentParser(prog="volforge",
                                     description="Realized-volatility forecasting toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb in ("ingest", "run", "simulate"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="flat key=value experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
        if verb == "run":
            p.add_argument("--models", default=None,
                           help="comma list overriding the config's enabled models")

    g = sub.add_parser("gradcheck")
    g.add_argument("--cell", choices=("lstm", "gru", "both"), default="both")
    g.add_argument("--window", type=int, default=3)
    g.add_argument("--units", type=int, default=5)
    g.add_argument("--seed", type=int, default=0)
    return parser


def _load_config(args):
    config = parse_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "models", None):
        config = replace(config, models=CONFIG_KEYS["models"][1](args.models))
    return config


def _out_dir(out) -> Path:
    """The --out directory, created if missing; one that cannot be a
    directory (an existing file, say) is a ConfigError."""
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot use as a directory ({exc.strerror})") from exc
    return out


def cmd_ingest(args) -> int:
    config = _load_config(args)
    if config.source != "csv":
        raise ConfigError("ingest requires data.source=csv")
    prices = read_price_csv(config.csv_path)
    rv = realized_volatility(log_returns(prices), config.aggregation)
    out = _out_dir(args.out)
    write_rv_csv(rv, out / "rv.csv")
    print(f"wrote {len(rv)} rv buckets to {out / 'rv.csv'}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load_config(args)
    out = _out_dir(args.out)  # before any fit, so a bad --out costs no model time
    report_v, report_t, manifest = run_experiment(config, out_dir=out)
    print(f"config hash {manifest.config_hash[:12]}; "
          f"{len(report_t.rows)} models, {len(report_t.failures)} failures; "
          f"reports in {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args)
    if config.source != "synth":
        raise ConfigError("simulate requires data.source=synth")
    source = synth.build_source(config.synth_kind, dict(config.synth_params), config.seed)
    out = _out_dir(args.out)
    if config.synth_kind == "gbm":
        write_price_csv(source, out / "prices.csv")
        print(f"wrote {len(source)} prices to {out / 'prices.csv'}")
    else:
        write_rv_csv(source, out / "rv.csv")
        print(f"wrote {len(source)} rv buckets to {out / 'rv.csv'}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cells = ("lstm", "gru") if args.cell == "both" else (args.cell,)
    passed = True
    for cell in cells:
        cfg = RnnConfig(cell=cell, window=args.window, units=args.units,
                        seed=args.seed, epochs=1)
        err = rnn_gradient_check(cfg)
        # a NaN error is not below the bound, so it fails
        passed = passed and err < 1e-4
        print(f"{cell}: max relative gradient error {err:.3e}")
    print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_MODEL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"ingest": cmd_ingest, "run": cmd_run,
                "simulate": cmd_simulate, "gradcheck": cmd_gradcheck}
    try:
        return handlers[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FitError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    raise SystemExit(main())
