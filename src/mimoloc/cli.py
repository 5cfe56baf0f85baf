"""Command line front end for the evaluation harness.

Every subcommand reads the same JSON experiment configuration (or the
built-in defaults) and a handful of override flags. ``build-world``
builds and trains a world through ``build_world`` and writes what it
trained (the database, the checkpoints, the thresholds and the effective
config); ``run`` builds a world the same way and evaluates its scenario
in it; ``report`` summarizes a run's report.json. Artifacts land in the
--out directory under fixed names.

Exit codes: 0 on success, 2 for configuration problems, 3 for runtime
failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import ConfigError, FormatError, MimolocError
from .experiment import (
    LOCALIZERS,
    PREDICTORS,
    SCENARIOS,
    ExperimentConfig,
    build_world,
    load_config,
    run_experiment,
    save_config,
)
from .fingerprint import save_db
from .neural import save_model
from .predictor import save_predictor

SUBCOMMANDS = ("build-world", "run", "report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimoloc",
        description="CSI-fingerprint localization pipeline, desk scale.",
    )
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", metavar="PATH",
                        help="JSON experiment configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", metavar="DIR", default="mimoloc-out",
                        help="artifact directory (default: %(default)s)")
    parser.add_argument("--scenario", choices=SCENARIOS,
                        help="override the distortion scenario")
    parser.add_argument("--localizer", choices=LOCALIZERS,
                        help="override the localizer choice")
    parser.add_argument("--predictor", choices=PREDICTORS,
                        help="override the predictor kind")
    return parser


def _load_effective_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for name in ("seed", "scenario", "localizer", "predictor"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        config = dataclasses.replace(config, **overrides)
    config.validate()
    return config


def _save_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_build_world(config: ExperimentConfig, out: str) -> None:
    """Build ``config``'s world and write each trained artifact to ``out``."""
    world = build_world(config, log=print)
    losses = world.train_losses

    def write(name, save, obj, detail):
        path = os.path.join(out, name)
        save(obj, path)
        print(f"wrote {path}: {detail}")

    def trained(name):
        return (f"final loss {losses[name][-1]:.6f} "
                f"after {len(losses[name])} epochs")

    db = world.db
    write("db.adpf", save_db, db, f"{len(db.positions)} fingerprints, "
          f"{int(np.sum(~db.zero_flags))} identifiable")
    for name, localizer in world.localizers.items():
        write(f"localizer_{name}.ckpt", save_model, localizer.model,
              trained(name))
    if config.predictor == "conv-recurrent":
        write("predictor.ckpt", save_predictor, world.predictor,
              trained("predictor"))
    thresholds = dataclasses.asdict(world.thresholds)
    write("thresholds.json", _save_json, thresholds,
          ", ".join(f"{k}={v:.4f}" for k, v in thresholds.items()))
    write("config.json", save_config, config, "the effective configuration")


def cmd_run(config: ExperimentConfig, out: str) -> None:
    """Run the experiment, then print its summary as ``report`` does."""
    run_experiment(config, out_dir=out, log=print)
    print(f"report written to {out}")
    cmd_report(out)


def cmd_report(out: str) -> None:
    path = os.path.join(out, "report.json")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON
            raise FormatError(f"{path}: not JSON: {exc}") from exc
    try:
        config, det = report["config"], report["detection"]
        # an undefined ratio (nothing flagged, nothing distorted) is null
        precision, recall = (("n/a" if det[k] is None else f"{det[k]:.3f}")
                             for k in ("precision", "recall"))
        lines = [
            f"config seed {config['seed']}, scenario {config['scenario']}, "
            f"environment {config['environment']}",
            f"detection precision={precision} recall={recall} "
            f"(tp={det['tp']} fp={det['fp']} fn={det['fn']} tn={det['tn']})",
        ]
        lines += [f"{method:16s} median distorted-frame rmse {value:.3f} m"
                  for method, value in
                  sorted(report["median_distorted_rmse_m"].items())]
        lines.append(f"runtime {report['runtime_seconds']:.1f} s")
    except (LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: not a run report: {exc!r}") from exc
    print("\n".join(lines))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.out)
            return 0
        config = _load_effective_config(args)
        os.makedirs(args.out, exist_ok=True)
        handler = {"build-world": cmd_build_world, "run": cmd_run}
        handler[args.command](config, args.out)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # e.g. --out names a file, report.json a folder
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MimolocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
