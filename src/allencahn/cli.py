"""Command-line front end.

Three subcommands: `convergence` runs a configured study and writes CSV
tables, `trace` records one sample path of one cell step by step, and
`validate` runs the built-in invariant suites.

Exit codes: 0 success, 1 validation-suite failure, 2 configuration
error, 3 study error (divergence or runaway partition).  A configuration
error is raised before anything is written; once a run starts, its
manifest and resolved config are written even when the study fails midway.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from .config import (
    PRESETS,
    RunManifest,
    load_config,
    load_preset,
    parse_delta_token,
    render_config,
)
from .errors import BlowUpError, ConfigError, RunawayPartitionError, StudyError
from .experiments import (
    convergence_study,
    initial_state,
    make_scheme,
    te_fallback_step,
    write_cells_csv,
    write_slopes_csv,
    write_trace_csv,
)
from .noise import NoiseSpec, NoiseStream
from .stepping import integrate


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="study config file (INI)")
    p.add_argument(
        "--preset",
        metavar="NAME",
        help=f"built-in config, one of: {', '.join(PRESETS)}",
    )
    p.add_argument(
        "--out", metavar="DIR", default="out", help="output directory (default: out)"
    )
    p.add_argument("--seed", type=int, metavar="U64", help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allencahn",
        description="Adaptive and tamed exponential integrators for the "
        "stochastic Allen-Cahn equation: convergence studies, traces, "
        "and invariant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser(
        "convergence", help="run a temporal or spatial error study and write CSVs"
    )
    _add_common(conv)
    conv.add_argument(
        "--threads", type=int, metavar="N", help="worker processes (default: config)"
    )

    trace = sub.add_parser(
        "trace", help="record one sample path of one (scheme, law, delta) cell"
    )
    _add_common(trace)
    trace.add_argument("--path", type=int, default=0, help="sample-path index")
    trace.add_argument("--scheme", help="scheme kind (default: first in config)")
    trace.add_argument("--law", help="law token (default: first in config)")
    trace.add_argument(
        "--delta", help="delta level, e.g. 2^-4 (default: first in config)"
    )

    sub.add_parser("validate", help="run the built-in invariant suites")
    return parser


def _resolve_config(args):
    if bool(args.config) == bool(args.preset):
        raise ConfigError("give exactly one of --config PATH or --preset NAME")
    if args.config:
        cfg = load_config(args.config)
        source = args.config
    else:
        cfg = load_preset(args.preset)
        source = f"preset:{args.preset}"
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.command == "convergence" and args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg, source


def _run(args, cfg, source: str, work) -> int:
    """The protocol of a run: the resolved config, the command's work, a manifest.

    `work(out_dir, outputs)` writes the command's files, appending each
    name to `outputs` once written, and returns the manifest detail.  A
    study error is exit 3; the manifest is written whatever happens.
    """
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=args.command, config_path=source, seed=cfg.seed, started=time.time()
    )
    outputs = []
    (out_dir / "config_resolved.ini").write_text(render_config(cfg), encoding="utf-8")
    outputs.append("config_resolved.ini")
    try:
        manifest.detail = work(out_dir, outputs)
        manifest.status = "complete"
        return 0
    except (StudyError, RunawayPartitionError, BlowUpError) as exc:
        manifest.status = "failed"
        manifest.detail = str(exc)
        print(f"study error: {exc}", file=sys.stderr)
        return 3
    finally:
        manifest.outputs = tuple(outputs)
        manifest.finished = time.time()
        (out_dir / "manifest.txt").write_text(manifest.render(), encoding="utf-8")


def cmd_convergence(args) -> int:
    cfg, source = _resolve_config(args)

    def work(out_dir, outputs):
        result = convergence_study(cfg)
        table = "spatial.csv" if cfg.kind == "spatial" else "errors.csv"
        write_cells_csv(out_dir / table, result)
        outputs.append(table)
        fits = [("slopes.csv", result.slopes)]
        if cfg.kind == "temporal":
            fits.append(("slopes_delta.csv", result.slopes_delta))
        for name, rows in fits:
            write_slopes_csv(out_dir / name, rows)
            outputs.append(name)
        report = result.stability
        if report.exceeded or report.divergent_samples:
            return (
                f"divergent_samples={report.divergent_samples} "
                f"max_sup={report.max_sup!r} ceiling={report.ceiling!r}"
            )
        return ""

    return _run(args, cfg, source, work)


def cmd_trace(args) -> int:
    cfg, source = _resolve_config(args)
    scheme_kind = args.scheme or cfg.schemes[0]
    law_token = args.law or cfg.laws[0]
    delta = parse_delta_token(args.delta) if args.delta else cfg.deltas[0]
    # The cell must be one the config's own study could run.
    dataclasses.replace(cfg, schemes=(scheme_kind,), laws=(law_token,), deltas=(delta,))
    # A spatial study's traceable path is its reference: spatial_reference
    # modes under the exact-convolution noise form, on sample path --path.
    spatial = cfg.kind == "spatial"
    n = cfg.spatial_reference if spatial else cfg.n_modes
    spec = NoiseSpec(cfg.noise_kind, n, cfg.noise_scale)
    try:
        stream = NoiseStream(spec, cfg.seed, args.path)
    except ValueError as exc:
        raise ConfigError(f"--path {args.path}: {exc}") from exc

    # A te trace takes the step the study's te cell takes when no hybrid
    # step adapts.
    te_h = te_fallback_step(cfg, delta) if scheme_kind == "te" else None
    scheme = make_scheme(cfg, scheme_kind, law_token, delta, te_h)

    def work(out_dir, outputs):
        result = integrate(
            scheme,
            initial_state(cfg.initial, n),
            cfg.horizon,
            stream,
            cfg.drift,
            step_ceiling=cfg.step_ceiling,
            collect_records=True,
            exact_convolution=spatial,
        )
        write_trace_csv(out_dir / "trace.csv", result.records, args.path)
        outputs.append("trace.csv")
        h = f" h={te_h!r}" if te_h is not None else ""
        return (
            f"cell=({scheme_kind}, {law_token}, {delta!r}){h} "
            f"steps={result.summary.steps}"
        )

    return _run(args, cfg, source, work)


def cmd_validate(_args) -> int:
    from .validation import run_validation

    ok, results = run_validation()
    for r in results:
        print(r.line)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "convergence":
            return cmd_convergence(args)
        if args.command == "trace":
            return cmd_trace(args)
        return cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
