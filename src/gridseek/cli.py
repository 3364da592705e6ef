"""Command-line front end.

Subcommands: ``gen-scene`` writes a sampled scene (plus its target map),
``run`` plays one episode and writes its step trace, ``suite`` runs a
policy x budget matrix and writes the aggregate table, ``scores`` dumps the
per-location score field at each measurement, and ``validate`` runs the
built-in oracle suites. Human-readable progress goes to standard error;
machine-readable output goes to files only. Exit codes: 0 success, 1
validation or configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from gridseek.bench import (
    FIELD_HEADER,
    ConfigError,
    ExperimentConfig,
    build_prior_and_scene,
    csv_text,
    read_value,
    run_episode,
    run_suite,
    scene_generator,
    write_suite_csv,
)
from gridseek.env import _target_path, save_scene
from gridseek.validate import run_all

__all__ = ["main"]


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports bad flags through exit code 1 instead of 2."""

    def error(self, message):
        raise _CliArgumentError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_config(path: str, args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(path)
    if getattr(args, "policy", None):
        cfg = replace(cfg, policy=replace(cfg.policy, kind=args.policy))
    if getattr(args, "budget", None) is not None:
        cfg = replace(cfg, budget=args.budget)
    return cfg


def _check_outputs(args) -> None:
    """Refuse, before any work, an output path that names the config file or another output."""
    paths = {"--config": args.config, "--out": args.out}
    if getattr(args, "trace", None):
        paths["--trace"] = args.trace
    if args.command == "gen-scene":
        paths["--out's target map"] = _target_path(Path(args.out))
    flags = {}
    for flag, path in paths.items():
        other = flags.setdefault(Path(path).resolve(), flag)
        if other != flag:
            raise _CliArgumentError(f"{other} and {flag} both name {path}; "
                                    f"{flag} would overwrite it")


def _cmd_gen_scene(args) -> int:
    cfg = _load_config(args.config, args)
    _, scene = build_prior_and_scene(cfg, scene_generator(args.seed))
    save_scene(scene, args.out)
    _log(f"scene with {scene.n_target_locations} target locations -> {args.out}")
    return 0


def _field_dump(path, step=None):
    """A ``run_episode`` field sink collecting score-field CSV rows, and its writer.

    With ``step`` set, only that measurement's field is kept.
    """
    rows = []

    def sink(t, tau, field):
        if step is None or t == step:
            rows.extend((t, tau, *row) for row in field.csv_rows())

    def write():
        Path(path).write_text(csv_text(FIELD_HEADER, rows))
        _log(f"score fields -> {path}")

    return sink, write


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args)
    sink, write_fields = _field_dump(args.trace) if args.trace else (None, None)
    _log(f"running episode seed={args.seed} policy={cfg.policy.kind}")
    result = run_episode(cfg, args.seed, field_sink=sink)
    result.write_trace(args.out)
    _log(f"collected {result.r_total:.4f} over {len(result.records)} measurements "
         f"(st={result.sr_term:.4f}) -> {args.out}")
    if write_fields is not None:
        write_fields()
    return 0


def _cmd_suite(args) -> int:
    doc = ExperimentConfig.read_doc(args.config)
    policies = read_value(list[str] | None, doc.pop("policies", None), "policies")
    budgets = read_value(list[int] | None, doc.pop("budgets", None), "budgets")
    cfg = ExperimentConfig.from_dict(doc)
    n_cells = (len(policies or [cfg.policy.kind]) * len(budgets or [cfg.budget]))
    _log(f"suite: {n_cells} cells x {len(cfg.seeds)} seeds, jobs={args.jobs}")
    rows, failures = run_suite(cfg, policies=policies, budgets=budgets,
                               jobs=args.jobs)
    write_suite_csv(rows, args.out)
    _log(f"{len(rows)} rows -> {args.out}")
    for kind, budget, seed, msg in failures:
        _log(f"FAILED policy={kind} B={budget} seed={seed}: {msg}")
    return 2 if failures else 0


def _cmd_scores(args) -> int:
    cfg = _load_config(args.config, args)
    if args.step is not None and not 0 <= args.step < cfg.budget:
        raise _CliArgumentError(f"--step {args.step} is outside the measurement steps "
                                f"0..{cfg.budget - 1}")
    sink, write_fields = _field_dump(args.out, args.step)
    _log(f"running episode seed={args.seed} for score-field dump")
    run_episode(cfg, args.seed, field_sink=sink)
    write_fields()
    return 0


def _cmd_validate(args) -> int:
    all_ok = True
    for name, ok, detail in run_all():
        _log(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="gridseek", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=out_required, help="output file path")

    p = sub.add_parser("gen-scene", help="sample a scene and write it as CSV")
    common(p)
    p.set_defaults(func=_cmd_gen_scene)

    p = sub.add_parser("run", help="play one episode and write its trace CSV")
    common(p)
    p.add_argument("--policy", help="override policy kind")
    p.add_argument("--budget", type=int, help="override measurement budget")
    p.add_argument("--trace", help="also dump per-measurement score fields")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("suite", help="run a policy x budget matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help="parallel episodes")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("scores", help="dump per-location score fields")
    common(p)
    p.add_argument("--policy", help="override policy kind")
    p.add_argument("--budget", type=int, help="override measurement budget")
    p.add_argument("--step", type=int, help="only this measurement step")
    p.set_defaults(func=_cmd_scores)

    p = sub.add_parser("validate", help="run the built-in oracle suites")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliArgumentError as exc:
        _log(f"error: {exc}")
        return 1
    try:
        if args.command != "validate":
            _check_outputs(args)
        return args.func(args)
    except (_CliArgumentError, ConfigError, FileNotFoundError, ValueError) as exc:
        _log(f"error: {exc}")
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        _log(f"runtime failure: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
