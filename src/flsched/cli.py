"""Command line entry point.

Subcommands: run, sweep-v, compare, calibrate, verify-bounds.
Exit codes, each from one error class of `errors`: 0 success; 2 ConfigError,
a malformed config or a bad number on the command line (a --v-grid entry or
--grid-step that is not finite and positive, a --grid-step that leaves a
one-point share grid, a non-finite --target-avg or a negative --seed); 3
Infeasible, an instance that cannot be solved as asked, or NoConverge, a
bandwidth solve that did not converge; 4 VerificationError, a run that broke
a checked rule, or a bound that verify-bounds finds broken.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import harness
from .errors import ConfigError, Infeasible, NoConverge, VerificationError
from .scheduler import POLICY_KINDS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4

# The fixed case `verify-bounds` checks: small enough for the exhaustive lookahead.
VERIFY_CASE = harness.HarnessConfig(overrides={
    "num_clients": 3, "num_rounds": 4, "frame_len": 2, "num_frames": 2, "min_ratio": 0.1})


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value!r}")
    return value


def _positive(flag: str, value: float) -> float:
    if not _finite(flag, value) > 0:
        raise ConfigError(f"{flag} must be positive, got {value!r}")
    return value


def _parse_v_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --v-grid value: {text!r}") from exc
    if not grid:
        raise ConfigError("--v-grid must list at least one value")
    return [_positive("--v-grid", v) for v in grid]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flsched",
                                     description="Federated scheduling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one policy, write per-round CSV + summary")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--policy", choices=POLICY_KINDS)
    run.add_argument("--out", help="CSV output path (default: from config)")

    sweep = sub.add_parser("sweep-v", help="one PEDPC run per penalty weight")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--v-grid", required=True,
                       help="comma-separated penalty weights, e.g. 0.001,0.01,0.1,1,10")

    comp = sub.add_parser("compare", help="calibrate and compare all five policies")
    comp.add_argument("--config", required=True)
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--target-avg", type=float, default=40.0)

    cal = sub.add_parser("calibrate", help="bisect a policy knob to a target avg selection")
    cal.add_argument("--config", required=True)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--policy", required=True, choices=("PEDPC", "Random", "FedCS"))
    cal.add_argument("--target-avg", type=float, required=True)

    ver = sub.add_parser("verify-bounds",
                         help="check the cost and energy bounds at tiny scale")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--v-grid", default="0.1,1,10")
    ver.add_argument("--grid-step", type=float, default=0.05)
    return parser


def _cmd_run(args) -> int:
    policy = None
    if args.policy:
        cfg = harness.load_config(args.config)
        try:
            policy = dataclasses.replace(cfg.policy, kind=args.policy)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    summary = harness.run_experiment(args.config, policy=policy, seed=args.seed,
                                     output_path=args.out)
    doc = summary.to_dict()
    doc.pop("per_client_totals_j")
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grid = _parse_v_grid(args.v_grid)
    summaries = harness.sweep_v(args.config, grid, seed=args.seed)
    for v, s in zip(grid, summaries):
        print(f"V={v:g} avg_selected={s.avg_selected:.2f} "
              f"total_latency_s={s.total_latency:.6g} "
              f"energy_overflow_j={s.energy_overflow:.6g}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    target = _finite("--target-avg", args.target_avg)
    for knob, s in harness.compare_policies(args.config, seed=args.seed, target_avg=target):
        knob = "-" if knob is None else f"{knob:.6g}"
        print(f"{s.policy:<10} knob={knob:<12} avg_selected={s.avg_selected:7.2f} "
              f"total_latency_s={s.total_latency:12.6g} "
              f"energy_overflow_j={s.energy_overflow:12.6g} "
              f"total_phi={s.total_phi:10.6g}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    target = _finite("--target-avg", args.target_avg)
    knob = harness.calibrate(args.config, args.policy, target, seed=args.seed)
    print(f"{knob:.12g}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    grid = _parse_v_grid(args.v_grid)
    grid_step = _positive("--grid-step", args.grid_step)
    reports = harness.verify_bounds(VERIFY_CASE, args.seed, grid, grid_step)
    for report in reports:
        status = "ok" if report.all_ok else "FAIL"
        print(f"V={report.penalty_weight:g} lhs={report.lhs_cost:.6g} "
              f"lookahead={report.lookahead_opt:.6g} rhs={report.theorem2_rhs:.6g} "
              f"cost_bound={report.theorem2_ok} "
              f"energy_bound={bool(report.energy_bound_ok.all())} [{status}]")
    return EXIT_OK if all(report.all_ok for report in reports) else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep-v": _cmd_sweep,
        "compare": _cmd_compare,
        "calibrate": _cmd_calibrate,
        "verify-bounds": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NoConverge as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
