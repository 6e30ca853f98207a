"""Command-line entry point: train, eval, sweep, and replay subcommands."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import config as cfgmod
from . import harness
from .neural import load_checkpoint


def _run_config(args, **overrides) -> cfgmod.RunConfig:
    """The ``--config`` file, or the desk profile without one, with each
    override that is not ``None`` applied."""
    cfg = (cfgmod.desk_profile() if args.config is None
           else cfgmod.load_config(args.config))
    return replace(cfg, **{k: v for k, v in overrides.items()
                           if v is not None})


def _out_path(out: str) -> Path:
    """``--out`` of eval, sweep and replay, checked before any episode."""
    if not out:
        raise ValueError("--out must not be empty")
    return Path(out)


def _cmd_train(args) -> int:
    cfg = _run_config(args, mode=args.mode, seed=args.seed,
                      episodes=args.episodes)
    _, logs = harness.train(cfg, args.out)
    escaped = sum(1 for log in logs if log.outcome == "escaped")
    print(f"trained {len(logs)} episodes ({cfg.mode}), "
          f"{escaped} escapes, outputs in {args.out}")
    return 0


def _cmd_eval(args) -> int:
    out = _out_path(args.out)
    cfg = _run_config(args, seed=args.seed)
    bundle = (load_checkpoint(args.checkpoint)
              if args.checkpoint is not None else None)
    policy = harness.make_policy(args.policy, cfg, bundle)
    report = harness.evaluate_monte_carlo(policy, cfg, episodes=args.episodes)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_eval_episodes(out / "eval_episodes.csv", report)
    harness.write_eval_summary(out / "eval_summary.csv", report)
    overall = report.overall
    print(f"escape%={overall.escape_pct:.9g} "
          f"mean_escape_steps={overall.mean_escape_steps:.9g} "
          f"mean_reward={overall.mean_reward:.9g} ({overall.episodes} episodes)")
    print(f"wrote {out / 'eval_episodes.csv'} and {out / 'eval_summary.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    out = _out_path(args.out)
    cfg = _run_config(args, seed=args.seed)
    policy = harness.make_policy("checkpoint", cfg,
                                 load_checkpoint(args.checkpoint))
    grid = harness.load_grid(args.grid)
    summaries = harness.sweep(policy, cfg, grid, episodes=args.episodes)
    harness.write_sweep_csv(out, grid, summaries)
    for (n, v_ratio, r_ratio), s in zip(grid, summaries):
        print(f"n={n} V'={v_ratio:g} R'={r_ratio:g} "
              f"escape%={s.escape_pct:.9g} mean_steps={s.mean_escape_steps:.9g}")
    print(f"wrote {out}")
    return 0


def _cmd_replay(args) -> int:
    out = _out_path(args.out if args.out is not None
                    else f"trajectory_seed{args.seed}.csv")
    cfg = _run_config(args)  # --seed is the episode's seed, not cfg.seed
    policy = harness.make_policy("checkpoint", cfg,
                                 load_checkpoint(args.checkpoint))
    rows = harness.replay(policy, args.seed, cfg, out)
    print(f"wrote {rows} rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cep",
        description="Confinement-escape simulator and evader training toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train an evader policy")
    p_train.add_argument("--mode", choices=cfgmod.MODES)
    p_train.add_argument("--config", help="key-value config file")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--out", default="runs/out",
                         help="output directory (default: %(default)s)")
    p_train.add_argument("--episodes", type=int)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="Monte-Carlo evaluation")
    p_eval.add_argument("--checkpoint")
    p_eval.add_argument("--episodes", type=int,
                        help="default: eval_episodes of the config")
    p_eval.add_argument("--config")
    p_eval.add_argument("--policy", default="checkpoint",
                        choices=harness.POLICY_KINDS)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--out", default="eval", help="default: %(default)s")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="environment parameter sweep")
    p_sweep.add_argument("--checkpoint", required=True)
    p_sweep.add_argument("--grid", required=True,
                         help="CSV with n_pursuers,v_ratio,r_ratio")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--episodes", type=int)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out", default="sweep.csv",
                         help="default: %(default)s")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_replay = sub.add_parser("replay", help="write one episode trajectory")
    p_replay.add_argument("--checkpoint", required=True)
    p_replay.add_argument("--seed", type=int, required=True)
    p_replay.add_argument("--config")
    p_replay.add_argument("--out", help="default: trajectory_seed<SEED>.csv")
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  A user error (a bad value, a missing file) prints
    ``cep: error: ...`` to stderr and returns 2, as argparse does."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"cep: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
