"""Command line interface.

Subcommands:

* run    -- full experiment from a config file, all N values
* solve  -- single parareal run (one N) with the same artifact set
* basis  -- build and export the multiscale space only
* check  -- invariant diagnostic suite; exit code 3 on any failure

Without --config the built-in one-channel default is used (the check
subcommand uses a faster reduced setup). --set section.key=value overrides
individual entries. Exit codes: 0 success, 1 runtime failure, 2 bad
configuration, 3 failed checks.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiment as expmod
from .allatonce import TimeMatrixB
from .experiment import (
    ConfigError,
    ExperimentError,
    build_pipeline,
    check_config,
    config_to_parser,
    example1_config,
    run_experiment,
    run_single,
)
from .parareal import build_fine_propagator
from .stepping import project_initial
from .util import save_matrix_txt


def _load_with_overrides(args, default_cfg) -> "expmod.ExperimentConfig":
    if args.config:
        parser = expmod.read_config_file(args.config)
    else:
        parser = config_to_parser(default_cfg)
    for item in args.set or []:
        try:
            key, value = item.split("=", 1)
            section, option = key.split(".", 1)
        except ValueError as exc:
            raise ConfigError(f"--set expects section.key=value, got {item!r}") from exc
        section, option = section.strip(), option.strip()
        try:
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, option, value.strip())
        except ValueError as exc:  # a stray '%' or the section DEFAULT
            raise ConfigError(f"--set {item!r}: {exc}") from exc
    # config_from_parser rejects unknown sections and options, from --set too
    return expmod.config_from_parser(parser)


def cmd_run(args) -> int:
    cfg = _load_with_overrides(args, example1_config())
    report = run_experiment(cfg, args.out)
    print(f"wrote {len(report.files)} files to {args.out}")
    for r in report.results:
        print(
            f"N = {r.n}: iterations = {r.run.iterations}, "
            f"relative error = {r.relative_error:.3e}"
        )
    return 0


def cmd_solve(args) -> int:
    cfg = _load_with_overrides(args, example1_config())
    n = cfg.n_values[0] if args.n is None else args.n
    cfg = replace(cfg, n_values=(n,))
    report = run_experiment(cfg, args.out)
    r = report.results[0]
    print(
        f"N = {r.n}: iterations = {r.run.iterations}, converged = {r.run.converged}, "
        f"relative error = {r.relative_error:.3e}"
    )
    return 0


def cmd_basis(args) -> int:
    cfg = _load_with_overrides(args, example1_config())
    pipe = build_pipeline(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix_txt(out / "Psi1.txt", pipe.space.Psi1.toarray())
    save_matrix_txt(out / "Psi2.txt", pipe.space.Psi2.toarray())
    m_counts = pipe.space.decomposition.m_counts()
    with (out / "basis_report.txt").open("w") as fh:
        fh.write(
            "\n".join(
                [
                    f"d1 = {pipe.space.d1} (channel continua)",
                    f"d2 = {pipe.space.d2} (mean field + matrix continua)",
                    f"gamma = {pipe.gamma:.12f}",
                    f"constraint residual = {pipe.space.constraint_residual:.3e}",
                    f"continua per block m_i: {m_counts}",
                    "",
                ]
            )
        )
    print(f"d1 = {pipe.space.d1}, d2 = {pipe.space.d2}, gamma = {pipe.gamma:.6f}")
    return 0


def run_checks(cfg) -> list[tuple[str, bool, str]]:
    """Invariant diagnostics used by the check subcommand."""
    checks: list[tuple[str, bool, str]] = []
    pipe = build_pipeline(replace(cfg, compute_reference=False))
    space = pipe.space

    res = space.constraint_residual
    checks.append(("nlmc constraint residuals <= 1e-8", res <= 1e-8, f"max {res:.2e}"))

    spd_ok, spd_msg = True, []
    for name, mat in (("M11", space.system.M11), ("M22", space.system.M22)):
        if mat.shape[0] == 0:
            spd_msg.append(f"{name} empty")
            continue
        try:
            np.linalg.cholesky(mat)
            spd_msg.append(f"{name} ok")
        except np.linalg.LinAlgError:
            spd_ok = False
            spd_msg.append(f"{name} NOT SPD")
    checks.append(("mass blocks symmetric positive definite", spd_ok, ", ".join(spd_msg)))

    gamma = pipe.gamma
    checks.append(("gamma in [0, 1)", 0.0 <= gamma < 1.0, f"gamma = {gamma:.6f}"))

    n = cfg.n_values[0]
    tg = cfg.time_grid(n)
    # the pipeline's own runs, without the reference
    runs = [run_single(pipe, n).run for _ in range(2)]
    same = len(runs[0].history) == len(runs[1].history) and all(
        np.array_equal(a, b) for a, b in zip(runs[0].history, runs[1].history)
    )
    checks.append(
        ("repeated parareal runs agree (bitwise)", same,
         f"{runs[0].iterations} iterations, {cfg.fine_kind} fine propagator")
    )

    def rebuild_error(m: int, alpha: float) -> float:
        # the solver's own transform pair; its factors M cancel
        tm = TimeMatrixB(m, tg.dt_sub, alpha)
        rebuilt = tm.from_eigenbasis(tm.eigenvalues()[:, None] * tm.to_eigenbasis(np.eye(m)))
        b = tm.dense()
        return np.abs(rebuilt - b).max() / np.abs(b).max()

    # the run's own M and alpha, whose scaling spread alpha^-(M-1)/M can ruin
    # the transform, next to a fixed grid
    own = rebuild_error(tg.substeps, cfg.alpha)
    worst = max([own] + [rebuild_error(m, a) for m in (8, 16) for a in (0.1, 0.5, 0.9)])
    checks.append(
        ("diagonalization S D S^-1 = B (<= 1e-10 rel)", worst <= 1e-10,
         f"max {worst:.2e}, {own:.2e} at the run's M = {tg.substeps}, alpha = {cfg.alpha:g}")
    )

    row = project_initial(np.zeros(pipe.grid.n_interior), space, pipe.ops).stacked()
    # both fine propagators as the runs build them, WR with its epsilon-derived tolerance
    wr, seq = [build_fine_propagator(kind, pipe.propagators, tg, cfg.alpha, cfg.epsilon).propagate(row)[0]
               for kind in ("all-at-once", "sequential")]
    gap, scale = np.linalg.norm(wr - seq), np.linalg.norm(seq)
    checks.append(
        ("waveform relaxation matches sequential propagator (<= 1e-10 rel)", gap <= 1e-10 * scale,
         f"gap {gap:.2e}, |seq| {scale:.2e}")
    )
    return checks


def cmd_check(args) -> int:
    cfg = _load_with_overrides(args, check_config())
    checks = run_checks(cfg)
    failed = 0
    for name, ok, detail in checks:
        tag = "ok" if ok else "FAIL"
        if not ok:
            failed += 1
        print(f"[{tag}] {name}: {detail}")
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return 3
    print(f"all {len(checks)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paradiff",
        description="parallel-in-time solver for high-contrast multiscale diffusion",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config file (INI)")
        p.add_argument(
            "--set", action="append", metavar="SECTION.KEY=VALUE",
            help="override one config entry; repeatable",
        )

    p_run = sub.add_parser("run", help="run the full experiment (all N values)")
    common(p_run)
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_solve = sub.add_parser("solve", help="single parareal run")
    common(p_solve)
    p_solve.add_argument("--n", type=int, help="interval count N (default: the first configured)")
    p_solve.add_argument("--out", default="out", help="output directory")
    p_solve.set_defaults(func=cmd_solve)

    p_basis = sub.add_parser("basis", help="build and export the multiscale basis")
    common(p_basis)
    p_basis.add_argument("--out", default="out", help="output directory")
    p_basis.set_defaults(func=cmd_basis)

    p_check = sub.add_parser("check", help="run the invariant diagnostic suite")
    common(p_check)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, OSError) as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
