"""Experiment driver: config files in, CSV/plain-text reports out.

A config describes one physics setup (grid, coefficient field, source,
horizon) plus a list of interval counts N to run parareal on. Each run uses
M = N substeps per interval unless overridden, matching delta_t = T/N^2.
Accuracy is measured against a backward Euler solve on the full fine space
at the same substep size: err = ||u_fine - u_coarse||_M / ||u_fine||_M at
the final time.

Every emitted number appears in exactly one file. All artifacts are pure
functions of the config except wall-clock columns (runs.csv wall_seconds
and the timing CSVs), which are the documented exception to byte-identical
reruns.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fem import (
    Channel,
    FineOperators,
    FineGrid,
    PermeabilityField,
    SourceSpec,
    assemble_fine,
    build_fine_grid,
    generate_field,
    node_values_on_grid,
    reference_solve,
)
from .msbasis import MultiscaleSpace, build_multiscale_space, project_load, subspace_angle
from .parareal import ParerealConfig, ParerealRun, build_fine_propagator, run_parareal
from .stepping import ConstantLoads, SplitPropagators, TimeGrid, project_initial
from .util import save_matrix_txt, write_csv


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class ExperimentError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class ExperimentConfig:
    nx: int = 100
    blocks: int = 10
    layers: int = 3
    background: float = 1.0
    contrast: float = 1e4
    channels: list[tuple[int, int, int, int]] = field(default_factory=list)
    source_kind: str = "constant"
    source_amplitude: float = 1.0
    source_region: tuple | None = None
    t_end: float = 0.005
    n_values: tuple[int, ...] = (20, 30, 40, 50, 60)
    substeps: int = 0  # 0 means M = N
    alpha: float = 0.5
    epsilon: float = 1e-14
    fine_kind: str = "all-at-once"
    k_max: int = 100
    compute_reference: bool = True
    export_solution: bool = True

    def validate(self) -> "ExperimentConfig":
        """Raise ConfigError unless every field is finite and in range; the
        comparisons are written so that NaN fails them."""
        for name in ("background", "contrast", "source_amplitude", "t_end", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.nx >= 2 and self.blocks >= 1):
            raise ConfigError(f"need nx >= 2 and blocks >= 1, got nx={self.nx} blocks={self.blocks}")
        if self.nx % self.blocks != 0:
            raise ConfigError(f"blocks={self.blocks} must divide nx={self.nx}")
        if not self.layers >= 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        if not (self.background > 0 and self.contrast >= 1):
            raise ConfigError(
                f"need background > 0 and contrast >= 1, got {self.background} and {self.contrast}"
            )
        if not self.t_end > 0:
            raise ConfigError(f"t_end must be > 0, got {self.t_end}")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must lie in (0,1), got {self.alpha}")
        if not self.epsilon >= 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if not self.k_max >= 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")
        if self.fine_kind not in ("all-at-once", "sequential"):
            raise ConfigError(f"unknown fine_kind {self.fine_kind!r}")
        for c in self.channels:
            if len(c) != 4:
                raise ConfigError(f"channel needs four bounds i0:i1, j0:j1, got {c}")
            x0, x1, y0, y1 = c
            if not (0 <= x0 < x1 <= self.nx and 0 <= y0 < y1 <= self.nx):
                raise ConfigError(f"channel {c} exceeds grid bounds {self.nx}x{self.nx}")
        if self.source_kind not in ("constant", "box", "point"):
            raise ConfigError(f"unknown source kind {self.source_kind!r}")
        if self.source_kind != "constant" and self.source_region is None:
            raise ConfigError(f"source kind {self.source_kind!r} needs a region")
        r = self.source_region
        if self.source_kind == "box" and not (
            len(r) == 4 and 0 <= r[0] < r[1] <= 1 and 0 <= r[2] < r[3] <= 1
        ):
            raise ConfigError(f"box source region {r} must be x0:x1, y0:y1 ordered inside [0,1]^2")
        if self.source_kind == "point" and not (
            len(r) == 2 and 0 <= r[0] < self.nx and 0 <= r[1] < self.nx
        ):
            raise ConfigError(f"point source cell {r} must be cx, cy inside the {self.nx}x{self.nx} grid")
        if not self.n_values:
            raise ConfigError("n_values is empty")
        if not (min(self.n_values) >= 1 and self.substeps >= 0):
            raise ConfigError(
                f"need every N >= 1 and substeps >= 0, got {self.n_values} and {self.substeps}"
            )
        return self

    def to_source(self) -> SourceSpec:
        return SourceSpec(self.source_kind, self.source_amplitude, self.source_region)

    def to_channels(self) -> list[Channel]:
        return [Channel(*c) for c in self.channels]

    def time_grid(self, n: int) -> TimeGrid:
        return TimeGrid(self.t_end, n, self.substeps if self.substeps else n)


def _parse_ranges(text: str, cast=int) -> tuple:
    """Parse 'a:b, c:d' into (a, b, c, d)."""
    parts = [p.strip() for p in text.split(",")]
    out = []
    for part in parts:
        lo, hi = part.split(":")
        out.extend([cast(lo), cast(hi)])
    return tuple(out)


def read_config_file(path) -> configparser.ConfigParser:
    """Parse path, or raise ConfigError where it is missing or unreadable,
    a directory among them: ConfigParser.read silently skips those."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file not found or unreadable: {path}")
    return parser


def load_config(path) -> ExperimentConfig:
    return config_from_parser(read_config_file(path))


def check_options(parser: configparser.ConfigParser) -> None:
    """Raise ConfigError for any section or option that config_from_parser does not read.

    The known entries are those config_to_parser writes.
    """
    known = config_to_parser(ExperimentConfig())
    for section in parser.sections():
        if not known.has_section(section):
            raise ConfigError(f"unknown section [{section}]")
        for option in parser.options(section):
            if not known.has_option(section, option):
                raise ConfigError(f"unknown option {section}.{option}")


def config_from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    check_options(parser)
    try:
        cfg = ExperimentConfig()
        if parser.has_section("grid"):
            g = parser["grid"]
            cfg.nx = g.getint("nx", cfg.nx)
            cfg.blocks = g.getint("blocks", cfg.blocks)
            cfg.layers = g.getint("layers", cfg.layers)
        if parser.has_section("field"):
            f = parser["field"]
            cfg.background = f.getfloat("background", cfg.background)
            cfg.contrast = f.getfloat("contrast", cfg.contrast)
            raw = f.get("channels", "").strip()
            cfg.channels = [
                _parse_ranges(line) for line in raw.splitlines() if line.strip()
            ]
        if parser.has_section("source"):
            s = parser["source"]
            cfg.source_kind = s.get("kind", cfg.source_kind).strip()
            cfg.source_amplitude = s.getfloat("amplitude", cfg.source_amplitude)
            region = s.get("region", "").strip()
            if region:
                if cfg.source_kind == "point":
                    cfg.source_region = tuple(int(v) for v in region.split(","))
                else:
                    cfg.source_region = _parse_ranges(region, cast=float)
        if parser.has_section("time"):
            cfg.t_end = parser["time"].getfloat("t_end", cfg.t_end)
        if parser.has_section("parareal"):
            p = parser["parareal"]
            if p.get("n_values", "").strip():
                cfg.n_values = tuple(int(v) for v in p.get("n_values").split())
            cfg.substeps = p.getint("substeps", cfg.substeps)
            cfg.alpha = p.getfloat("alpha", cfg.alpha)
            cfg.epsilon = p.getfloat("epsilon", cfg.epsilon)
            cfg.fine_kind = p.get("fine_kind", cfg.fine_kind).strip()
            cfg.k_max = p.getint("k_max", cfg.k_max)
        if parser.has_section("output"):
            o = parser["output"]
            cfg.compute_reference = o.getboolean("reference", cfg.compute_reference)
            cfg.export_solution = o.getboolean("export_solution", cfg.export_solution)
        return cfg.validate()
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def config_to_parser(cfg: ExperimentConfig) -> configparser.ConfigParser:
    """Resolved configuration as a ConfigParser (round-trips through load)."""
    parser = configparser.ConfigParser()
    parser["grid"] = {
        "nx": str(cfg.nx),
        "blocks": str(cfg.blocks),
        "layers": str(cfg.layers),
    }
    parser["field"] = {
        "background": repr(cfg.background),
        "contrast": repr(cfg.contrast),
        "channels": "\n" + "\n".join(f"{c[0]}:{c[1]}, {c[2]}:{c[3]}" for c in cfg.channels),
    }
    r = cfg.source_region
    if r is None:
        region = ""
    elif cfg.source_kind == "point":
        region = f"{r[0]}, {r[1]}"
    else:
        region = f"{r[0]}:{r[1]}, {r[2]}:{r[3]}"
    parser["source"] = {"kind": cfg.source_kind, "amplitude": repr(cfg.source_amplitude), "region": region}
    parser["time"] = {"t_end": repr(cfg.t_end)}
    parser["parareal"] = {
        "n_values": " ".join(str(n) for n in cfg.n_values),
        "substeps": str(cfg.substeps),
        "alpha": repr(cfg.alpha),
        "epsilon": repr(cfg.epsilon),
        "fine_kind": cfg.fine_kind,
        "k_max": str(cfg.k_max),
    }
    parser["output"] = {
        "reference": str(cfg.compute_reference),
        "export_solution": str(cfg.export_solution),
    }
    return parser


def dump_config(cfg: ExperimentConfig, path) -> None:
    """Echo the resolved configuration back out as a config file."""
    with open(path, "w") as fh:
        config_to_parser(cfg).write(fh)


def example1_config() -> ExperimentConfig:
    """One horizontal channel confined to a single coarse row; box source.

    Channels stay clear of the outer boundary: a high-contrast cell set
    touching the Dirichlet edge forces contrast-scale gradients into the
    coarse space and collapses the explicit-coupling step bound by orders
    of magnitude. Four oversampling layers keep the localized-basis
    truncation error at the percent level for contrasts up to 1e6; three
    layers leave tens of percent in the energy-dominated directions.
    """
    return ExperimentConfig(
        layers=4,
        channels=[(5, 95, 44, 46)],
        source_kind="box",
        source_amplitude=1.0,
        source_region=(0.3, 0.7, 0.3, 0.7),
        alpha=0.5,
    )


def check_config() -> ExperimentConfig:
    """Reduced setup for the invariant check suite: fast but heterogeneous."""
    return ExperimentConfig(
        nx=40,
        blocks=5,
        layers=2,
        channels=[(1, 39, 17, 19)],
        source_kind="box",
        source_amplitude=1.0,
        source_region=(0.3, 0.7, 0.3, 0.7),
        n_values=(8,),
        alpha=0.5,
    )


@dataclass
class Pipeline:
    """Everything derivable from the config before any time stepping."""

    config: ExperimentConfig
    grid: FineGrid
    field: PermeabilityField
    ops: FineOperators
    space: MultiscaleSpace
    loads: ConstantLoads
    gamma: float


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    cfg.validate()
    try:
        grid = build_fine_grid(cfg.nx)
        fld = generate_field(grid, cfg.background, cfg.contrast, cfg.to_channels())
    except ValueError as exc:
        raise ExperimentError("field", str(exc)) from exc
    try:
        ops = assemble_fine(grid, fld)
    except ValueError as exc:
        raise ExperimentError("assembly", str(exc)) from exc
    try:
        space = build_multiscale_space(ops, cfg.blocks, cfg.layers)
    except RuntimeError as exc:
        raise ExperimentError("basis", str(exc)) from exc
    b = ops.load(cfg.to_source())
    f1, f2 = project_load(space, b)
    return Pipeline(cfg, grid, fld, ops, space, ConstantLoads(f1, f2), subspace_angle(space))


@dataclass
class RunResult:
    n: int
    run: ParerealRun
    relative_error: float
    error_series: list[float]
    reference_final: np.ndarray | None
    stability_bound: float
    dt_sub: float


def relative_error(ops: FineOperators, fine_final: np.ndarray, coarse_final: np.ndarray) -> float:
    """Relative discrete L2 distance at the final time."""
    denom = ops.norm(fine_final)
    if denom == 0.0:
        return float(np.inf) if ops.norm(coarse_final) > 0 else 0.0
    return ops.norm(fine_final - coarse_final) / denom


def run_single(pipe: Pipeline, n: int) -> RunResult:
    cfg = pipe.config
    tg = cfg.time_grid(n)
    propagators = SplitPropagators(pipe.space.system, pipe.loads)
    bound = propagators.stability_max_step()
    if tg.dt_sub > bound:
        raise ExperimentError(
            f"stability N={n}",
            f"substep {tg.dt_sub:.3e} exceeds the explicit stability bound {bound:.3e}",
        )
    pconfig = ParerealConfig(
        time_grid=tg,
        alpha=cfg.alpha,
        epsilon=cfg.epsilon,
        k_max=cfg.k_max,
        fine_kind=cfg.fine_kind,
    )
    fine = build_fine_propagator(pconfig, propagators)
    initial = project_initial(np.zeros(pipe.grid.n_interior), pipe.space, pipe.ops)
    run = run_parareal(pconfig, propagators, fine, initial)
    if run.failed:
        diverged = sum(run.fine_info[-1][i].get("stop_reason") == "diverged" for i in run.failed)
        raise ExperimentError(
            f"fine N={n}",
            f"waveform relaxation: {diverged} fine solves diverged and "
            f"{len(run.failed) - diverged} behind the final endpoints did not converge, "
            f"at iteration {run.iterations} on intervals {run.failed}",
        )

    ref_final = None
    err = float("nan")
    series: list[float] = []
    if cfg.compute_reference:
        _, states = reference_solve(
            pipe.ops, cfg.to_source(), cfg.t_end, tg.n_intervals * tg.substeps,
            keep_trajectory=False,
        )
        ref_final = states[-1]
        for k in range(len(run.history)):
            u, w = run.endpoint(k)
            series.append(relative_error(pipe.ops, ref_final, pipe.space.reconstruct(u, w)))
        err = series[-1]
    return RunResult(n, run, err, series, ref_final, bound, tg.dt_sub)


@dataclass
class ExperimentReport:
    pipeline: Pipeline
    results: list[RunResult]
    files: list[Path]


def run_experiment(cfg: ExperimentConfig, out_dir) -> ExperimentReport:
    """Execute every configured N and write all artifacts under out_dir.

    Any stage failure removes the files written so far and re-raises with a
    stage tag.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        pipe = build_pipeline(cfg)
        results = []
        for n in cfg.n_values:
            try:
                results.append(run_single(pipe, n))
            except ExperimentError:
                raise
            except (ValueError, np.linalg.LinAlgError, RuntimeError) as exc:
                raise ExperimentError(f"run N={n}", str(exc)) from exc
        try:
            _emit_all(cfg, pipe, results, out, written)
        except OSError as exc:
            raise ExperimentError("emit", str(exc)) from exc
        return ExperimentReport(pipe, results, written)
    except ExperimentError:
        for p in written:
            p.unlink(missing_ok=True)
        raise


def _emit_all(cfg, pipe, results, out: Path, written: list[Path]) -> None:
    def path(name: str) -> Path:
        p = out / name
        written.append(p)
        return p

    dump_config(cfg, path("config_echo.ini"))
    save_matrix_txt(path("kappa.txt"), pipe.field.as_matrix())

    write_csv(
        path("runs.csv"),
        ["n", "iterations", "converged", "relative_error", "gamma", "wall_seconds"],
        [
            (r.n, r.run.iterations, int(r.run.converged), r.relative_error, pipe.gamma, r.run.total_seconds)
            for r in results
        ],
    )
    for r in results:
        rows = []
        for k, diff in enumerate(r.run.max_diffs, start=1):
            err_k = r.error_series[k] if k < len(r.error_series) else float("nan")
            rows.append((k, diff, err_k))
        write_csv(path(f"conv_N{r.n}.csv"), ["iteration", "max_diff", "relative_error"], rows)
        write_csv(
            path(f"timings_N{r.n}.csv"),
            ["iteration", "fine_seconds", "coarse_seconds"],
            [
                (k + 1, r.run.fine_seconds[k], r.run.coarse_seconds[k])
                for k in range(len(r.run.fine_seconds))
            ],
        )
        wr_rows = []
        for k, sweep in enumerate(r.run.fine_info, start=1):
            for interval, info in enumerate(sweep):
                for j, res in enumerate(info.get("residuals", []), start=1):
                    wr_rows.append((k, interval, j, res))
        write_csv(
            path(f"wr_residuals_N{r.n}.csv"),
            ["sweep", "interval", "iteration", "residual"],
            wr_rows,
        )
        if cfg.export_solution:
            u, w = r.run.endpoint()
            final = pipe.space.reconstruct(u, w)
            save_matrix_txt(path(f"solution_N{r.n}.txt"), node_values_on_grid(pipe.grid, final))
            if r.reference_final is not None:
                save_matrix_txt(
                    path(f"reference_N{r.n}.txt"),
                    node_values_on_grid(pipe.grid, r.reference_final),
                )

    with path("summary.txt").open("w") as fh:
        fh.write(_summary_text(cfg, pipe, results))


def _summary_text(cfg, pipe, results) -> str:
    space = pipe.space
    lines = [
        "experiment summary",
        "==================",
        f"grid: {cfg.nx}x{cfg.nx} cells, h = {1.0 / cfg.nx:.6g}",
        f"coarse: {cfg.blocks}x{cfg.blocks} blocks, H = {1.0 / cfg.blocks:.6g}, oversampling layers = {cfg.layers}",
        f"field: background {cfg.background:g}, contrast {cfg.contrast:g}, {len(cfg.channels)} channel rectangles",
        f"source: {cfg.source_kind}, amplitude {cfg.source_amplitude:g}",
        f"space: d1 = {space.d1}, d2 = {space.d2}, constraint residual {space.constraint_residual:.3e}",
        f"gamma = {pipe.gamma:.6f}",
        f"horizon T = {cfg.t_end:g}, alpha = {cfg.alpha:g}, epsilon = {cfg.epsilon:g}, fine kind = {cfg.fine_kind}",
        "",
        "runs (M = N substeps per interval unless overridden):",
    ]
    for r in results:
        lines.append(
            f"  N = {r.n:3d}: iterations = {r.run.iterations:3d}, converged = {r.run.converged}, "
            f"relative error = {r.relative_error:.6e}, substep {r.dt_sub:.3e} "
            f"(stability bound {r.stability_bound:.3e}), wall {r.run.total_seconds:.2f} s"
        )
        bad = r.run.wr_nonconverged()
        if bad:
            lines.append(f"    fine solver max_iter hits: {bad}")
    return "\n".join(lines) + "\n"
