"""Experiment driver: config files in, CSV/plain-text reports out.

A config describes one physics setup (grid, coefficient field, source,
horizon) plus a list of interval counts N to run parareal on. Each run uses
M = N substeps per interval unless overridden, matching delta_t = T/N^2.
Accuracy is measured against a backward Euler solve on the full fine space
at the same substep size: err = ||u_fine - u_coarse||_M / ||u_fine||_M at
the final time.

runs.csv holds one row per N. summary.txt restates its iterations,
converged flag, relative error and wall time for reading, gamma appears on
every runs.csv row and in summary.txt, and the last row of conv_N<n>.csv
holds the run's relative error too. All artifacts are pure functions of the
config except the wall-clock values (runs.csv wall_seconds, the wall time
in summary.txt and the timing CSVs), the documented exception to
byte-identical reruns.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .fem import (
    Channel,
    FineOperators,
    FineGrid,
    ReferenceSolveError,
    SourceSpec,
    assemble_fine,
    build_fine_grid,
    generate_field,
    node_values_on_grid,
    reference_solve,
)
from .msbasis import CoarsePartition, MultiscaleSpace, build_multiscale_space, project_load, subspace_angle
from .parareal import FineSolveError, ParerealRun, build_fine_propagator, run_parareal
from .stepping import SplitPropagators, TimeGrid, project_initial
from .util import save_matrix_txt, write_csv


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class ExperimentError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _parse_ranges(text: str, cast=int) -> tuple:
    """Parse 'a:b, c:d' into (a, b, c, d)."""
    parts = [p.strip() for p in text.split(",")]
    out = []
    for part in parts:
        lo, hi = part.split(":")
        out.extend([cast(lo), cast(hi)])
    return tuple(out)


def _format_ranges(values: tuple) -> str:
    """(a, b, c, d) as 'a:b, c:d', the text _parse_ranges reads."""
    return ", ".join(f"{lo}:{hi}" for lo, hi in zip(values[::2], values[1::2]))


def _parse_region(text: str) -> tuple | None:
    """Ranges 'x0:x1, y0:y1' where the text has colons, a cell 'cx, cy' where it has none."""
    if not text:
        return None
    if ":" in text:
        return _parse_ranges(text, cast=float)
    return tuple(int(v) for v in text.split(","))


def _format_region(region: tuple | None) -> str:
    if region is None:
        return ""
    return ", ".join(map(str, region)) if len(region) == 2 else _format_ranges(region)


# (parse, format) per option type: parse reads the option's stripped text
# and format writes the value back
_INT, _FLOAT, _STR = (int, str), (float, repr), (str, str)
_BOOL = (lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()], str)
_N_VALUES = (lambda text: tuple(int(v) for v in text.split()), lambda v: " ".join(map(str, v)))
_CHANNELS = (
    lambda text: [_parse_ranges(line) for line in text.splitlines() if line.strip()],
    lambda channels: "\n" + "\n".join(_format_ranges(c) for c in channels),
)


def _option(section: str, option: str, codec: tuple, **default):
    """A field that `option` in `[section]` sets, read and written by codec."""
    return field(metadata={"ini": (section, option, *codec)}, **default)


@dataclass
class ExperimentConfig:
    """One experiment's inputs. Each field declares its INI entry, and the
    parser, the writer and the unknown-option check iterate them in order."""

    nx: int = _option("grid", "nx", _INT, default=100)
    blocks: int = _option("grid", "blocks", _INT, default=10)
    layers: int = _option("grid", "layers", _INT, default=3)
    background: float = _option("field", "background", _FLOAT, default=1.0)
    contrast: float = _option("field", "contrast", _FLOAT, default=1e4)
    channels: list[tuple[int, int, int, int]] = _option("field", "channels", _CHANNELS, default_factory=list)
    source_kind: str = _option("source", "kind", _STR, default="constant")
    source_amplitude: float = _option("source", "amplitude", _FLOAT, default=1.0)
    source_region: tuple | None = _option("source", "region", (_parse_region, _format_region), default=None)
    t_end: float = _option("time", "t_end", _FLOAT, default=0.005)
    n_values: tuple[int, ...] = _option("parareal", "n_values", _N_VALUES, default=(20, 30, 40, 50, 60))
    substeps: int = _option("parareal", "substeps", _INT, default=0)  # 0 means M = N
    alpha: float = _option("parareal", "alpha", _FLOAT, default=0.5)
    epsilon: float = _option("parareal", "epsilon", _FLOAT, default=1e-14)
    fine_kind: str = _option("parareal", "fine_kind", _STR, default="all-at-once")
    compute_reference: bool = _option("output", "reference", _BOOL, default=True)
    export_solution: bool = _option("output", "export_solution", _BOOL, default=True)

    def validate(self) -> "ExperimentConfig":
        """Raise ConfigError unless every field is in range. The grid,
        partition, field, source and time grid check their own inputs, so
        this builds each and re-raises its error; the rules below are the
        ones no type owns. The comparisons are written so that NaN fails them."""
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must lie in (0,1), got {self.alpha}")
        if not 0 <= self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.fine_kind not in ("all-at-once", "sequential"):
            raise ConfigError(f"unknown fine_kind {self.fine_kind!r}")
        if not self.n_values:
            raise ConfigError("n_values is empty")
        if len(set(self.n_values)) != len(self.n_values):
            raise ConfigError(f"repeated N in n_values {self.n_values}")
        if not (min(self.n_values) >= 1 and self.substeps >= 0):
            raise ConfigError(
                f"need every N >= 1 and substeps >= 0, got {self.n_values} and {self.substeps}"
            )
        try:
            grid = FineGrid(self.nx)
            CoarsePartition(grid, self.blocks, self.layers)
            generate_field(grid, self.background, self.contrast, self.to_channels())
            cells = self.to_source().cell_values(grid)
            self.time_grid(self.n_values[0])
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        # zero data and a zero load solve to zero, which every check passes
        if not cells.any():
            raise ConfigError("the source is zero on every cell: amplitude 0 or a box with no cell center")
        return self

    def to_source(self) -> SourceSpec:
        return SourceSpec(self.source_kind, self.source_amplitude, self.source_region)

    def to_channels(self) -> list[Channel]:
        for c in self.channels:
            if len(c) != 4:
                raise ValueError(f"channel needs four bounds i0:i1, j0:j1, got {c}")
        return [Channel(*c) for c in self.channels]

    def time_grid(self, n: int) -> TimeGrid:
        return TimeGrid(self.t_end, n, self.substeps if self.substeps else n)


# (field name, section, option, parse, format) per config field
_OPTIONS = [(f.name, *f.metadata["ini"]) for f in fields(ExperimentConfig)]


def read_config_file(path) -> configparser.ConfigParser:
    """Parse path, or raise ConfigError where it is missing or unreadable,
    a directory among them: ConfigParser.read silently skips those. A file
    that is no INI text is a ConfigError too."""
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not found:
        raise ConfigError(f"config file not found or unreadable: {path}")
    return parser


def load_config(path) -> ExperimentConfig:
    return config_from_parser(read_config_file(path))


def config_from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    """The declared options parser sets, the defaults for the rest; any
    other section or option is a ConfigError."""
    known = {(section, option) for _, section, option, _, _ in _OPTIONS}
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"unknown section [{section}]")
        for option in parser.options(section):
            if (section, option) not in known:
                raise ConfigError(f"unknown option {section}.{option}")
    values = {}
    for name, section, option, parse, _ in _OPTIONS:
        if parser.has_option(section, option):
            try:
                values[name] = parse(parser.get(section, option).strip())
            except (ValueError, KeyError, configparser.Error) as exc:
                raise ConfigError(f"{section}.{option}: {exc}") from exc
    return ExperimentConfig(**values).validate()


def config_to_parser(cfg: ExperimentConfig) -> configparser.ConfigParser:
    """Resolved configuration as a ConfigParser (round-trips through load)."""
    parser = configparser.ConfigParser()
    for name, section, option, _, fmt in _OPTIONS:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, fmt(getattr(cfg, name)))
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
    of magnitude. Nine oversampling layers on 10 blocks make every patch
    the whole domain, and the converged parareal run at N = 20 is then
    1.48% off the fine reference at contrast 1e4 and at 1e6 alike. Localized
    bases lose that at high contrast: with 4 layers the same run is 2.14%
    off at 1e4 and 28.5% at 1e6, and coarse backward Euler at 1e6 is 28.5%
    off with 4 layers, 4.6% with 5 and 0.85% with 6.
    """
    return ExperimentConfig(
        layers=9,
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
    """Everything derivable from the config before any time stepping, all runs' propagators among it."""

    config: ExperimentConfig
    grid: FineGrid
    ops: FineOperators
    space: MultiscaleSpace
    loads: tuple[np.ndarray, np.ndarray]  # (f1, f2), from project_load
    gamma: float
    propagators: SplitPropagators
    initial: np.ndarray  # the zero start as a stacked (u, w) row, built once for every run


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    """Validate cfg and build what its runs share. Raises ConfigError for a
    bad config and ExperimentError("basis") for any failure after it."""
    cfg.validate()
    try:
        grid = build_fine_grid(cfg.nx)
        ops = assemble_fine(grid, generate_field(grid, cfg.background, cfg.contrast, cfg.to_channels()))
        space = build_multiscale_space(ops, cfg.blocks, cfg.layers)
        loads = project_load(space, ops.load(cfg.to_source()))
        propagators = SplitPropagators(space.system, loads)
        initial = project_initial(np.zeros(grid.n_interior), space, ops).stacked()
        gamma = subspace_angle(space.system)
    except (RuntimeError, ValueError) as exc:  # numpy's LinAlgError is a ValueError
        raise ExperimentError("basis", str(exc)) from exc
    initial.flags.writeable = False  # every run starts from this one row
    return Pipeline(cfg, grid, ops, space, loads, gamma, propagators, initial)


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
    """Parareal at N = n, with its error against the fine reference if the
    config asks. Raises only ExperimentError, tagged "stability N=<n>",
    "fine N=<n>", "reference N=<n>" or, for any other failure, "run N=<n>"."""
    cfg = pipe.config
    try:
        tg = cfg.time_grid(n)
        bound = pipe.propagators.stability_max_step()
        if tg.dt_sub > bound:
            raise ExperimentError(
                f"stability N={n}",
                f"substep {tg.dt_sub:.3e} exceeds the explicit stability bound {bound:.3e}",
            )
        fine = build_fine_propagator(cfg.fine_kind, pipe.propagators, tg, cfg.alpha, cfg.epsilon)
        run = run_parareal(pipe.propagators, fine, pipe.initial, tg, cfg.epsilon)
        ref_final, err, series = None, float("nan"), []
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
    except ExperimentError:  # the stability check's own tag
        raise
    except FineSolveError as exc:
        raise ExperimentError(f"fine N={n}", f"waveform relaxation: {exc}") from exc
    except ReferenceSolveError as exc:
        raise ExperimentError(f"reference N={n}", f"did not settle: {exc}") from exc
    except (RuntimeError, ValueError) as exc:
        raise ExperimentError(f"run N={n}", str(exc)) from exc
    return RunResult(n, run, err, series, ref_final, bound, tg.dt_sub)


@dataclass
class ExperimentReport:
    results: list[RunResult]
    files: list[Path]


def run_experiment(cfg: ExperimentConfig, out_dir) -> ExperimentReport:
    """Execute every configured N, then write all artifacts under out_dir,
    all in one emit stage that makes out_dir first, so a bad path fails
    before the first run and a failed run leaves no directory behind. Raises
    what build_pipeline and run_single raise, and ExperimentError("emit")
    for a failed mkdir or write."""
    pipe = build_pipeline(cfg)
    with emitting(out_dir) as path:
        results = [run_single(pipe, n) for n in cfg.n_values]
        _emit_all(cfg, pipe, results, path)
    return ExperimentReport(results, path.files)


@contextmanager
def emitting(out_dir):
    """Make out_dir and yield path(name), which returns out_dir/name and
    records it in path.files. Any error inside, the mkdir's included,
    removes every recorded file, then each directory the mkdir made where
    empty; an OSError becomes ExperimentError("emit"), any other passes through."""
    out, files = Path(out_dir), []
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first

    def path(name: str) -> Path:
        files.append(out / name)
        return files[-1]

    path.files = files
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield path
    except Exception as exc:
        for p in files:
            p.unlink(missing_ok=True)
        for d in made:
            with suppress(OSError):  # rmdir removes only an empty directory
                d.rmdir()
        if isinstance(exc, OSError):
            raise ExperimentError("emit", str(exc)) from exc
        raise


def _emit_all(cfg, pipe, results, path) -> None:
    dump_config(cfg, path("config_echo.ini"))
    save_matrix_txt(path("kappa.txt"), pipe.ops.field.as_matrix())

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
        write_csv(
            path(f"wr_residuals_N{r.n}.csv"),
            ["sweep", "interval", "iteration", "residual"],
            [
                (k, n, j, res)
                for k, n, info in r.run.fine_solves()
                for j, res in enumerate(info.get("residuals", []), start=1)
            ],
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

    path("summary.txt").write_text(_summary_text(cfg, pipe, results))


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
    return "\n".join(lines) + "\n"
