import configparser
import csv
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import paradiff.experiment as expmod
from paradiff.experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    _parse_ranges,
    check_config,
    config_from_parser,
    config_to_parser,
    dump_config,
    example1_config,
    build_pipeline,
    load_config,
    relative_error,
    run_experiment,
    run_single,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def tiny_config(**overrides):
    base = dict(
        nx=8, blocks=2, layers=1, contrast=100.0, channels=[(1, 7, 3, 4)],
        source_kind="box", source_amplitude=1.0,
        source_region=(0.25, 0.75, 0.25, 0.75),
        n_values=(3,), substeps=4, alpha=0.5,
        compute_reference=True, export_solution=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_parse_ranges():
    assert _parse_ranges("1:2, 3:4") == (1, 2, 3, 4)
    assert _parse_ranges("0.5:0.75", cast=float) == (0.5, 0.75)


def test_named_configs_validate():
    for cfg in (example1_config(), load_config(CONFIGS / "example2.ini"), check_config()):
        assert cfg.validate() is cfg
        assert cfg.to_source().kind == cfg.source_kind
        assert len(cfg.to_channels()) == len(cfg.channels)


def test_example1_config_equals_its_ini_file():
    """`paradiff run` defaults to example1_config(), the benchmark reads the file."""
    assert example1_config() == load_config(CONFIGS / "example1.ini")


def test_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(nx=10, blocks=3).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=1.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(fine_kind="implicit").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(source_kind="laser").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(source_kind="box", source_region=None).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(n_values=()).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(nx=40, blocks=4, channels=[(5, 95, 14, 16)]).validate()


@pytest.mark.parametrize("name", ["example1.ini", "example2.ini"])
def test_shipped_config_sets_exactly_the_declared_options(name):
    """A shipped file missing an option would silently take the default."""
    parser = expmod.read_config_file(CONFIGS / name)
    declared = {f.metadata["ini"][:2] for f in fields(ExperimentConfig)}
    assert {(s, o) for s in parser.sections() for o in parser.options(s)} == declared


def test_source_region_is_parsed_by_kind():
    """A point cell 'cx, cy' is no region for other kinds, ranges are none for a point."""
    for kind, region in [("constant", "3, 4"), ("box", "3, 4"), ("point", "0.2:0.4, 0.2:0.4")]:
        parser = configparser.ConfigParser()
        parser["source"] = {"kind": kind, "region": region}
        with pytest.raises(ConfigError):
            config_from_parser(parser)
    parser = configparser.ConfigParser()
    parser["source"] = {"kind": "point", "region": "3, 4"}
    assert config_from_parser(parser).source_region == (3, 4)


def test_time_grid_uses_n_for_substeps_by_default():
    cfg = ExperimentConfig()
    tg = cfg.time_grid(30)
    assert tg.n_intervals == 30 and tg.substeps == 30
    tg2 = ExperimentConfig(substeps=7).time_grid(30)
    assert tg2.substeps == 7


def test_config_roundtrip_through_parser():
    example2 = load_config(CONFIGS / "example2.ini")
    for cfg in (example1_config(), example2, check_config(), tiny_config()):
        back = config_from_parser(config_to_parser(cfg))
        assert back == cfg


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.ini"
    dump_config(tiny_config(), path)
    cfg = load_config(path)
    assert cfg == tiny_config()
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")


def test_partial_config_keeps_defaults():
    parser = configparser.ConfigParser()
    parser["grid"] = {"nx": "40", "blocks": "5"}
    cfg = config_from_parser(parser)
    assert cfg.nx == 40 and cfg.blocks == 5
    assert cfg.alpha == ExperimentConfig().alpha
    assert cfg.t_end == ExperimentConfig().t_end


def test_malformed_values_raise_config_error():
    parser = configparser.ConfigParser()
    parser["grid"] = {"nx": "many"}
    with pytest.raises(ConfigError):
        config_from_parser(parser)
    parser2 = configparser.ConfigParser()
    parser2["field"] = {"channels": "1:2"}
    with pytest.raises(ConfigError):
        config_from_parser(parser2)
    parser3 = configparser.ConfigParser()
    parser3["field"] = {"channels": "1:x, 3:4"}
    with pytest.raises(ConfigError):
        config_from_parser(parser3)


@pytest.mark.parametrize(
    "section, option",
    [
        ("parareal", "workers"),
        ("parareal", "aplha"),
        ("grid", "nz"),
        ("solver", "tol"),
        ("parareal", "basis_workers"),
    ],
)
def test_unknown_option_raises_config_error(section, option):
    parser = config_to_parser(example1_config())
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, option, "1")
    with pytest.raises(ConfigError, match=rf"unknown (option {section}\.{option}|section \[{section}\])"):
        config_from_parser(parser)


def test_relative_error_definition(channel_pipeline, rng):
    ops = channel_pipeline.ops
    a = rng.standard_normal(ops.M.shape[0])
    b = rng.standard_normal(ops.M.shape[0])
    expect = ops.norm(a - b) / ops.norm(a)
    assert np.isclose(relative_error(ops, a, b), expect, rtol=1e-14)
    assert relative_error(ops, np.zeros_like(a), np.zeros_like(a)) == 0.0
    assert relative_error(ops, np.zeros_like(a), b) == np.inf


def test_run_experiment_artifacts(tmp_path):
    cfg = tiny_config()
    report = run_experiment(cfg, tmp_path / "out")
    names = {p.name for p in report.files}
    assert names == {
        "config_echo.ini",
        "kappa.txt",
        "runs.csv",
        "conv_N3.csv",
        "timings_N3.csv",
        "wr_residuals_N3.csv",
        "solution_N3.txt",
        "reference_N3.txt",
        "summary.txt",
    }
    for p in report.files:
        assert p.exists()

    with (tmp_path / "out" / "runs.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert int(rows[0]["n"]) == 3
    assert int(rows[0]["iterations"]) <= 4
    assert float(rows[0]["relative_error"]) == report.results[0].relative_error

    with (tmp_path / "out" / "conv_N3.csv").open() as fh:
        conv = list(csv.DictReader(fh))
    assert len(conv) == report.results[0].run.iterations
    diffs = [float(r["max_diff"]) for r in conv]
    assert diffs == report.results[0].run.max_diffs

    echoed = load_config(tmp_path / "out" / "config_echo.ini")
    assert echoed == cfg

    kappa = np.loadtxt(tmp_path / "out" / "kappa.txt")
    assert kappa.shape == (8, 8)
    assert kappa.max() == 100.0 and kappa.min() == 1.0

    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "gamma" in summary and "N =   3" in summary


def test_run_experiment_writes_every_n(tmp_path):
    """`paradiff run` runs several N on one pipeline: one runs.csv row and one
    file set per N, in order, and a summary line for each."""
    report = run_experiment(tiny_config(n_values=(2, 3)), tmp_path / "out")
    with (tmp_path / "out" / "runs.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == [2, 3] == [r.n for r in report.results]
    names = {p.name for p in report.files}
    for n in (2, 3):
        for stem in ("conv", "timings", "wr_residuals"):
            assert f"{stem}_N{n}.csv" in names
        assert {f"solution_N{n}.txt", f"reference_N{n}.txt"} <= names
    assert all(p.exists() for p in report.files)
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert summary.index("N =   2") < summary.index("N =   3")


@pytest.mark.parametrize("kind", ["all-at-once", "sequential"])
def test_runs_sharing_a_pipeline_match_fresh_pipelines(kind):
    """The pipeline's propagators cache one-step maps per step size; runs at
    N = 4 and N = 8 on one pipeline, in either order, are bitwise the runs
    on a fresh pipeline each."""
    cfg = tiny_config(fine_kind=kind, substeps=0, compute_reference=False, export_solution=False)
    fresh = {n: run_single(build_pipeline(cfg), n).run.history for n in (4, 8)}
    for order in ((4, 8), (8, 4)):
        pipe = build_pipeline(cfg)
        for n in order:
            history = run_single(pipe, n).run.history
            assert len(history) == len(fresh[n])
            assert all(np.array_equal(a, b) for a, b in zip(history, fresh[n]))


def test_relative_error_is_scale_free_at_large_amplitude():
    """At amplitude 1e300 the squared norms would overflow to NaN; the error
    is the amplitude-1 error."""
    cfg = replace(check_config(), fine_kind="sequential")
    n = cfg.n_values[0]
    base = run_single(build_pipeline(cfg), n).relative_error
    big = run_single(build_pipeline(replace(cfg, source_amplitude=1e300)), n).relative_error
    assert abs(big - base) <= 1e-12 * base


def test_run_experiment_cleans_up_on_emit_failure(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(expmod, "_summary_text", boom)
    out = tmp_path / "out"
    with pytest.raises(ExperimentError) as err:
        run_experiment(tiny_config(), out)
    assert err.value.stage == "emit"
    assert not out.exists()


@pytest.mark.parametrize("n", [0, -2])
def test_run_single_below_one_interval_is_a_run_error(n):
    """validate() keeps such an N from the CLI; a library caller gets the run stage's tag."""
    with pytest.raises(ExperimentError) as err:
        run_single(build_pipeline(tiny_config()), n)
    assert err.value.stage == f"run N={n}"
    assert "n_intervals >= 1" in str(err.value)


def test_run_experiment_tags_failing_stage(monkeypatch, tmp_path):
    def boom(*args):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(expmod, "run_parareal", boom)
    cfg = tiny_config()
    with pytest.raises(ExperimentError) as err:
        run_single(build_pipeline(cfg), 3)
    assert err.value.stage == "run N=3"
    assert "synthetic failure" in str(err.value)
    with pytest.raises(ExperimentError) as err:
        run_experiment(cfg, tmp_path / "out")
    assert err.value.stage == "run N=3"
    assert "synthetic failure" in str(err.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "cfg",
    [
        # eigh of the w-pencil meets a NaN
        ExperimentConfig(nx=3, blocks=1, layers=2, contrast=1.6e307, channels=[(1, 3, 1, 2), (2, 3, 1, 2)], n_values=(1,)),
        # the eigenvalues of the stacked coarse mass Gram do not converge
        ExperimentConfig(
            nx=4, blocks=2, layers=1, background=0.89, contrast=1e307,
            channels=[(2, 3, 0, 1), (0, 2, 0, 4), (0, 4, 1, 3)], n_values=(1,),
        ),
    ],
)
def test_numerical_failure_at_extreme_contrast_is_a_basis_error(cfg):
    with pytest.raises(ExperimentError) as err:
        build_pipeline(cfg)
    assert err.value.stage == "basis"


def test_substep_above_stability_bound_fails_with_one_stage_tag(tmp_path):
    cfg = tiny_config(t_end=10.0)
    with pytest.raises(ExperimentError) as err:
        run_single(build_pipeline(cfg), 3)
    assert err.value.stage == "stability N=3"
    assert "exceeds the explicit stability bound" in str(err.value)
    out = tmp_path / "out"
    with pytest.raises(ExperimentError) as err:
        run_experiment(cfg, out)
    assert err.value.stage == "stability N=3"
    assert str(err.value).startswith("[stability N=3] substep")
    assert not out.exists()


def test_diverged_waveform_relaxation_fails_with_stage_tag():
    """100 w-modes on the check setup: WR diverges on every interval, and
    the run fails after its first iteration instead of reporting a converged
    endpoint of norm 1e39."""
    cfg = replace(
        check_config(), blocks=10, layers=1, substeps=96,
        compute_reference=False, export_solution=False,
    )
    with pytest.raises(ExperimentError) as err:
        run_single(build_pipeline(cfg), 8)
    assert err.value.stage == "fine N=8"
    assert "8 fine solves diverged" in str(err.value)
    assert "at iteration 1 on intervals [0, 1, 2, 3, 4, 5, 6, 7]" in str(err.value)


def test_huge_source_amplitude_keeps_the_reference_finite():
    """At amplitude 1e308 the reference steps exactly scaled data, so its
    relative error is the amplitude-1 value, not NaN from an overflowed solve."""
    cfg = replace(check_config(), fine_kind="sequential", export_solution=False)
    errors = [
        run_single(build_pipeline(replace(cfg, source_amplitude=amp)), 8).relative_error
        for amp in (1.0, 1e308)
    ]
    assert errors[1] == pytest.approx(errors[0], rel=1e-12)


def test_huge_source_fails_the_all_at_once_kind_with_a_stage_tag():
    """WR's tolerance is absolute, so at amplitude 1e200 it cannot converge;
    its residual norms stay finite and the run fails at the fine stage."""
    cfg = replace(check_config(), source_amplitude=1e200, compute_reference=False, export_solution=False)
    with pytest.raises(ExperimentError) as err:
        run_single(build_pipeline(cfg), 8)
    assert err.value.stage == "fine N=8"


@pytest.mark.parametrize(
    "overrides, value",
    [
        (dict(nx=1), "nx=1"),
        (dict(blocks=0), "blocks=0"),
        (dict(nx=10, blocks=3), "blocks=3"),
        (dict(layers=-2), "-2"),
        (dict(background=float("nan")), "nan"),
        (dict(contrast=float("inf")), "inf"),
        (dict(channels=[(1, 2)]), "(1, 2)"),
        (dict(channels=[(5, 95, 44, 46)], nx=40, blocks=4), "44"),
        (dict(source_kind="laser"), "laser"),
        (dict(source_amplitude=float("-inf")), "-inf"),
        (dict(source_kind="box", source_region=(0.7, 0.3, 0.3, 0.7)), "(0.7, 0.3, 0.3, 0.7)"),
        (dict(source_kind="point", source_region=(40, 3), nx=40, blocks=4), "(40, 3)"),
        (dict(t_end=float("inf")), "inf"),
        (dict(epsilon=float("nan")), "nan"),
    ],
)
def test_config_error_names_the_offending_value(overrides, value):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**overrides).validate()
    assert value in str(err.value)


def test_wr_residuals_label_each_solve_with_its_interval(tmp_path):
    """Iteration k solves intervals k-1..N-1, and the CSV names them so."""
    n = 3
    cfg = tiny_config(
        fine_kind="all-at-once", epsilon=0.0,
        compute_reference=False, export_solution=False,
    )
    run_experiment(cfg, tmp_path / "out")
    with (tmp_path / "out" / f"wr_residuals_N{n}.csv").open() as fh:
        pairs = {(int(r["sweep"]), int(r["interval"])) for r in csv.DictReader(fh)}
    assert pairs == {(k, m) for k in range(1, n + 1) for m in range(k - 1, n)}


@pytest.mark.parametrize("kind", ["all-at-once", "sequential"])
def test_run_single_at_zero_epsilon_ends_after_n_plus_one_iterations(kind):
    """Row n is final from iterate n on, so iteration N + 1 updates nothing
    and is the run's last, converged at epsilon = 0."""
    n = 3
    cfg = tiny_config(fine_kind=kind, epsilon=0.0, compute_reference=False, export_solution=False)
    run = run_single(build_pipeline(cfg), n).run
    assert run.iterations == n + 1
    assert run.converged
    assert run.max_diffs[-1] == 0.0


def test_run_single_error_series_tracks_iterations(tmp_path):
    cfg = tiny_config()
    report = run_experiment(cfg, tmp_path / "out")
    r = report.results[0]
    assert len(r.error_series) == len(r.run.history)
    assert r.error_series[-1] == r.relative_error
    assert r.reference_final is not None
    assert all(np.isfinite(e) and e < 1.0 for e in r.error_series)
