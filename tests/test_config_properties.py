"""Property tests: every valid config survives a dump/load round trip,
every out-of-range value is a ConfigError on both the object and the text
path, every run of a valid config returns or fails with a stage tag, and
over physical configs parareal's rows are the exact fine composition and
a repeated run is bitwise equal."""

import configparser
import io
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paradiff.experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    build_pipeline,
    config_from_parser,
    config_to_parser,
    run_single,
)
from paradiff.parareal import build_fine_propagator

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def channel_lists(draw, nx):
    channels = []
    for _ in range(draw(st.integers(0, 3))):
        x0, x1 = sorted(draw(st.lists(st.integers(0, nx), min_size=2, max_size=2, unique=True)))
        y0, y1 = sorted(draw(st.lists(st.integers(0, nx), min_size=2, max_size=2, unique=True)))
        channels.append((x0, x1, y0, y1))
    return channels


@st.composite
def source_regions(draw, nx):
    """(kind, region) of a source that loads at least one cell of an nx grid."""
    kind = draw(st.sampled_from(["constant", "box", "point"]))
    if kind == "box":
        # x0 <= c < x1 on both axes for the center c of one drawn cell
        region = ()
        for _ in range(2):
            c = (draw(st.integers(0, nx - 1)) + 0.5) * (1.0 / nx)
            region += (draw(st.floats(0.0, c)), draw(st.floats(c, 1.0, exclude_min=True)))
    elif kind == "point":
        region = (draw(st.integers(0, nx - 1)), draw(st.integers(0, nx - 1)))
    else:
        region = None
    return kind, region


@st.composite
def valid_configs(draw):
    blocks = draw(st.integers(1, 4))
    nx = blocks * draw(st.integers(2, 5))
    channels = draw(channel_lists(nx))
    kind, region = draw(source_regions(nx))
    cfg = ExperimentConfig(
        nx=nx,
        blocks=blocks,
        layers=draw(st.integers(0, 5)),
        background=draw(st.floats(min_value=0.0, exclude_min=True, **finite)),
        contrast=draw(st.floats(min_value=1.0, **finite)),
        channels=channels,
        source_kind=kind,
        source_amplitude=draw(st.floats(**finite).filter(bool)),
        source_region=region,
        t_end=draw(st.floats(min_value=0.0, exclude_min=True, **finite)),
        n_values=tuple(draw(st.lists(st.integers(1, 100), min_size=1, max_size=5, unique=True))),
        substeps=draw(st.integers(0, 50)),
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        epsilon=draw(st.floats(min_value=0.0, **finite)),
        fine_kind=draw(st.sampled_from(["all-at-once", "sequential"])),
        compute_reference=draw(st.booleans()),
        export_solution=draw(st.booleans()),
    )
    # a substep that rounds to 0.0 is a configuration error
    assume(all(cfg.time_grid(n).dt_sub > 0 for n in cfg.n_values))
    return cfg


@st.composite
def physical_runs(draw):
    """(pipeline, N) of a config with a physical field and a stable horizon:
    t_end = f N M min(bound, 1) puts the substep at f min(bound, 1)."""
    blocks = draw(st.integers(1, 4))
    nx = blocks * draw(st.integers(2, 5))
    kind, region = draw(source_regions(nx))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cfg = ExperimentConfig(
        nx=nx,
        blocks=blocks,
        layers=draw(st.integers(0, 5)),
        background=10.0 ** draw(st.floats(-2.0, 2.0)),
        contrast=10.0 ** draw(st.floats(0.0, 8.0)),
        channels=draw(channel_lists(nx)),
        source_kind=kind,
        source_amplitude=draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0)),
        source_region=region,
        n_values=(n,),
        substeps=m,
        alpha=draw(st.floats(0.05, 0.95)),
        epsilon=0.0,
        fine_kind=draw(st.sampled_from(["all-at-once", "sequential"])),
        compute_reference=False,
    )
    try:
        pipe = build_pipeline(cfg)
    except ExperimentError:
        assume(False)
    bound = min(pipe.propagators.stability_max_step(), 1.0)
    t_end = draw(st.floats(0.01, 1.0)) * n * m * bound
    return replace(pipe, config=replace(cfg, t_end=t_end)), n


def through_text(cfg: ExperimentConfig) -> ExperimentConfig:
    """Dump cfg as INI text and parse it back, as a config file would be."""
    text = io.StringIO()
    config_to_parser(cfg).write(text)
    parser = configparser.ConfigParser()
    parser.read_string(text.getvalue())
    return config_from_parser(parser)


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_valid_config_validates_and_round_trips(cfg):
    assert cfg.validate() is cfg
    assert through_text(cfg) == cfg


def _bad_box(cfg, data):
    x0, x1, y0, y1 = data.draw(
        st.sampled_from([(0.5, 0.2, 0.1, 0.9), (0.1, 0.9, 0.3, 0.3), (-0.1, 0.5, 0.2, 0.4), (0.2, 1.5, 0.2, 0.4)])
    )
    return replace(cfg, source_kind="box", source_region=(x0, x1, y0, y1))


def _bad_point(cfg, data):
    cell = data.draw(
        st.tuples(st.integers(cfg.nx, 10 * cfg.nx), st.integers(0, cfg.nx - 1))
        | st.tuples(st.integers(0, cfg.nx - 1), st.integers(-10, -1))
    )
    return replace(cfg, source_kind="point", source_region=cell)


def _empty_box(cfg, data):
    """A box strictly between the centers of two adjacent cell columns."""
    i = data.draw(st.integers(0, cfg.nx - 2))
    lo, hi = ((i + k + 0.5) * (1.0 / cfg.nx) for k in (0, 1))
    x0, x1 = sorted(data.draw(st.lists(st.floats(lo, hi, exclude_min=True), min_size=2, max_size=2, unique=True)))
    return replace(cfg, source_kind="box", source_region=(x0, x1, 0.0, 1.0))


NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
BAD_VALUES = {
    "nx": st.integers(max_value=1),
    "blocks": st.integers(max_value=0),
    "t_end": st.floats(max_value=0.0) | NON_FINITE,
    "epsilon": st.floats(max_value=0.0, exclude_max=True) | NON_FINITE,
    "layers": st.integers(max_value=-1),
    "substeps": st.integers(max_value=-1),
    "contrast": st.floats(max_value=1.0, exclude_max=True) | NON_FINITE,
    "background": st.floats(max_value=0.0) | NON_FINITE,
    "source_amplitude": NON_FINITE,
}


@settings(max_examples=300, deadline=None)
@given(valid_configs(), st.data())
def test_out_of_range_value_is_config_error(cfg, data):
    rules = ["n_values", "repeated_n", "box", "point", "constant", "zero_amplitude", "empty_box"]
    rule = data.draw(st.sampled_from(sorted(BAD_VALUES) + rules))
    if rule == "box":
        bad = _bad_box(cfg, data)
    elif rule == "empty_box":
        bad = _empty_box(cfg, data)
    elif rule == "zero_amplitude":
        bad = replace(cfg, source_amplitude=data.draw(st.sampled_from([0.0, -0.0])))
    elif rule == "point":
        bad = _bad_point(cfg, data)
    elif rule == "constant":
        region = data.draw(st.sampled_from([(0.3, 0.7, 0.3, 0.7), (0.1, 0.2)]))
        bad = replace(cfg, source_kind="constant", source_region=region)
    elif rule == "n_values":
        bad = replace(cfg, n_values=cfg.n_values + (data.draw(st.integers(max_value=0)),))
    elif rule == "repeated_n":
        bad = replace(cfg, n_values=cfg.n_values + (data.draw(st.sampled_from(cfg.n_values)),))
    else:
        bad = replace(cfg, **{rule: data.draw(BAD_VALUES[rule])})
    with pytest.raises(ConfigError):
        bad.validate()
    with pytest.raises(ConfigError):
        through_text(bad)


# overflow warnings are errors under the test config; a run at a huge
# contrast or a denormal horizon overflows on its way to a tagged failure
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(valid_configs(), st.integers(1, 3), st.integers(0, 4), st.booleans())
def test_run_of_valid_config_returns_or_fails_with_stage_tag(cfg, n, substeps, reference):
    cfg = replace(cfg, n_values=(n,), substeps=substeps, compute_reference=reference)
    try:
        cfg.validate()
    except ConfigError:  # the new N and substeps can round the substep to 0.0
        assume(False)
    try:
        run_single(build_pipeline(cfg), n)
    except ExperimentError:
        pass


def _run_or_skip(pipe, n):
    """run_single's result; a stage-tagged failure is outside these premises
    (the failure-contract property above covers it)."""
    try:
        return run_single(pipe, n)
    except ExperimentError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(physical_runs())
def test_parareal_rows_are_exact_fine_compositions(drawn):
    """Row n is final from iterate n on: history[n][n] and the last iterate's
    row n are the n-fold fine composition from the start row, bit for bit.
    At epsilon 0 the run stops by iterate N + 1, earlier on a zero update."""
    pipe, n_int = drawn
    run = _run_or_skip(pipe, n_int).run
    cfg, last = pipe.config, len(run.history) - 1
    assert last <= n_int + 1
    fine = build_fine_propagator(cfg.fine_kind, pipe.propagators, cfg.time_grid(n_int), cfg.alpha, cfg.epsilon)
    row = pipe.initial
    for n in range(min(n_int, last) + 1):
        assert run.history[n][n].tobytes() == row.tobytes(), f"history[{n}][{n}]"
        assert run.history[last][n].tobytes() == row.tobytes(), f"history[{last}][{n}]"
        row = fine.propagate(row)[0]


@settings(max_examples=150, deadline=None)
@given(physical_runs())
def test_repeated_parareal_run_is_bitwise_equal(drawn):
    pipe, n_int = drawn
    first = _run_or_skip(pipe, n_int).run.history
    second = run_single(pipe, n_int).run.history
    assert len(first) == len(second)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))
