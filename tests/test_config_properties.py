"""Property tests: every valid config survives a dump/load round trip,
every out-of-range value is a ConfigError on both the object and the text
path, and every run of a valid config returns or fails with a stage tag."""

import configparser
import io
from dataclasses import replace

import pytest
from hypothesis import given, settings
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

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    blocks = draw(st.integers(1, 4))
    nx = blocks * draw(st.integers(2, 5))
    channels = []
    for _ in range(draw(st.integers(0, 3))):
        x0, x1 = sorted(draw(st.lists(st.integers(0, nx), min_size=2, max_size=2, unique=True)))
        y0, y1 = sorted(draw(st.lists(st.integers(0, nx), min_size=2, max_size=2, unique=True)))
        channels.append((x0, x1, y0, y1))
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
    return ExperimentConfig(
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
        run_single(build_pipeline(cfg), n)
    except ExperimentError:
        pass
