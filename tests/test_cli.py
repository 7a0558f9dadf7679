from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import paradiff.cli as cli
import paradiff.experiment as expmod
import paradiff.fem as fem
import paradiff.parareal as parareal
from paradiff.allatonce import WaveformRelaxation
from paradiff.experiment import (
    ExperimentConfig,
    ExperimentError,
    build_pipeline,
    check_config,
    dump_config,
    run_single,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def tiny_config(**overrides):
    base = dict(
        nx=8, blocks=2, layers=1, contrast=100.0, channels=[(1, 7, 3, 4)],
        source_kind="box", source_amplitude=1.0,
        source_region=(0.25, 0.75, 0.25, 0.75),
        n_values=(3,), substeps=4, alpha=0.5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def config_file(tmp_path, **overrides):
    path = tmp_path / "tiny.ini"
    dump_config(tiny_config(**overrides), path)
    return str(path)


def test_no_subcommand_exits():
    with pytest.raises(SystemExit):
        cli.main([])


def test_check_passes_on_default_config(capsys):
    rc = cli.main(["check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all 4 checks passed" in out
    assert out.count("[ok]") == 4
    assert "[FAIL]" not in out


def test_check_rebuilds_b_at_the_configured_alpha(capsys):
    # at M = 8 the scaling spread alpha^-(M-1)/M is 1e7: the runs still
    # converge, but the transform pair rebuilds B only to about 4e-10, and
    # waveform relaxation ends 1.2e-10 (relative) off the sequential scheme
    rc = cli.main(["check", "--set", "parareal.alpha=1e-8"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "[FAIL] diagonalization" in out
    assert "[FAIL] waveform relaxation" in out
    assert out.count("[FAIL]") == 2


def test_check_wr_gap_is_relative(monkeypatch, capsys):
    """A waveform-relaxation row 1e-6 (relative) off fails the check on a
    small solution, |seq| = 2.3e-6, where 1e-10 * (1 + |seq|) would pass it."""
    solve = WaveformRelaxation.solve

    def perturbed(self, row):
        out, info = solve(self, row)
        out = out.copy()
        out[0] += 1e-6 * np.linalg.norm(out)
        return out, info

    rc = cli.main(["check", "--set", "source.amplitude=1e-3"])
    assert rc == 0
    capsys.readouterr()
    monkeypatch.setattr(WaveformRelaxation, "solve", perturbed)
    rc = cli.main(["check", "--set", "source.amplitude=1e-3"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "[FAIL] waveform relaxation" in out
    assert out.count("[FAIL]") == 1


def test_check_repeated_run_is_the_pipeline_run(monkeypatch):
    """The check's two parareal runs are run_single's run, bit for bit."""
    runs = []
    original = parareal.run_parareal

    def recorded(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    for module in (parareal, expmod, cli):
        monkeypatch.setattr(module, "run_parareal", recorded, raising=False)
    assert all(ok for _, ok, _ in cli.run_checks(check_config()))
    monkeypatch.undo()

    cfg = replace(check_config(), compute_reference=False)
    expected = run_single(build_pipeline(cfg), cfg.n_values[0]).run.history
    assert len(runs) == 2
    for run in runs:
        assert len(run.history) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(run.history, expected))


def test_diverged_waveform_relaxation_exits_1(tmp_path, capsys):
    path = tmp_path / "diverging.ini"
    dump_config(replace(check_config(), blocks=10, layers=1, substeps=96), path)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[fine N=8] waveform relaxation: 8 fine solves diverged" in err
    assert "at iteration 1 on intervals" in err
    assert not out.exists()


def test_unsettled_reference_exits_1(tmp_path, monkeypatch, capsys):
    """The check setup's reference settles at 30 Krylov vectors; at a cap of
    20 the run fails with the reference stage instead of writing its error."""
    monkeypatch.setattr(fem, "_MAX_VECTORS", 20)
    path = tmp_path / "check.ini"
    dump_config(replace(check_config(), fine_kind="sequential"), path)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[reference N=8] did not settle: 20 Krylov vectors, last relative change" in err
    assert not out.exists()


def test_failed_run_removes_the_directories_it_made_only(tmp_path, capsys):
    unstable = ["run", "--set", "parareal.n_values=3", "--set", "parareal.substeps=1", "--out"]
    assert cli.main([*unstable, str(tmp_path / "a" / "b")]) == 1
    assert "experiment failed: [stability N=3]" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert cli.main([*unstable, str(existing)]) == 1
    assert existing.is_dir()


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(
        ["solve", "--config", config_file(tmp_path), "--out", str(out), "--n", "3"]
    )
    assert rc == 0
    assert "N = 3: iterations =" in capsys.readouterr().out
    for name in ("config_echo.ini", "runs.csv", "conv_N3.csv", "solution_N3.txt", "summary.txt"):
        assert (out / name).exists()


def test_run_reports_file_count(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", config_file(tmp_path), "--out", str(out)])
    assert rc == 0
    assert "wrote 9 files" in capsys.readouterr().out


def test_set_overrides_config_entry(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(
        [
            "solve", "--config", config_file(tmp_path),
            "--set", "parareal.n_values=2", "--out", str(out),
        ]
    )
    assert rc == 0
    assert "N = 2:" in capsys.readouterr().out
    assert (out / "conv_N2.csv").exists()


def test_malformed_set_is_config_error(tmp_path, capsys):
    rc = cli.main(["run", "--set", "nonsense", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_set_key_is_config_error(tmp_path, capsys):
    rc = cli.main(
        ["run", "--set", "parareal.aplha=0.3", "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "unknown option parareal.aplha" in capsys.readouterr().err


def test_out_path_collides_with_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    rc = cli.main(["basis", "--config", config_file(tmp_path), "--out", str(target)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "experiment failed" in err
    assert "[emit]" in err


def test_run_out_collides_with_file_before_any_run(tmp_path, monkeypatch, capsys):
    """The emit stage makes --out before the first run, so a bad path costs no run."""
    calls = []
    monkeypatch.setattr(expmod, "run_single", lambda pipe, n: calls.append(n))
    target = tmp_path / "taken"
    target.write_text("")
    rc = cli.main(["run", "--config", config_file(tmp_path), "--out", str(target)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "experiment failed: [emit]" in err and "Traceback" not in err
    assert calls == []


def test_failed_basis_write_leaves_no_files(tmp_path, monkeypatch, capsys):
    written = []

    def second_write_fails(path, array):
        if written:
            raise OSError("disk full")
        written.append(path)
        np.savetxt(path, array)

    monkeypatch.setattr(cli, "save_matrix_txt", second_write_fails)
    out = tmp_path / "out"
    rc = cli.main(["basis", "--config", config_file(tmp_path), "--out", str(out)])
    assert rc == 1
    assert "experiment failed: [emit] disk full" in capsys.readouterr().err
    assert written == [out / "Psi1.txt"]
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, region, message",
    [
        ("box", "3,4", "box source region (3, 4) must be x0:x1, y0:y1 ordered inside [0,1]^2"),
        ("point", "0.2:0.4,0.2:0.4", "point source cell (0.2, 0.4, 0.2, 0.4) must be two cell indices cx, cy"),
    ],
    ids=["box-as-cell", "point-as-ranges"],
)
def test_region_in_the_wrong_form_names_the_region(tmp_path, capsys, kind, region, message):
    """The region's form comes from its text; the source kind reports a form that does not fit it."""
    args = ["check", "--config", config_file(tmp_path), "--set", f"source.kind={kind}"]
    assert cli.main(args + ["--set", f"source.region={region}"]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(
        ["run", "--config", str(tmp_path / "none.ini"), "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_config_directory_exits_2(tmp_path, capsys):
    """ConfigParser.read skips a path it cannot open; the run must not go on
    with the defaults."""
    rc = cli.main(["basis", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "not found or unreadable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_config_value(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[parareal]\nalpha = 2.0\n")
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (b"[grid]\nnx = 10\nnx = 20\n", "option 'nx' in section 'grid' already exists"),
        (b"nx = 10\n", "no section headers"),
        (b"\xff\xfe[grid]\n", "can't decode byte 0xff"),
    ],
    ids=["duplicate-option", "no-section-header", "not-utf8"],
)
def test_malformed_config_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "malformed.ini"
    path.write_bytes(text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["source.kind=point", "source.region=500, 5"], "point source cell"),
        (["time.t_end=-1"], "t_end"),
        (["parareal.k_max=0"], "k_max"),
        (["source.kind=constant"], "constant source takes no region"),
        (["grid.nx=1%0"], "invalid interpolation syntax"),
        (["DEFAULT.nx=3"], "Invalid section name"),
        (["parareal.n_values=3 3"], "repeated"),
        (["source.amplitude=0"], "zero on every cell"),
        # the tiny grid's cell centers sit at (i + 0.5) / 8, none inside
        (["source.region=0.3:0.304, 0.3:0.304"], "zero on every cell"),
    ],
)
def test_out_of_range_value_exits_2(tmp_path, capsys, overrides, message):
    out = tmp_path / "out"
    args = ["run", "--config", config_file(tmp_path), "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    assert cli.main(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_solve_nonpositive_n_exits_2(tmp_path, capsys, n):
    """--n 0 is no interval count, not a request for the configured one."""
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", config_file(tmp_path), "--n", n, "--out", str(out)])
    assert rc == 2
    assert "need every N >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["sequential", "all-at-once"])
def test_substep_that_rounds_to_zero_exits_2(tmp_path, capsys, kind):
    """T = 1e-322 leaves the substep T / N^2 at 0.0 for every configured N:
    a configuration error for both kinds, not a sequential step that divides
    by it or a time matrix that fails inside the run."""
    out = tmp_path / "deep" / "out"
    rc = cli.main(["solve", "--set", "time.t_end=1e-322", "--set", f"parareal.fine_kind={kind}",
                   "--n", "8", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: need substeps >= 1 and a substep dt > 0" in err and "dt=0.0" in err
    assert not (tmp_path / "deep").exists()


def test_substep_above_stability_bound_exits_1(tmp_path, capsys):
    rc = cli.main(
        ["run", "--config", config_file(tmp_path), "--set", "time.t_end=10",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "[stability N=3]" in err and "[run N=3]" not in err


@pytest.mark.parametrize("where", ["file", "set"])
def test_empty_n_values_exits_2(tmp_path, capsys, where):
    """An empty interval list is an error, not the default list."""
    path = tmp_path / "empty.ini"
    if where == "file":
        path.write_text("[parareal]\nn_values =\n")
        args = ["run", "--config", str(path)]
    else:
        args = ["run", "--config", config_file(tmp_path), "--set", "parareal.n_values="]
    out = tmp_path / "out"
    assert cli.main(args + ["--out", str(out)]) == 2
    assert "n_values is empty" in capsys.readouterr().err
    assert not out.exists()


def test_stale_config_option_exits_2(tmp_path, capsys):
    path = tmp_path / "stale.ini"
    path.write_text("[parareal]\nalpha = 0.5\nworkers = 1\n")
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown option parareal.workers" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["file", "set"])
def test_k_max_is_an_unknown_option(tmp_path, capsys, where):
    """The iteration cap follows from N, so a config can no longer set one."""
    args = ["run", "--config", config_file(tmp_path)]
    if where == "file":
        path = tmp_path / "old.ini"
        path.write_text("[parareal]\nalpha = 0.5\nk_max = 100\n")
        args = ["run", "--config", str(path)]
    else:
        args += ["--set", "parareal.k_max=5"]
    out = tmp_path / "out"
    assert cli.main(args + ["--out", str(out)]) == 2
    assert "unknown option parareal.k_max" in capsys.readouterr().err
    assert not out.exists()


def test_basis_exports(tmp_path, capsys):
    out = tmp_path / "basis"
    rc = cli.main(["basis", "--config", config_file(tmp_path), "--out", str(out)])
    assert rc == 0
    assert "gamma" in capsys.readouterr().out
    psi1 = np.loadtxt(out / "Psi1.txt")
    psi2 = np.loadtxt(out / "Psi2.txt")
    assert psi1.shape == (49, 2)
    assert psi2.shape == (49, 4)
    report = (out / "basis_report.txt").read_text()
    assert "d1 = 2" in report and "gamma" in report


def test_runtime_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(cfg, out_dir):
        raise ExperimentError("run N=3", "synthetic")

    monkeypatch.setattr(cli, "run_experiment", boom)
    rc = cli.main(["run", "--config", config_file(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "experiment failed" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, tag",
    [
        # the coarse step's K_G = M/dt + A_u overflows at a denormal horizon
        (["check", "--config", str(CONFIGS / "example1.ini"), "--set", "time.t_end=1e-310"], "[run N=20]"),
        (
            ["basis", "--out", "out", "--set", "grid.nx=3", "--set", "grid.blocks=1", "--set", "grid.layers=2",
             "--set", "field.contrast=1.6e307", "--set", "field.channels=1:3, 1:2\n2:3, 1:2"],
            "[basis]",
        ),
    ],
)
def test_numerical_failure_exits_1_with_its_stage(tmp_path, monkeypatch, capsys, argv, tag):
    monkeypatch.chdir(tmp_path)  # where a basis that built would write ./out
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"experiment failed: {tag}" in err
    assert "Traceback" not in err
