import dataclasses
import os

import numpy as np
import pytest
import scipy

from allencahn import experiments, validation
from allencahn.cli import main
from allencahn.config import (
    _KEYS,
    PRESETS,
    RunManifest,
    load_config,
    load_preset,
    parse_config,
    parse_delta_token,
    render_config,
)
from allencahn.errors import ConfigError
from allencahn.experiments import (
    StudyConfig,
    convergence_study,
    coupled_error_sample,
    make_scheme,
    te_fallback_step,
    write_trace_csv,
)
from allencahn.noise import NoiseSpec, NoiseStream
from allencahn.spectral import SpectralField
from allencahn.stepping import integrate


def temporal_cfg():
    return StudyConfig(
        deltas=(2.0**-2, 0.1, 2.0**-5),
        schemes=("te", "atea"),
        laws=("type1", "type3"),
        n_modes=32,
        samples=5,
        seed=9,
        noise_kind="white",
        noise_scale=0.5,
        a0=0.25,
        xi=7.0,
    )


def spatial_cfg():
    return StudyConfig(
        kind="spatial",
        deltas=(2.0**-4,),
        schemes=("te",),
        laws=("type1",),
        spatial_modes=(8, 16, 32),
        spatial_reference=64,
        n_modes=64,
        samples=4,
    )


# ---------------------------------------------------------------------------
# parsing and rendering


def test_parse_delta_token():
    assert parse_delta_token("2^-7") == 2.0**-7
    assert parse_delta_token(" 2^-2 ") == 0.25
    assert parse_delta_token("0.3") == 0.3
    assert parse_delta_token("1") == 1.0
    for bad in ("2^", "2^x", "abc", "^3"):
        with pytest.raises(ConfigError):
            parse_delta_token(bad)


def test_render_parse_round_trip_temporal():
    cfg = temporal_cfg()
    assert parse_config(render_config(cfg)) == cfg


def test_render_parse_round_trip_spatial():
    cfg = spatial_cfg()
    assert parse_config(render_config(cfg)) == cfg


def test_key_table_names_every_field_once():
    assert sorted(field for _, _, field, _ in _KEYS) == sorted(
        f.name for f in dataclasses.fields(StudyConfig)
    )
    assert len({(section, key) for section, key, *_ in _KEYS}) == len(_KEYS)


def test_every_field_round_trips():
    cfg = StudyConfig(
        deltas=(2.0**-6,),
        schemes=("te",),
        laws=("type2",),
        kind="spatial",
        noise_kind="white",
        noise_scale=0.5,
        a3=-2.0,
        a2=0.5,
        a1=-1.5,
        a0=0.25,
        n_modes=24,
        horizon=2.5,
        samples=7,
        seed=2**64 - 1,
        refinement=4,
        initial="e3*0.5",
        phi=2.0,
        zeta=3.0,
        xi=7.0,
        q0=2.0,
        tau_min=0.05,
        step_ceiling=1234,
        threads=3,
        spatial_modes=(8, 16),
        spatial_reference=32,
    )
    defaults = StudyConfig(deltas=(1.0,))
    for f in dataclasses.fields(StudyConfig):
        assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name
    assert parse_config(render_config(cfg)) == cfg


def test_render_uses_power_of_two_deltas():
    text = render_config(temporal_cfg())
    assert "2^-2" in text and "2^-5" in text and "0.1" in text


def test_unknown_key_is_an_error():
    text = render_config(temporal_cfg()).replace("samples", "smaples")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert "smaples" in str(info.value)
    # the removed law switches are unknown keys too
    laws = render_config(temporal_cfg())
    for removed in ("uncapped_fallback", "projected_drift_norm"):
        text = laws.replace("\n[laws]\n", f"\n[laws]\n{removed} = false\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert removed in str(info.value)


def test_last_path_index_must_fit_in_32_bits():
    # two levels of 2**31 samples end at path 2**32 - 1, the last one a
    # stream can key; one more sample per level runs past it
    text = render_config(load_preset("smoke"))
    assert text.count("\nsamples = 4\n") == 1
    cfg = dict(deltas=(0.5, 0.25), schemes=("te",), n_modes=8)
    StudyConfig(samples=2**31, **cfg)
    parse_config(text.replace("\nsamples = 4\n", f"\nsamples = {2**31}\n"))
    with pytest.raises(ConfigError, match="32 bits"):
        StudyConfig(samples=2**31 + 1, **cfg)
    with pytest.raises(ConfigError, match="32 bits"):
        parse_config(text.replace("\nsamples = 4\n", f"\nsamples = {2**31 + 1}\n"))


def test_unknown_section_is_an_error():
    text = render_config(temporal_cfg()) + "\n[extras]\nfoo = 1\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert "[extras]" in str(info.value)


def test_missing_deltas_is_an_error():
    with pytest.raises(ConfigError) as info:
        parse_config("[study]\nsamples = 4\n")
    assert "deltas" in str(info.value)


def test_unparseable_value_names_its_key():
    with pytest.raises(ConfigError) as info:
        parse_config("[study]\ndeltas = 2^-2\nsamples = four\n")
    assert "samples" in str(info.value)


def test_load_config_missing_file(tmp_path):
    missing = tmp_path / "nope.ini"
    with pytest.raises(ConfigError) as info:
        load_config(missing)
    assert "nope.ini" in str(info.value)


# ---------------------------------------------------------------------------
# presets


def test_all_presets_parse():
    for name in PRESETS:
        cfg = load_preset(name)
        assert isinstance(cfg, StudyConfig)
        assert cfg.samples >= 2


def test_unknown_preset():
    with pytest.raises(ConfigError):
        load_preset("huge")


def test_smoke_preset_values():
    cfg = load_preset("smoke")
    assert cfg.deltas == (0.25, 0.125)
    assert cfg.schemes == ("te", "ateu")
    assert cfg.laws == ("type1",)
    assert cfg.n_modes == 16
    assert cfg.samples == 4
    assert cfg.noise_kind == "trace-class"
    assert cfg.refinement == 3


def test_protocol_presets_pin_their_sweeps():
    trace = load_preset("desk-trace-class")
    assert trace.deltas == tuple(2.0**-k for k in range(2, 8))
    assert trace.schemes == ("te", "ateu", "atea")
    assert trace.laws == ("type1", "type2", "type3")
    assert trace.samples == 100
    assert trace.noise_kind == "trace-class"
    white = load_preset("desk-white")
    assert white.schemes == ("te", "ateu")
    assert white.laws == ("type4", "type5", "type6")
    assert white.noise_kind == "white"
    spatial = load_preset("spatial-desk")
    assert spatial.kind == "spatial"
    assert spatial.spatial_modes == (16, 32, 64, 128)
    assert spatial.spatial_reference == 512
    full = load_preset("full-trace-class")
    assert full.n_modes == 1024
    assert dataclasses.replace(
        full, n_modes=trace.n_modes
    ) == trace  # desk = full protocol at a desk-sized resolution


# ---------------------------------------------------------------------------
# manifest


def test_manifest_render():
    m = RunManifest(
        command="convergence",
        config_path="preset:smoke",
        seed=3,
        outputs=("errors.csv", "slopes.csv"),
        status="complete",
        started=1700000000.0,
        finished=1700000100.0,
    )
    text = m.render()
    assert "command = convergence" in text
    assert "status = complete" in text
    assert "seed = 3" in text
    assert f"numpy = {np.__version__}" in text
    assert f"scipy = {scipy.__version__}" in text
    assert f"cpus = {os.cpu_count()}" in text
    assert text.count("output = ") == 2
    assert "detail" not in text
    m2 = dataclasses.replace(m, status="failed", detail="boom")
    assert "detail = boom" in m2.render()


# ---------------------------------------------------------------------------
# command line


def run_cli(*argv):
    return main(list(argv))


def test_cli_requires_exactly_one_source(tmp_path, capsys):
    assert run_cli("convergence", "--out", str(tmp_path)) == 2
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(render_config(temporal_cfg()), encoding="utf-8")
    assert (
        run_cli(
            "convergence",
            "--config",
            str(cfg_file),
            "--preset",
            "smoke",
            "--out",
            str(tmp_path),
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_cli_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "absent.ini"
    assert run_cli("convergence", "--config", str(missing), "--out", str(tmp_path)) == 2
    assert "absent.ini" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, bad",
    [
        ("kind = trace-class", "kind = pink"),
        ("scale = 1.0", "scale = -1.0"),
        ("a3 = -1.0", "a3 = 1.0"),
        ("tau_min = 0.2", "tau_min = 0"),
        ("horizon = 1.0", "horizon = 0"),
        ("n_modes = 16", "n_modes = 0"),
        ("refinement = 3", "refinement = 1"),
        ("seed = 0", "seed = -1"),
        ("initial = e1", "initial = e17"),
        ("xi = 10.0", "xi = 0.0"),
        ("q0 = 1.0", "q0 = -1.0"),
        ("threads = 1", "threads = -3"),
        ("step_ceiling = 10000000", "step_ceiling = 0"),
        ("tau_min = 0.2", "tau_min = 0.2\nuncapped_fallback = true"),
        ("tau_min = 0.2", "tau_min = 0.2\nprojected_drift_norm = true"),
        ("laws = type1", "laws = au1"),
        ("laws = type1", "laws ="),
        ("schemes = te, ateu", "schemes ="),
    ],
)
def test_cli_rejects_bad_value_before_writing(tmp_path, capsys, line, bad):
    text = render_config(load_preset("smoke"))
    assert text.count(f"\n{line}\n") == 1
    cfg_file = tmp_path / "bad.ini"
    cfg_file.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("convergence", "trace"):
        assert run_cli(command, "--config", str(cfg_file), "--out", str(out)) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()


def test_retired_stability_ceiling_is_an_unknown_key(tmp_path, capsys):
    # the stability report's ceiling is fixed at 1000; a config that still
    # sets one fails before any output, like the other retired keys
    text = (
        "[study]\nschemes = te, ateu\ndeltas = 2^-2, 2^-3\nsamples = 4\n"
        "n_modes = 16\nstability_ceiling = 1000.0\n"
    )
    with pytest.raises(ConfigError, match=r"unknown config keys: \[study\] stab"):
        parse_config(text)
    cfg_file = tmp_path / "ceiling.ini"
    cfg_file.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("convergence", "--config", str(cfg_file), "--out", str(out)) == 2
    assert "stability_ceiling" in capsys.readouterr().err
    assert not out.exists()


def test_cli_validate(capsys):
    assert run_cli("validate") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [
        f"pass  {name}: {checks} checks"
        for name, checks in (
            ("parseval", 200),
            ("coupling", 96),
            ("drift-oracle", 101),
            ("smoothing", 300),
            ("sandwich", 1050),
        )
    ]


def _redraws_perturbed(monkeypatch):
    seen = set()
    increments = NoiseStream.increments

    def redrawn(stream, step, dt, r=1):
        fine, coarse = increments(stream, step, dt, r)
        key = (id(stream), step, dt, r)
        if key in seen:
            coarse = coarse * (1 + 1e-12)
        seen.add(key)
        return fine, coarse

    monkeypatch.setattr(NoiseStream, "increments", redrawn)


def _scaled(monkeypatch, name, factor):
    original = getattr(validation, name)
    monkeypatch.setattr(
        validation, name, lambda *args: original(*args) * factor
    )


def _mode_3_moved(monkeypatch):
    original = validation.apply_drift

    def moved(drift, field):
        coeffs = original(drift, field).coeffs.copy()
        coeffs[2] += 1e-9
        return SpectralField(coeffs)

    monkeypatch.setattr(validation, "apply_drift", moved)


@pytest.mark.parametrize(
    "suite, fault, detail",
    [
        ("parseval", lambda mp: _scaled(mp, "lp_norm", 1 + 1e-9), "quadrature="),
        ("coupling", _redraws_perturbed, "redraw differed"),
        ("drift-oracle", _mode_3_moved, "e1 image"),
        ("smoothing", lambda mp: _scaled(mp, "sup_norm", 10.0), "ratio "),
        ("sandwich", lambda mp: _scaled(mp, "inner_product_x_f", 10.0), "growth bound"),
    ],
)
def test_cli_validate_fails_the_faulty_suite_alone(
    monkeypatch, capsys, suite, fault, detail
):
    fault(monkeypatch)
    assert run_cli("validate") == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(":")[0].split()[-1] for line in lines] == [
        name for name, _ in validation.SUITES
    ]
    for line in lines:
        if line.startswith(f"FAIL  {suite}:"):
            assert detail in line.split(" checks  (", 1)[1]
        else:
            assert line.startswith("pass  ")
    assert sum(line.startswith("FAIL  ") for line in lines) == 1


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    code = main(["convergence", "--preset", "smoke", "--out", str(out)])
    return code, out


def test_cli_smoke_run_outputs(smoke_run):
    code, out = smoke_run
    assert code == 0
    for name in ("config_resolved.ini", "errors.csv", "slopes.csv",
                 "slopes_delta.csv", "manifest.txt"):
        assert (out / name).is_file(), name
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "status = complete" in manifest
    for name in ("errors.csv", "slopes.csv", "slopes_delta.csv",
                 "config_resolved.ini"):
        assert manifest.count(f"output = {name}") == 1
    errors = (out / "errors.csv").read_text(encoding="utf-8").splitlines()
    assert len(errors) == 1 + 2 * 2  # header + schemes x deltas
    # two delta levels cannot support a three-point fit
    assert (out / "slopes.csv").read_text(encoding="utf-8").splitlines() == [
        "scheme,law,slope,intercept,r_squared"
    ]


def test_cli_spatial_run_outputs(tmp_path):
    cfg_file = tmp_path / "spatial.ini"
    cfg_file.write_text(render_config(spatial_cfg()), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("convergence", "--config", str(cfg_file), "--out", str(out)) == 0
    written = ("config_resolved.ini", "spatial.csv", "slopes.csv", "manifest.txt")
    assert sorted(p.name for p in out.iterdir()) == sorted(written)
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "status = complete" in manifest
    for name in written[:3]:
        assert manifest.count(f"output = {name}") == 1
    assert manifest.count("output = ") == 3
    spatial = (out / "spatial.csv").read_text(encoding="utf-8").splitlines()
    assert spatial[0] == (
        "n_modes,n_ref,delta,mean_steps,rms_error,cpu_seconds,divergent_samples"
    )
    assert [row.split(",")[:2] for row in spatial[1:]] == [
        ["8", "64"], ["16", "64"], ["32", "64"]
    ]
    slopes = (out / "slopes.csv").read_text(encoding="utf-8").splitlines()
    assert slopes[0] == "scheme,law,slope,intercept,r_squared"
    assert [row.split(",")[:2] for row in slopes[1:]] == [["te", "type1"]]


def _errors_without_cpu(path):
    rows = [
        line.split(",")
        for line in (path / "errors.csv").read_text(encoding="utf-8").splitlines()
    ]
    return [r[:5] + r[6:] for r in rows]


def test_cli_config_echo_closure(smoke_run, tmp_path):
    """Re-running from the emitted resolved config reproduces the study."""
    code, out = smoke_run
    echo = tmp_path / "echo"
    assert (
        run_cli(
            "convergence",
            "--config",
            str(out / "config_resolved.ini"),
            "--out",
            str(echo),
        )
        == 0
    )
    assert _errors_without_cpu(echo) == _errors_without_cpu(out)
    assert (echo / "config_resolved.ini").read_text(encoding="utf-8") == (
        out / "config_resolved.ini"
    ).read_text(encoding="utf-8")


def test_cli_seed_override_changes_errors(smoke_run, tmp_path):
    code, out = smoke_run
    other = tmp_path / "seeded"
    assert (
        run_cli(
            "convergence", "--preset", "smoke", "--seed", "1", "--out", str(other)
        )
        == 0
    )
    assert "seed = 1" in (other / "config_resolved.ini").read_text(encoding="utf-8")
    assert _errors_without_cpu(other) != _errors_without_cpu(out)


def test_cli_trace_uniform_scheme(tmp_path):
    out = tmp_path / "trace"
    assert (
        run_cli(
            "trace",
            "--preset",
            "smoke",
            "--scheme",
            "te",
            "--delta",
            "2^-2",
            "--out",
            str(out),
        )
        == 0
    )
    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "path,step,t,tau,branch,norm_l2,norm_sup,norm_F"
    rows = [line.split(",") for line in lines[1:]]
    # te steps at the study's te_h, the hybrid fallback min(tau_min, delta T)
    # = 0.2, not at delta T = 0.25: five steps, the last clamped to T
    assert len(rows) == 5
    assert all(float(r[3]) == 0.2 for r in rows[:4])
    assert all(r[4] == "tamed-fallback" for r in rows[:4])
    assert rows[4][4] == "final-clamp"
    assert float(rows[4][3]) == pytest.approx(0.2, abs=1e-15)
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "cell=(te, type1, 0.25) h=0.2 steps=5" in manifest
    cell = convergence_study(load_preset("smoke")).cell("te", "type1", 0.25)
    assert cell.te_h == 0.2
    assert cell.outcomes[0].steps == len(rows)


def test_cli_trace_adaptive_scheme(tmp_path):
    out = tmp_path / "trace_ae"
    assert (
        run_cli(
            "trace",
            "--preset",
            "smoke",
            "--scheme",
            "ae",
            "--law",
            "type3",
            "--delta",
            "2^-3",
            "--path",
            "2",
            "--out",
            str(out),
        )
        == 0
    )
    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    taus = [float(r[3]) for r in rows]
    assert all(t > 0 for t in taus)
    assert sum(taus) == pytest.approx(1.0, abs=1e-12)
    assert all(r[0] == "2" for r in rows)
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "cell=(ae, type3, 0.125)" in manifest


@pytest.mark.parametrize(
    "preset, modes, exact",
    [("smoke", "n_modes", False), ("spatial-desk", "spatial_reference", True)],
)
def test_cli_trace_follows_a_path_of_the_study(
    tmp_path, monkeypatch, preset, modes, exact
):
    # a temporal study's coarse path with its refined reference, or a
    # spatial study's reference path
    seen = []

    def capturing(scheme, initial, horizon, stream, drift, **kwargs):
        seen.append(
            (
                initial.n_modes,
                stream.spec.n_modes,
                kwargs.get("exact_convolution", False),
                kwargs.get("refinement", 1),
            )
        )
        return integrate(scheme, initial, horizon, stream, drift, **kwargs)

    monkeypatch.setattr(experiments, "integrate", capturing)
    assert run_cli("trace", "--preset", preset, "--out", str(tmp_path / "tr")) == 0
    cfg = load_preset(preset)
    n = getattr(cfg, modes)
    assert seen == [(n, n, exact, 1 if exact else cfg.refinement)]


def test_cli_trace_steps_as_the_study_sample(tmp_path):
    # a trace without the refined reference took 8 steps on this path
    cell = ["--scheme", "atea", "--law", "type1", "--delta", "2^-3", "--path", "8"]
    out = tmp_path / "tr"
    assert run_cli("trace", "--preset", "desk-trace-class", *cell, "--out", str(out)) == 0
    cfg = load_preset("desk-trace-class")
    steps = coupled_error_sample(cfg, "atea", "type1", 2.0**-3, 8).steps
    assert steps == 9
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert f"cell=(atea, type1, 0.125) steps={steps}" in manifest


def test_cli_trace_exits_3_when_the_study_path_diverges(tmp_path):
    cfg = dataclasses.replace(temporal_cfg(), noise_scale=1e200)
    cfg_file = tmp_path / "huge.ini"
    cfg_file.write_text(render_config(cfg), encoding="utf-8")
    out = tmp_path / "tr"
    cell = ["--scheme", "atea", "--law", "type1", "--path", "3"]
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("trace", "--config", str(cfg_file), *cell, "--out", str(out))
        sample = coupled_error_sample(cfg, "atea", "type1", cfg.deltas[0], 3)
    assert code == 3 and sample.diverged
    assert not (out / "trace.csv").exists()
    assert "status = failed" in (out / "manifest.txt").read_text(encoding="utf-8")


def _traced_records(tmp_path, preset, scheme_kind, law, delta, path, **kwargs):
    """trace.csv of the cell, and the same file written from `integrate`."""
    out = tmp_path / "tr"
    cell = ["--scheme", scheme_kind, "--law", law, "--delta", delta, "--path", str(path)]
    assert run_cli("trace", "--preset", preset, *cell, "--out", str(out)) == 0
    cfg = load_preset(preset)
    delta = parse_delta_token(delta)
    te_h = te_fallback_step(cfg, delta) if scheme_kind == "te" else None
    n = cfg.spatial_reference if cfg.kind == "spatial" else cfg.n_modes
    result = integrate(
        make_scheme(cfg, scheme_kind, law, delta, te_h),
        experiments.initial_state(cfg.initial, n),
        cfg.horizon,
        NoiseStream(NoiseSpec(cfg.noise_kind, n, cfg.noise_scale), cfg.seed, path),
        cfg.drift,
        step_ceiling=cfg.step_ceiling,
        collect_records=True,
        **kwargs,
    )
    write_trace_csv(tmp_path / "direct.csv", result.records, path)
    return (out / "trace.csv").read_bytes(), (tmp_path / "direct.csv").read_bytes()


@pytest.mark.parametrize(
    "preset, cell",
    [
        ("desk-trace-class", ("atea", "type1", "2^-3", 8)),
        ("desk-trace-class", ("te", "type2", "2^-4", 13)),
        ("smoke", ("ateu", "type1", "2^-4", 3)),
    ],
)
def test_cli_temporal_trace_is_the_refined_study_path(tmp_path, preset, cell):
    cfg = load_preset(preset)
    traced, direct = _traced_records(
        tmp_path, preset, *cell, refinement=cfg.refinement
    )
    assert traced == direct


def test_cli_spatial_trace_is_the_reference_path(tmp_path):
    # the reference path at spatial_reference modes, exact-convolution form
    traced, direct = _traced_records(
        tmp_path, "spatial-desk", "te", "type1", "2^-7", 5, exact_convolution=True
    )
    assert traced == direct
    assert len(traced.splitlines()) == 2**7 + 1


def test_cli_trace_rejects_unknown_scheme(tmp_path, capsys):
    assert (
        run_cli(
            "trace",
            "--preset",
            "smoke",
            "--scheme",
            "euler",
            "--out",
            str(tmp_path),
        )
        == 2
    )
    assert "euler" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, cell",
    [
        ("smoke", ["--scheme", "ateu", "--law", "bogus"]),
        ("smoke", ["--scheme", "ateu", "--law", "type7"]),
        ("smoke", ["--scheme", "atea", "--law", "type4"]),
        ("smoke", ["--scheme", "ateu", "--delta", "2"]),
        ("smoke", ["--scheme", "ateu", "--delta", "0"]),
        ("smoke", ["--scheme", "ateu", "--path", "-1"]),
        ("smoke", ["--scheme", "ateu", "--path", str(2**32)]),
        ("spatial-desk", ["--scheme", "ateu"]),
        ("smoke", ["--scheme", "ateu", "--law", "au1"]),
    ],
)
def test_cli_trace_rejects_bad_cell_before_writing(tmp_path, capsys, preset, cell):
    out = tmp_path / "out"
    assert run_cli("trace", "--preset", preset, *cell, "--out", str(out)) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the child does not see pytest's `pythonpath`: hand it src/ itself
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "allencahn.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "convergence" in proc.stdout and "trace" in proc.stdout
