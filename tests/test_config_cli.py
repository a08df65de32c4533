import dataclasses

import pytest

from allencahn import cli
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
from allencahn.experiments import StudyConfig, convergence_study


def temporal_cfg():
    return StudyConfig(
        deltas=(2.0**-2, 0.1, 2.0**-5),
        schemes=("te", "atea"),
        laws=("type1", "au6"),
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
        stability_ceiling=50.0,
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
    ],
)
def test_cli_rejects_bad_value_before_writing(tmp_path, capsys, line, bad):
    text = render_config(load_preset("smoke"))
    assert text.count(f"\n{line}\n") == 1
    cfg_file = tmp_path / "bad.ini"
    cfg_file.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("convergence", "--config", str(cfg_file), "--out", str(out)) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_validate(capsys):
    assert run_cli("validate") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    assert all(line.startswith("pass") for line in out)


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
    # a temporal study's coarse path, or a spatial study's reference path
    seen = []
    integrate = cli.integrate

    def capturing(scheme, initial, horizon, stream, drift, **kwargs):
        exact_form = kwargs.get("exact_convolution", False)
        seen.append((initial.n_modes, stream.spec.n_modes, exact_form))
        return integrate(scheme, initial, horizon, stream, drift, **kwargs)

    monkeypatch.setattr(cli, "integrate", capturing)
    assert run_cli("trace", "--preset", preset, "--out", str(tmp_path / "tr")) == 0
    n = getattr(load_preset(preset), modes)
    assert seen == [(n, n, exact)]


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
