"""Flat INI configuration for studies, plus presets and run manifests.

A config is four sections of scalar keys; every key maps onto one
StudyConfig field.  Unknown sections or keys are hard errors so a typo
cannot silently fall back to a default.  `render_config` is a closure
inverse of `parse_config`: rendering a resolved config and parsing it
back yields an identical StudyConfig.
"""

from __future__ import annotations

import configparser
import math
import sys
import time
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError
from .experiments import StudyConfig

_STUDY_KEYS = {
    "kind": str,
    "schemes": "list",
    "laws": "list",
    "deltas": "deltas",
    "samples": int,
    "seed": int,
    "n_modes": int,
    "horizon": float,
    "refinement": int,
    "initial": str,
    "threads": int,
    "step_ceiling": int,
    "stability_ceiling": float,
    "spatial_modes": "intlist",
    "spatial_reference": int,
}
_NOISE_KEYS = {"kind": str, "scale": float, "regularity": float}
_DRIFT_KEYS = {"a3": float, "a2": float, "a1": float, "a0": float}
_LAW_KEYS = {
    "phi": float,
    "zeta": float,
    "xi": float,
    "q0": float,
    "tau_min": float,
    "uncapped_fallback": bool,
    "projected_drift_norm": bool,
}
_SECTIONS = {
    "study": _STUDY_KEYS,
    "noise": _NOISE_KEYS,
    "drift": _DRIFT_KEYS,
    "laws": _LAW_KEYS,
}

# config key -> StudyConfig field, where the names differ
_FIELD_NAME = {
    ("noise", "kind"): "noise_kind",
    ("noise", "scale"): "noise_scale",
}

PRESETS = (
    "full-trace-class",
    "full-white",
    "desk-trace-class",
    "desk-white",
    "spatial-desk",
    "smoke",
)


def parse_delta_token(token: str) -> float:
    """One delta level: '2^-7' means 2**-7, anything else is a float literal."""
    token = token.strip()
    if "^" in token:
        base, _, exp = token.partition("^")
        try:
            return float(base) ** int(exp)
        except ValueError as exc:
            raise ConfigError(f"bad delta token {token!r}") from exc
    try:
        return float(token)
    except ValueError as exc:
        raise ConfigError(f"bad delta token {token!r}") from exc


def _split(text: str) -> list[str]:
    return [t for t in text.replace(",", " ").split() if t]


def _coerce(section: str, key: str, text: str, kind):
    text = text.strip()
    try:
        if kind is bool:
            if text.lower() in ("1", "true", "yes", "on"):
                return True
            if text.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind == "deltas":
            return tuple(parse_delta_token(t) for t in _split(text))
        if kind == "intlist":
            return tuple(int(t) for t in _split(text))
        if kind == "list":
            return tuple(_split(text))
        return text
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {text!r}") from exc


def parse_config(text: str, source: str = "<string>") -> StudyConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    unknown = []
    for section in parser.sections():
        if section not in _SECTIONS:
            unknown.append(f"[{section}]")
            continue
        known = _SECTIONS[section]
        unknown.extend(
            f"[{section}] {key}" for key in parser[section] if key not in known
        )
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    fields = {}
    for section, keys in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key, raw in parser[section].items():
            name = _FIELD_NAME.get((section, key), key)
            fields[name] = _coerce(section, key, raw, keys[key])
    if "deltas" not in fields:
        raise ConfigError(f"{source}: missing required key [study] deltas")
    return StudyConfig(**fields)


def load_config(path) -> StudyConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    return parse_config(text, source=str(path))


def _delta_repr(d: float) -> str:
    exp = math.log2(d)
    if exp == int(exp):
        return f"2^{int(exp)}"
    return repr(d)


def render_config(cfg: StudyConfig) -> str:
    """Fully resolved INI text; parse_config(render_config(cfg)) == cfg."""
    lines = [
        "[study]",
        f"kind = {cfg.kind}",
        f"schemes = {', '.join(cfg.schemes)}",
        f"laws = {', '.join(cfg.laws)}",
        f"deltas = {', '.join(_delta_repr(d) for d in cfg.deltas)}",
        f"samples = {cfg.samples}",
        f"seed = {cfg.seed}",
        f"n_modes = {cfg.n_modes}",
        f"horizon = {repr(cfg.horizon)}",
        f"refinement = {cfg.refinement}",
        f"initial = {cfg.initial}",
        f"threads = {cfg.threads}",
        f"step_ceiling = {cfg.step_ceiling}",
        f"stability_ceiling = {repr(cfg.stability_ceiling)}",
    ]
    if cfg.spatial_modes:
        lines.append(
            "spatial_modes = " + ", ".join(str(n) for n in cfg.spatial_modes)
        )
        lines.append(f"spatial_reference = {cfg.spatial_reference}")
    lines += [
        "",
        "[noise]",
        f"kind = {cfg.noise_kind}",
        f"scale = {repr(cfg.noise_scale)}",
    ]
    if cfg.regularity is not None:
        lines.append(f"regularity = {repr(cfg.regularity)}")
    lines += [
        "",
        "[drift]",
        f"a3 = {repr(cfg.a3)}",
        f"a2 = {repr(cfg.a2)}",
        f"a1 = {repr(cfg.a1)}",
        f"a0 = {repr(cfg.a0)}",
        "",
        "[laws]",
        f"phi = {repr(cfg.phi)}",
        f"zeta = {repr(cfg.zeta)}",
        f"xi = {repr(cfg.xi)}",
        f"q0 = {repr(cfg.q0)}",
        f"tau_min = {repr(cfg.tau_min)}",
        f"uncapped_fallback = {str(cfg.uncapped_fallback).lower()}",
        f"projected_drift_norm = {str(cfg.projected_drift_norm).lower()}",
        "",
    ]
    return "\n".join(lines)


def load_preset(name: str) -> StudyConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        )
    ref = resources.files("allencahn") / "presets" / f"{name}.ini"
    return parse_config(ref.read_text(encoding="utf-8"), source=f"preset:{name}")


@dataclass
class RunManifest:
    """Key-value record of one CLI run; written even when the run fails."""

    command: str
    config_path: str
    seed: int
    outputs: tuple[str, ...] = ()
    status: str = "incomplete"
    detail: str = ""
    started: float = 0.0
    finished: float = 0.0

    def render(self) -> str:
        from . import __version__

        def stamp(s: float) -> str:
            return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(s))

        lines = [
            f"version = {__version__}",
            f"python = {sys.version.split()[0]}",
            f"command = {self.command}",
            f"config = {self.config_path}",
            f"seed = {self.seed}",
            f"status = {self.status}",
            f"started = {stamp(self.started)}",
            f"finished = {stamp(self.finished)}",
        ]
        if self.detail:
            lines.append(f"detail = {self.detail}")
        for out in self.outputs:
            lines.append(f"output = {out}")
        return "\n".join(lines) + "\n"
