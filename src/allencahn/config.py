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
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources

import numpy
import scipy

from .errors import ConfigError
from .experiments import StudyConfig

# (section, key, StudyConfig field, kind), in rendering order.  Each key
# is declared here alone; parse_config and render_config both walk it.
_KEYS = (
    ("study", "kind", "kind", "str"),
    ("study", "schemes", "schemes", "list"),
    ("study", "laws", "laws", "list"),
    ("study", "deltas", "deltas", "deltas"),
    ("study", "samples", "samples", "int"),
    ("study", "seed", "seed", "int"),
    ("study", "n_modes", "n_modes", "int"),
    ("study", "horizon", "horizon", "float"),
    ("study", "refinement", "refinement", "int"),
    ("study", "initial", "initial", "str"),
    ("study", "threads", "threads", "int"),
    ("study", "spatial_modes", "spatial_modes", "intlist"),
    ("study", "spatial_reference", "spatial_reference", "int"),
    ("noise", "kind", "noise_kind", "str"),
    ("noise", "scale", "noise_scale", "float"),
    ("drift", "a3", "a3", "float"),
    ("drift", "a2", "a2", "float"),
    ("drift", "a1", "a1", "float"),
    ("drift", "a0", "a0", "float"),
    ("laws", "phi", "phi", "float"),
    ("laws", "zeta", "zeta", "float"),
    ("laws", "xi", "xi", "float"),
    ("laws", "q0", "q0", "float"),
    ("laws", "tau_min", "tau_min", "float"),
)

# Left out of the rendering while unset, so a temporal config reads as one.
_SPATIAL_FIELDS = ("spatial_modes", "spatial_reference")

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
    base, caret, exp = token.partition("^")
    try:
        # A power can divide by zero or overflow as well as fail to parse.
        return float(base) ** int(exp) if caret else float(token)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad delta token {token!r}") from exc


def _split(text: str) -> list[str]:
    return [t for t in text.replace(",", " ").split() if t]


def _delta_repr(d: float) -> str:
    exp = math.log2(d)
    if exp == int(exp):
        return f"2^{int(exp)}"
    return repr(d)


# kind -> (read, write): read turns the INI text into the field value,
# write turns the value back into text that read maps to an equal value.
_KINDS = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, repr),
    "list": (lambda t: tuple(_split(t)), ", ".join),
    "intlist": (
        lambda t: tuple(int(x) for x in _split(t)),
        lambda v: ", ".join(str(n) for n in v),
    ),
    "deltas": (
        lambda t: tuple(parse_delta_token(x) for x in _split(t)),
        lambda v: ", ".join(_delta_repr(d) for d in v),
    ),
}


def parse_config(text: str, source: str = "<string>") -> StudyConfig:
    # No header can name the empty section, so a [DEFAULT] section is an
    # ordinary one, and unknown, instead of defaults copied into every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    given = {
        (section, key): value.strip()
        for section in parser.sections()
        for key, value in parser.items(section, raw=True)
    }
    sections = {section for section, *_ in _KEYS}
    known = {(section, key) for section, key, *_ in _KEYS}
    unknown = [f"[{s}]" for s in parser.sections() if s not in sections]
    unknown += [f"[{s}] {k}" for s, k in given if s in sections and (s, k) not in known]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    fields = {}
    for section, key, field, kind in _KEYS:
        raw = given.get((section, key))
        if raw is None:
            continue
        try:
            fields[field] = _KINDS[kind][0](raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    if "deltas" not in fields:
        raise ConfigError(f"{source}: missing required key [study] deltas")
    return StudyConfig(**fields)


def load_config(path) -> StudyConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc.reason}") from exc
    return parse_config(text, source=str(path))


def render_config(cfg: StudyConfig) -> str:
    """Fully resolved INI text; parse_config(render_config(cfg)) == cfg."""
    blocks: dict[str, list[str]] = {}
    for section, key, field, kind in _KEYS:
        value = getattr(cfg, field)
        if field in _SPATIAL_FIELDS and not value:
            continue
        block = blocks.setdefault(section, [f"[{section}]"])
        block.append(f"{key} = {_KINDS[kind][1](value)}")
    return "\n\n".join("\n".join(block) for block in blocks.values()) + "\n"


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
            f"numpy = {numpy.__version__}",
            f"scipy = {scipy.__version__}",
            f"cpus = {os.cpu_count()}",
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
