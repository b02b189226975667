"""Pipeline configuration and run manifests.

Config files are plain ``key = value`` text ('#' starts a comment). Each
setting is settled once per command: its flag, else the config file, else
the PipelineConfig default. Every artifact-producing command writes a
``<output>.manifest.json`` sidecar whose ``config`` holds the command's
inputs and its settled settings under their config keys, next to
per-stage counts and content hashes, so writing those settings back as a
config file reproduces the run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .util import atomic_open


@dataclass
class PipelineConfig:
    """Defaults for every stage; commands read the slice they need."""

    random_length: int = 8
    max_len: int = 8  # 0 = unlimited
    max_width: int = 2  # 0 = unlimited
    max_contexts: int = 200
    d_emb: int = 128
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    min_count: int = 1
    val_fraction: float = 0.1
    patience: int = 3
    dropout_rate: float = 0.0
    selection: str = "all"
    k: int = 1
    aggregation: str = "mean"  # an aggregation name, or "suite"
    per_class_cap: int = 2000
    classifier_c: float = 1.0
    classifier_tol: float = 1e-3
    max_iterations: int = 1000
    runs: int = 10
    folds: int = 10
    seed: int = 0


_DEFAULTS = PipelineConfig()
_FIELD_TYPES = {name: type(value) for name, value in asdict(_DEFAULTS).items()}


def load_config_file(path: str | Path) -> dict[str, object]:
    """Parse a key = value config file into values of the keys' types.

    The whole file is checked: an unknown key or a value that does not
    convert to its key's type is an error, whichever command reads it.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        target = _FIELD_TYPES[key]
        try:
            values[key] = target(value)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} takes a {target.__name__}, got {value!r}"
            ) from None
    return values


def settle(args) -> dict:
    """Fill each setting that `args` has and no flag set: from the
    ``--config`` file if it names the key, else from PipelineConfig.

    A setting is an attribute of `args` named after a config key, so every
    command reads its settings from `args` alone. Returns the command's
    settled settings under their config keys, in PipelineConfig order.
    """
    path = getattr(args, "config", None)
    file_values = load_config_file(path) if path else {}
    settings = {}
    for key, default in asdict(_DEFAULTS).items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is None:
            setattr(args, key, file_values.get(key, default))
        settings[key] = getattr(args, key)
    return settings


@dataclass
class RunManifest:
    """Reproducibility sidecar written next to each produced artifact."""

    stage: str
    config: dict
    counts: dict = field(default_factory=dict)
    checkpoint_hash: str = ""
    partition_fingerprint: str = ""
    tool_version: str = __version__

    def write(self, path: str | Path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(asdict(self), sort_keys=True, indent=2) + "\n")


def read_manifest(path: str | Path, stage: str | None = None) -> dict:
    """A manifest's JSON object. ValueError names the file if it is not UTF-8
    JSON, its JSON, `config` or `counts` is not an object, its stage is not
    `stage` (if given) or a `config` setting is not of its PipelineConfig type."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON
        raise ValueError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: a manifest must be a JSON object")
    for key in ("config", "counts"):
        if not isinstance(manifest.get(key, {}), dict):
            raise ValueError(f"{path}: a manifest's {key!r} must be a JSON object")
    if stage is not None and manifest.get("stage") != stage:
        raise ValueError(f"{path}: not a manifest of the {stage} stage")
    for key, kind in _FIELD_TYPES.items():
        manifest_value(path, manifest, "config", key, kind)
    return manifest


def manifest_value(
    path: str | Path, manifest: dict, section: str, key: str, kind: type, default=None
):
    """manifest[section][key], or `default` where it is absent. A value that
    is not a `kind` (a bool is no int) raises ValueError naming path and key."""
    values = manifest.get(section, {})
    if key not in values:
        return default
    if type(values[key]) is not kind:
        raise ValueError(f"{path}: {key} takes a {kind.__name__}, got {values[key]!r}")
    return values[key]


def manifest_path_for(artifact: str | Path) -> Path:
    return Path(str(artifact) + ".manifest.json")
