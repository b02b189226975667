"""Pipeline configuration and run manifests.

Config files are plain ``key = value`` text ('#' starts a comment); any
command-line flag overrides the file. Every artifact-producing command
writes a ``<output>.manifest.json`` sidecar capturing the exact
configuration, per-stage counts and content hashes needed to reproduce
the run.
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


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a key=value config file into raw string values."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _coerce(key: str, raw: str):
    target = _FIELD_TYPES[key]
    if target is bool:
        return raw.lower() in ("1", "true", "yes", "on")
    return target(raw)


def resolve(key: str, flag_value, file_values: dict[str, str]):
    """flag > config file > built-in default."""
    if flag_value is not None:
        return flag_value
    if key in file_values:
        return _coerce(key, file_values[key])
    return getattr(_DEFAULTS, key)


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
        payload = {
            "stage": self.stage,
            "tool_version": self.tool_version,
            "config": self.config,
            "counts": self.counts,
            "checkpoint_hash": self.checkpoint_hash,
            "partition_fingerprint": self.partition_fingerprint,
        }
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_manifest(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def manifest_path_for(artifact: str | Path) -> Path:
    return Path(str(artifact) + ".manifest.json")
