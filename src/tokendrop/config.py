"""Run configuration: a flat key = value file with sections.

Every key has a default; a fully defaulted config trains the desk-scale
Unk-Tag model on the built-in synthetic task. Unknown sections or keys are
rejected by name (with the line in the file when one exists).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .data import SyntheticTaskSpec
from .dropping import DropConfig
from .model import ModelConfig
from .objectives import ObjectiveConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
    synthetic: bool = True
    max_vocab: int = 10000
    train_src: str = ""
    train_tgt: str = ""
    valid_src: str = ""
    valid_tgt: str = ""
    test_src: str = ""
    test_tgt: str = ""
    vocab_src: str = ""
    vocab_tgt: str = ""
    task: SyntheticTaskSpec = field(default_factory=SyntheticTaskSpec)


@dataclass
class EvalConfig:
    noise_rates: tuple = (0.0, 0.05, 0.10, 0.15)
    noise_samples: int = 100
    sweep_rates: tuple = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    max_decode_len: int = 64
    seed: int = 0


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=lambda: ModelConfig())
    drop: DropConfig = field(default_factory=DropConfig)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _float_list(s):
    return tuple(float(x) for x in s.replace(",", " ").split())


def _bool(s):
    low = str(s).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_SCHEMA = {
    "data": {
        "synthetic": _bool, "max_vocab": int,
        "train_src": str, "train_tgt": str, "valid_src": str, "valid_tgt": str,
        "test_src": str, "test_tgt": str, "vocab_src": str, "vocab_tgt": str,
    },
    "task": {
        "source_vocab_size": int, "target_vocab_size": int, "mapping_seed": int,
        "reorder_window": int, "n_train": int, "n_valid": int, "n_test": int,
        "len_min": int, "len_max": int, "seed": int, "identity_mapping": _bool,
    },
    "model": {
        "d_model": int, "d_ffn": int, "n_layers": int, "n_heads": int,
        "p_dropout": float, "max_len": int, "shared_embedding": _bool,
        "tie_dtp": _bool, "tie_output": _bool,
    },
    "drop": {"p_source": float, "p_target": float, "strategy": str, "seed": int},
    "objective": {"alpha": float, "beta": float},
    "train": {
        "max_steps": int, "batch_size": int, "lr_factor": float, "warmup_steps": int,
        "beta1": float, "beta2": float, "adam_eps": float, "clip_norm": float,
        "validate_every": int, "seed": int, "use_token_drop": _bool,
    },
    "eval": {
        "noise_rates": _float_list, "noise_samples": int, "sweep_rates": _float_list,
        "max_decode_len": int, "seed": int,
    },
}


def _target(cfg, section):
    return {
        "data": cfg.data, "task": cfg.data.task, "model": cfg.model, "drop": cfg.drop,
        "objective": cfg.objective, "train": cfg.train, "eval": cfg.eval,
    }[section]


def _find_line(path, key):
    try:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                if line.split("=")[0].strip() == key:
                    return i
    except OSError:
        pass
    return None


def _assign(cfg, section, key, raw, path=None):
    if section not in _SCHEMA or key not in _SCHEMA[section]:
        line = _find_line(path, key) if path else None
        where = f" (line {line})" if line else ""
        raise ConfigError(f"unknown config key [{section}] {key}{where}")
    parser = _SCHEMA[section][key]
    try:
        value = parser(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc
    setattr(_target(cfg, section), key, value)


def load_config(path=None, overrides=()):
    """Build a RunConfig from an optional ini-style file plus overrides.

    Overrides are "section.key=value" strings (the CLI's repeatable --set).
    """
    cfg = RunConfig()
    applied = []
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                _assign(cfg, section, key, raw, path)
                applied.append((section, key))
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {ov!r}")
        dotted, raw = ov.split("=", 1)
        section, key = dotted.strip().split(".", 1)
        _assign(cfg, section, key.strip(), raw.strip())
    # re-run dataclass validation on mutated configs
    for sub in (cfg.data.task, cfg.model, cfg.drop, cfg.objective, cfg.train, cfg.eval):
        if hasattr(sub, "__post_init__"):
            sub.__post_init__()
    return cfg


def dump_config(cfg, path):
    """Write the fully resolved config (all defaults filled in)."""
    parser = configparser.ConfigParser()
    for section, keys in _SCHEMA.items():
        target = _target(cfg, section)
        parser[section] = {}
        for key in keys:
            value = getattr(target, key)
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            parser[section][key] = str(value)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
