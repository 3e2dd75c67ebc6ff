"""Run configuration: a flat key = value file with sections.

Each key is a field of a config dataclass, which holds its only default; a
fully defaulted config trains the desk-scale Unk-Tag model on the built-in
synthetic task. The paper's Transformer baseline is the same config with
`drop.p_source=0 drop.p_target=0 objective.alpha=0 objective.beta=0`.
Unknown sections and keys, and keys under [DEFAULT], are rejected by name.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, is_dataclass

from .data import SyntheticTaskSpec
from .dropping import DropConfig
from .evaluation import NoiseEvalSpec
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

    def __post_init__(self):
        self.noise_spec()
        if not self.sweep_rates or any(not 0.0 <= r <= 1.0 for r in self.sweep_rates):
            raise ValueError("sweep rates must be given and lie in [0, 1]")

    def noise_spec(self):
        """The robustness protocol these settings describe (validated)."""
        return NoiseEvalSpec(rates=tuple(self.noise_rates), samples=self.noise_samples,
                             seed=self.seed, max_decode_len=self.max_decode_len)


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    drop: DropConfig = field(default_factory=DropConfig)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _float_list(s):
    return tuple(float(x) for x in s.replace(",", " ").split())


def _bool(s):
    try:  # 1/0, true/false, yes/no, on/off
        return configparser.ConfigParser.BOOLEAN_STATES[str(s).strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {s!r}") from None


_PARSERS = {"bool": _bool, "int": int, "float": float, "str": str, "tuple": _float_list}
# Set by build_state from the vocabularies, so no config may set them.
_DERIVED = {("model", "src_vocab_size"), ("model", "tgt_vocab_size")}


def _sections(cfg):
    """Section name -> config dataclass, in file order; data.task is its own section."""
    sections = {}
    for f in fields(cfg):
        sections[f.name] = sub = getattr(cfg, f.name)
        for g in fields(sub):
            if is_dataclass(getattr(sub, g.name)):
                sections[g.name] = getattr(sub, g.name)
    return sections


def _keys(section, obj):
    """Key -> value parser for every settable field of one section."""
    return {f.name: _PARSERS[f.type] for f in fields(obj)
            if (section, f.name) not in _DERIVED and not is_dataclass(getattr(obj, f.name))}


def _find_line(path, section, key):
    current = None
    try:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                text = line.strip()
                if text.startswith("[") and text.endswith("]"):
                    current = text[1:-1].strip()
                elif current == section and text.split("=")[0].strip().lower() == key:
                    return i
    except OSError:
        pass
    return None


def _assign(sections, section, key, raw, path=None):
    keys = _keys(section, sections[section]) if section in sections else {}
    if key not in keys:
        line = _find_line(path, section, key) if path else None
        where = f" (line {line})" if line else ""
        raise ConfigError(f"unknown config key [{section}] {key}{where}")
    try:
        value = keys[key](raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc
    setattr(sections[section], key, value)


def load_config(path=None, overrides=()):
    """Build a RunConfig from an optional ini-style file plus overrides.

    Overrides are "section.key=value" strings (the CLI's repeatable --set).
    """
    cfg = RunConfig()
    sections = _sections(cfg)
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        if parser.defaults():  # configparser would copy them into every section
            raise ConfigError("keys under [DEFAULT] are not supported: "
                              + ", ".join(parser.defaults()))
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                _assign(sections, section, key, raw, path)
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {ov!r}")
        dotted, raw = ov.split("=", 1)
        section, key = dotted.strip().split(".", 1)
        _assign(sections, section, key.strip(), raw.strip())
    # re-run dataclass validation on mutated configs
    for sub in sections.values():
        if hasattr(sub, "__post_init__"):
            sub.__post_init__()
    if cfg.eval.max_decode_len > cfg.model.max_len:
        raise ConfigError(f"eval.max_decode_len {cfg.eval.max_decode_len} exceeds model.max_len "
                          f"{cfg.model.max_len}: each decode step needs a position")
    for given, missing in (("vocab_src", "vocab_tgt"), ("vocab_tgt", "vocab_src")):
        if getattr(cfg.data, given) and not getattr(cfg.data, missing):
            raise ConfigError(f"{given} is set without {missing}: saved vocabularies are "
                              "loaded as a pair, so set both [data] keys or neither")
    return cfg


def dump_config(cfg, path):
    """Write the fully resolved config (all defaults filled in)."""
    parser = configparser.ConfigParser()
    for section, target in _sections(cfg).items():
        parser[section] = {}
        for key in _keys(section, target):
            value = getattr(target, key)
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            parser[section][key] = str(value)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
