import configparser
import inspect
from dataclasses import MISSING, fields, is_dataclass

import pytest

from tokendrop import config, evaluation, pipeline
from tokendrop.cli import build_parser
from tokendrop.config import ConfigError, RunConfig, dump_config, load_config

EVAL_FLAGS = ("eval.noise_rates", "eval.noise_samples", "eval.seed", "eval.max_decode_len")


def leaf_fields(cfg):
    """(section, key, value) for every non-dataclass field reachable from a
    RunConfig; a nested dataclass field names its own section."""
    def walk(section, obj):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if is_dataclass(value):
                yield from walk(f.name, value)
            else:
                yield section, f.name, value
    for f in fields(cfg):
        yield from walk(f.name, getattr(cfg, f.name))


def as_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


class TestRoundTrip:
    @pytest.mark.parametrize("overrides", [
        (),
        ("eval.noise_rates=0.0,0.05", "train.lr_factor=0.5", "task.identity_mapping=true",
         "drop.strategy=drop_tag", "data.train_src=corpus/train.src", "eval.noise_samples=7"),
    ])
    def test_dump_then_load_gives_an_equal_config(self, tmp_path, overrides):
        cfg = load_config(None, overrides)
        path = tmp_path / "config.ini"
        dump_config(cfg, path)
        assert load_config(path) == cfg

    def test_sections_in_file_order_with_task_after_data(self, tmp_path):
        path = tmp_path / "config.ini"
        dump_config(RunConfig(), path)
        headers = [line for line in path.read_text().splitlines() if line.startswith("[")]
        assert headers == ["[data]", "[task]", "[model]", "[drop]", "[objective]",
                           "[train]", "[eval]"]


class TestKeys:
    def test_every_field_is_a_key_or_derived(self, tmp_path):
        # a field added to any config dataclass must be settable, or listed in _DERIVED
        path = tmp_path / "config.ini"
        dump_config(RunConfig(), path)
        dumped = configparser.ConfigParser()
        dumped.read(path)
        for section, key, value in leaf_fields(RunConfig()):
            override = f"{section}.{key}={as_text(value)}"
            if (section, key) in config._DERIVED:
                with pytest.raises(ConfigError, match=key):
                    load_config(None, [override])
                assert key not in dumped[section]
            else:
                loaded = {(s, k): v for s, k, v in leaf_fields(load_config(None, [override]))}
                assert loaded[section, key] == value
                assert dumped[section][key].replace(" ", "") == as_text(value)

    def test_override_sets_the_field_with_its_type(self):
        cfg = load_config(None, ["train.max_steps=7", "model.p_dropout=0.25",
                                 "task.identity_mapping=yes", "model.tie_dtp=off",
                                 "eval.noise_rates=0 0.2,0.3", "drop.strategy=zero_out"])
        assert cfg.train.max_steps == 7 and cfg.model.p_dropout == 0.25
        assert cfg.data.task.identity_mapping is True and cfg.model.tie_dtp is False
        assert cfg.eval.noise_rates == (0.0, 0.2, 0.3)
        assert cfg.drop.strategy == "zero_out"

    @pytest.mark.parametrize("override, named", [
        ("model.src_vocab_size=5", r"\[model\] src_vocab_size"),
        ("model.tgt_vocab_size=5", r"\[model\] tgt_vocab_size"),
        ("data.task=x", r"\[data\] task"),
        ("bogus.seed=1", r"\[bogus\] seed"),
        ("train.momentum=0.9", r"\[train\] momentum"),
    ])
    def test_unknown_key_rejected_by_name(self, override, named):
        with pytest.raises(ConfigError, match=named):
            load_config(None, [override])

    @pytest.mark.parametrize("override", ["train.max_steps=ten", "task.identity_mapping=maybe",
                                          "eval.noise_rates=0.1,x", "noseparator"])
    def test_bad_value_rejected(self, override):
        with pytest.raises(ConfigError):
            load_config(None, [override])


class TestFile:
    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"section \[objectives\]"):
            load_config(write(tmp_path, "[objectives]\nalpha = 1\n"))

    @pytest.mark.parametrize("written", ["seed", "Seed"])  # configparser lowercases keys
    def test_unknown_key_reported_at_its_line_in_its_section(self, tmp_path, written):
        path = write(tmp_path, f"[task]\nseed = 1\n\n[objective]\n{written} = 3\n")
        with pytest.raises(ConfigError, match=r"\[objective\] seed \(line 5\)"):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 1\n",  # was ignored: every seed stayed 0
        "[DEFAULT]\nseed = 1\n\n[train]\nmax_steps = 9\n",  # set train.seed=1
        "[DEFAULT]\nseed = 1\n\n[model]\nd_model = 32\n",  # blamed [model] seed
    ], ids=["alone", "next_to_train", "next_to_model"])
    def test_default_section_keys_rejected_by_name(self, tmp_path, text):
        with pytest.raises(ConfigError, match=r"\[DEFAULT\].*: seed$"):
            load_config(write(tmp_path, text))

    def test_overrides_apply_after_the_file(self, tmp_path):
        path = write(tmp_path, "[train]\nseed = 4\nmax_steps = 9\n")
        cfg = load_config(path, ["train.seed=5"])
        assert (cfg.train.seed, cfg.train.max_steps) == (5, 9)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")


class TestTaskValues:
    @pytest.mark.parametrize("override, name", [
        ("task.n_train=-3", "n_train"),
        ("task.n_train=0", "n_train"),
        ("task.n_valid=-1", "n_valid"),
        ("task.n_test=-1", "n_test"),
        ("task.source_vocab_size=0", "source_vocab_size"),
    ])
    def test_bad_count_rejected_by_name(self, override, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            load_config(None, [override])


class TestEvalValues:
    @pytest.mark.parametrize("override, message", [
        ("eval.noise_samples=0", "samples"),
        ("eval.noise_rates=0.0,2.0", "rates"),
        ("eval.noise_rates=-0.1", "rates"),
        ("eval.noise_rates=", "rates"),
        ("eval.max_decode_len=0", "max_decode_len"),
        ("eval.sweep_rates=", "sweep rates"),
        ("eval.sweep_rates=2.0", "sweep rates"),
    ])
    def test_bad_eval_value_rejected_on_load(self, tmp_path, override, message):
        with pytest.raises(ValueError, match=message):
            load_config(None, [override])
        section, rest = override.split(".", 1)
        key, value = rest.split("=")
        with pytest.raises(ValueError, match=message):
            load_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))

    def test_noise_spec_carries_the_eval_settings(self):
        cfg = load_config(None, ["eval.noise_rates=0,0.1", "eval.noise_samples=3",
                                 "eval.seed=9", "eval.max_decode_len=12"])
        assert cfg.eval.noise_spec() == evaluation.NoiseEvalSpec(
            rates=(0.0, 0.1), samples=3, seed=9, max_decode_len=12)

    def test_eval_defaults_live_only_in_eval_config(self):
        assert all(f.default is MISSING for f in fields(evaluation.NoiseEvalSpec))
        for fn in (evaluation.greedy_decode, evaluation.greedy_decode_batch,
                   pipeline.evaluate_clean):
            last = list(inspect.signature(fn).parameters.values())[-1]
            assert last.default is inspect.Parameter.empty, fn.__name__
        parser = build_parser()
        for command, keys in (("evaluate", EVAL_FLAGS[-1:]), ("robustness", EVAL_FLAGS)):
            args = vars(parser.parse_args([command, "--run", "r"]))
            assert {k: v for k, v in args.items() if k.startswith("eval.")} == dict.fromkeys(keys)
