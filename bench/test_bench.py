"""Tests of the benchmark itself: tiny smoke runs, wrapper removal, span
arithmetic, the fixture cache key and the refusal to run without sources."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import fixture  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanLog  # noqa: E402

TINY = ("model.d_model=16", "model.d_ffn=32", "model.n_heads=2", "task.source_vocab_size=20",
        "task.target_vocab_size=20", "task.n_train=256", "task.n_valid=32", "task.n_test=32",
        "task.len_min=3", "task.len_max=6", "train.batch_size=16")
TINY_FIXTURE = TINY + ("task.identity_mapping=true", "task.reorder_window=1", "model.p_dropout=0",
                       "train.lr_factor=2", "train.warmup_steps=20",
                       "train.max_steps=40", "train.validate_every=40",
                       "eval.max_decode_len=8")
TINY_PLAN = workloads.Plan(
    setup_reps=1,
    setup_reps_between=1,
    warmup_steps={"train_short": 2, "train_long": 1},
    window_steps={"train_short": 3, "train_long": 2},
    train_base=TINY,
    long_lengths=("task.len_min=8", "task.len_max=12"),
    fixture_overrides=TINY_FIXTURE,
    noise=("eval.noise_rates=0.0,0.1", "eval.noise_samples=1"),
)


@pytest.fixture(scope="module")
def tiny_fixture(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fixture") / "tiny")
    fixture.build(out, TINY_FIXTURE, slice_size=3)
    return out


def _benchmark_names(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[key]}


def _attributes(modules):
    return {(name, attr): value for name, mod in modules.items()
            for attr, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload, tiny_fixture):
    out = workloads.run(workload, 3, 0, False, TINY_PLAN, tiny_fixture)
    assert out.correct, out.problems
    assert out.attempted > 0 and out.failed == 0
    assert set(out.metrics) == _benchmark_names("end_to_end")
    assert all(v > 0 for v in out.metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_restores_every_wrapper(workload, tiny_fixture):
    modules = workloads.load_modules()
    before = _attributes(modules)
    out = workloads.run(workload, 3, 0, True, TINY_PLAN, tiny_fixture, modules)
    assert out.correct, out.problems
    assert out.digests[True] == out.digests[False] and len(out.digests[True]) == 1
    assert set(out.layers) == _benchmark_names("per_layer")
    assert len(out.tracer.log) > 0
    after = _attributes(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert modules["autodiff"].matmul is before[("autodiff", "matmul")]


def test_composite_op_is_charged_with_the_ops_it_calls(tiny_fixture):
    out = workloads.run("train_short", 3, 0, True, TINY_PLAN, tiny_fixture)
    assert out.correct, out.problems
    layers = out.layers
    assert layers["autodiff.fwd_ms.layer_norm"] > 0
    assert layers["autodiff.bwd_ms.layer_norm"] > 0
    log = out.tracer.log
    backward_ops = [tag.split("|")[0] for name, tag in zip(log.names, log.tags)
                    if name.endswith(".backward") and name != "autodiff.backward"]
    assert not {"tmean", "power"} & set(backward_ops)
    # every tape entry layer_norm records through add, mul, ... is charged to it
    forward_calls = log.names.count("autodiff.layer_norm")
    assert backward_ops.count("layer_norm") > 2 * forward_calls > 0


def test_same_seed_gives_same_outputs_and_other_seed_other_inputs(tiny_fixture):
    a = workloads.run("train_short", 5, 0, False, TINY_PLAN, tiny_fixture)
    b = workloads.run("train_short", 5, 0, False, TINY_PLAN, tiny_fixture)
    c = workloads.run("train_short", 6, 0, False, TINY_PLAN, tiny_fixture)
    assert a.digests[False] == b.digests[False] != c.digests[False]


def test_fixture_that_only_emits_eos_fails_loudly(tiny_fixture, monkeypatch):
    modules = workloads.load_modules()
    monkeypatch.setattr(modules["evaluation"], "greedy_decode_batch",
                        lambda sources, state, max_len: [[] for _ in sources])
    out = workloads.run("robustness", 3, 0, False, TINY_PLAN, tiny_fixture, modules)
    assert not out.correct
    assert any("empty" in p for p in out.problems)


def test_self_time_subtracts_the_part_children_cover():
    log = SpanLog()
    # name, start, end, parent
    spans = [("root", 0, 100, -1), ("a", 10, 40, 0), ("a.child", 20, 30, 1),
             ("b", 50, 60, 0), ("other", 200, 230, -1)]
    log.names, log.starts, log.ends, log.parents = (list(col) for col in zip(*spans))
    log.tags = [None] * len(spans)
    assert log.self_times() == [60, 20, 10, 10, 30]
    assert log.roots() == [0, 0, 0, 0, 4]


def test_recorded_spans_nest():
    log = SpanLog()
    outer = log.open("outer")
    inner = log.open("inner")
    log.close(inner)
    log.close(outer)
    assert log.parents == [-1, outer]
    assert log.self_times()[0] <= log.ends[outer] - log.starts[outer]


def test_cache_key_changes_with_any_source_file(tmp_path):
    src = tmp_path / "tokendrop"
    shutil.copytree(os.path.join(ROOT, "src", "tokendrop"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    key = fixture.cache_key(str(src), fixture.FIXTURE_OVERRIDES)
    assert fixture.cache_key(str(src), fixture.FIXTURE_OVERRIDES) == key
    assert fixture.cache_key(str(src), fixture.FIXTURE_OVERRIDES[:-1]) != key
    files = sorted(p for p in src.rglob("*") if p.is_file())
    assert files
    for path in files:
        original = path.read_bytes()
        path.write_bytes(original + b"\n")
        assert fixture.cache_key(str(src), fixture.FIXTURE_OVERRIDES) != key, path.name
        path.write_bytes(original)
    (src / "new_module.py").write_text("")
    assert fixture.cache_key(str(src), fixture.FIXTURE_OVERRIDES) != key


def test_cache_key_changes_with_the_slice_selection(tmp_path, monkeypatch):
    src = os.path.join(ROOT, "src", "tokendrop")
    key = fixture.cache_key(src, fixture.FIXTURE_OVERRIDES)
    edited = tmp_path / "fixture.py"
    with open(fixture.__file__, encoding="utf-8") as fh:
        edited.write_text(fh.read().replace(f"SLICE_SIZE = {fixture.SLICE_SIZE}",
                                            f"SLICE_SIZE = {fixture.SLICE_SIZE + 1}"))
    monkeypatch.setattr(fixture, "__file__", str(edited))
    assert fixture.cache_key(src, fixture.FIXTURE_OVERRIDES) != key


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".cache", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train_short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
