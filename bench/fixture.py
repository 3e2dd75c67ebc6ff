"""The trained model that the `robustness` workload decodes.

An untrained model emits EOS at once, so decoding it times nothing. The
fixture is trained from a fixed seed to a fixed step on an easy copy task,
where it learns to translate (validation perplexity about 3.4) yet still runs
away on a few sentences. Training is bitwise deterministic, so the result is
cached under a key that covers the package sources, the fixture config, this
file, numpy and Python.

Run as a script to build one fixture:
    python3 bench/fixture.py <src dir> <out dir> <config override>...
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

# Training config of the fixture, as load_config overrides.
FIXTURE_OVERRIDES = (
    "task.identity_mapping=true", "task.reorder_window=1", "model.p_dropout=0",
    "train.lr_factor=0.5", "train.warmup_steps=100",
    "train.max_steps=300", "train.validate_every=300", "eval.max_decode_len=64",
)
CHECKPOINT = "checkpoint.npz"
SLICE = "slice.json"
# Sentences in the decoded slice: the test sentences whose clean decode is
# longest. Taking the longest makes nearly every decode pass run to
# max_decode_len whatever the noise seed, so the work per pass is fixed.
SLICE_SIZE = 5


def cache_key(src_dir, overrides):
    """Digest of every file under `src_dir`, the overrides, this file (which
    picks the slice) and the toolchain."""
    import numpy

    h = hashlib.sha256()
    with open(__file__, "rb") as fh:
        h.update(hashlib.sha256(fh.read()).digest())
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src_dir).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    h.update(json.dumps([list(overrides), numpy.__version__, platform.python_version()]).encode())
    return h.hexdigest()[:20]


def build(out_dir, overrides, slice_size=SLICE_SIZE):
    """Train the fixture into `out_dir` and pick its decode slice.

    Writes to a temporary directory first and renames it, so a half-built
    fixture is never taken for a finished one.
    """
    from tokendrop import config, evaluation, pipeline

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    cfg = config.load_config(None, list(overrides))
    state, bundle, _ = pipeline.train_run(cfg, tmp)
    max_len = cfg.eval.max_decode_len
    lengths = [len(evaluation.greedy_decode(src, state, max_len)) for src, _ in bundle.test]
    longest = sorted(range(len(lengths)), key=lambda i: (-lengths[i], i))[:slice_size]
    with open(os.path.join(tmp, SLICE), "w", encoding="utf-8") as fh:
        json.dump({"test_indices": sorted(longest),
                   "clean_lengths": [lengths[i] for i in sorted(longest)]}, fh)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)


def ensure(src_dir, cache_dir):
    """Directory of the cached fixture, built in a child process if missing."""
    key = cache_key(os.path.join(src_dir, "tokendrop"), FIXTURE_OVERRIDES)
    out_dir = os.path.join(cache_dir, "fixture-" + key)
    if not os.path.exists(os.path.join(out_dir, SLICE)):
        os.makedirs(cache_dir, exist_ok=True)
        subprocess.run([sys.executable, os.path.abspath(__file__), src_dir, out_dir,
                        *FIXTURE_OVERRIDES], check=True, timeout=840, stdout=subprocess.DEVNULL)
    return out_dir


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    build(sys.argv[2], sys.argv[3:])
