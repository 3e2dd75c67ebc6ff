"""Token-drop regularized encoder-decoder translation training kit."""

from .autodiff import GradTape, Tensor, backward
from .config import RunConfig, load_config
from .data import ParallelBatch, SyntheticTaskSpec, generate_synthetic_corpus, make_batches
from .dropping import DropConfig, corrupt, drop_records, sample_mask
from .evaluation import BleuReport, NoiseEvalSpec, corpus_bleu, greedy_decode, noise_eval
from .model import ModelConfig, init_parameters
from .objectives import LossReport, ObjectiveConfig
from .training import TrainConfig, TrainState, checkpoint, restore, run_training, train_step

__all__ = [
    "GradTape", "Tensor", "backward",
    "RunConfig", "load_config",
    "ParallelBatch", "SyntheticTaskSpec", "generate_synthetic_corpus", "make_batches",
    "DropConfig", "corrupt", "drop_records", "sample_mask",
    "BleuReport", "NoiseEvalSpec", "corpus_bleu", "greedy_decode", "noise_eval",
    "ModelConfig", "init_parameters",
    "LossReport", "ObjectiveConfig",
    "TrainConfig", "TrainState", "checkpoint", "restore", "run_training", "train_step",
]

__version__ = "0.1.0"
