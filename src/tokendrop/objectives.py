"""The three training losses and their weighted combination.

All losses are means over their own token counts so the default unit weights
keep the terms on comparable scales across batch sizes. The joint value is
formed by the same additions that the report stores; no re-derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class ObjectiveConfig:
    alpha: float = 1.0  # weight of the drop-detection loss
    beta: float = 1.0  # weight of the dropped-token prediction loss

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("objective weights must be >= 0")


@dataclass
class LossReport:
    l_m: float
    l_rtd: float
    l_dtp: float
    joint: float
    target_tokens: int = 0
    droppable_tokens: int = 0
    dropped_tokens: int = 0


class NonFiniteLossError(RuntimeError):
    """A loss component left the finite range; training must abort."""

    def __init__(self, component, value):
        super().__init__(f"loss component {component} is non-finite: {value}")
        self.component = component


def translation_loss(logits, target_output, pad_id):
    """Mean negative log-likelihood over non-pad target positions."""
    b, length, v = logits.data.shape
    flat = ad.reshape(logits, (b * length, v))
    return ad.cross_entropy(flat, np.asarray(target_output).reshape(-1), ignore_id=pad_id)


def rtd_loss(probs, mask, droppable):
    """Binary cross-entropy of drop probabilities against the true mask,
    averaged over droppable positions; 0 when nothing was droppable.

    `probs` must lie strictly inside (0, 1), as `model.rtd_head` guarantees
    by clipping; an exact 0 or 1 makes the loss infinite.
    """
    droppable = np.asarray(droppable, dtype=bool)
    labels = np.asarray(mask, dtype=np.float64)
    per_pos = ad.add(ad.mul(ad.log(probs), labels),
                     ad.mul(ad.log(ad.sub(1.0, probs)), 1.0 - labels))
    masked = ad.mul(per_pos, droppable.astype(np.float64))
    return ad.mul(ad.tsum(masked), -1.0 / max(int(droppable.sum()), 1))


def dtp_loss(dtp_logits, original_ids):
    """Mean NLL of the true original token at each dropped position; 0 when
    nothing was dropped."""
    return ad.cross_entropy(dtp_logits, original_ids)


def joint_loss(l_m, l_rtd, l_dtp, cfg):
    """Weighted sum of the three loss tensors plus its scalar report.

    Returns (joint tensor, LossReport). The report's `joint` field is the
    value of the returned tensor itself.
    """
    for name, t in (("l_m", l_m), ("l_rtd", l_rtd), ("l_dtp", l_dtp)):
        if not np.isfinite(t.data):
            raise NonFiniteLossError(name, float(t.data))
    joint = ad.add(ad.add(l_m, ad.mul(l_rtd, cfg.alpha)), ad.mul(l_dtp, cfg.beta))
    report = LossReport(
        l_m=float(l_m.data),
        l_rtd=float(l_rtd.data),
        l_dtp=float(l_dtp.data),
        joint=float(joint.data),
    )
    return joint, report
