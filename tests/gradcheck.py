"""Central-difference gradient checking for the autodiff tests."""

import numpy as np

from tokendrop import autodiff as ad


def grad_check(f, x, eps=1e-6):
    """Max relative error between analytic and central-difference gradients.

    `f` must be a deterministic scalar-valued function of one Tensor.
    """
    x_check = ad.Tensor(x.data.copy(), requires_grad=True)
    with ad.GradTape():
        loss = f(x_check)
        ad.backward(loss, params=[x_check])
    analytic = x_check.grad.copy()

    numeric = np.zeros_like(x_check.data)
    flat = x_check.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(f(x_check).data)
        flat[i] = orig - eps
        dn = float(f(x_check).data)
        flat[i] = orig
        nflat[i] = (up - dn) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
