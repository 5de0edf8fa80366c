"""Central finite-difference gradient oracle shared by network tests."""

import numpy as np

from ganfs.nets import bce_loss, forward


def numeric_bce_grads(net, x, t, h=1e-5):
    """Central-difference gradients of mean BCE wrt every parameter.

    Returns a per-layer list of (dw, db), the layout of the grads that
    backward() returns.
    """
    def loss():
        return bce_loss(forward(net, x), t)

    grads = []
    for layer in net.layers:
        parts = []
        for param in (layer.w, layer.b):
            g = np.zeros_like(param)
            flat = param.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                g.reshape(-1)[i] = (up - down) / (2.0 * h)
            parts.append(g)
        grads.append(tuple(parts))
    return grads


def relative_errors(analytic, numeric):
    """Flat per-parameter relative errors |a - n| / max(|a| + |n|, 1e-8)."""
    errs = []
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            errs.append((np.abs(a - n) / denom).reshape(-1))
    return np.concatenate(errs)
