"""Poke at the dense-network engine: forward, backprop, Adam."""

import numpy as np

from ganfs.nets import (
    activations, adam_init, adam_step, backward, bce_loss, forward,
    init_network,
)

rng = np.random.default_rng(3)
net = init_network([4, 8, 1], ["relu", "sigmoid"], rng)
print(f"network {net.sizes} with {net.parameter_count()} parameters")

x = rng.uniform(-1, 1, size=(16, 4))
t = (x[:, :2].sum(axis=1) > 0).astype(np.float64).reshape(-1, 1)


def bce_step(net, x, t):
    """Mean BCE and its gradients: the output delta for a sigmoid + BCE
    pair is (p - t) / n, which backward() carries through the layers."""
    acts = activations(net, x)
    p = acts[-1]
    grads, _ = backward(net, acts, (p - t) / p.size)
    return bce_loss(p, t), grads


loss, grads = bce_step(net, x, t)
print(f"initial mean BCE {loss:.4f}")

# spot-check one weight against a central finite difference
layer, (i, j), h = net.layers[0], (0, 0), 1e-6
orig = layer.w[i, j]
layer.w[i, j] = orig + h
up = bce_loss(forward(net, x), t)
layer.w[i, j] = orig - h
down = bce_loss(forward(net, x), t)
layer.w[i, j] = orig
print(f"analytic dL/dw[0,0] {grads[0][0][i, j]:+.6e}, "
      f"finite difference {(up - down) / (2 * h):+.6e}")

state = adam_init(net, lr=0.01)
for step in range(200):
    loss, grads = bce_step(net, x, t)
    adam_step(net, grads, state)
    if step % 50 == 0 or step == 199:
        print(f"step {step:3d}  loss {loss:.4f}")

pred = forward(net, x) >= 0.5
print(f"fit accuracy on the toy batch: {float((pred == t).mean()):.2f}")
