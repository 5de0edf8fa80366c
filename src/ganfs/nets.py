"""Small dense-network engine: forward, backprop, Adam, checkpoint documents.

Everything runs in float64 numpy. Layers are fully connected with relu,
sigmoid or identity activations. One forward loop caches every layer's
output; one backprop loop takes dL/dz of the output layer from the caller,
which owns the loss. Chaining two networks (a generator updated through a
frozen discriminator) feeds one network's input gradient into the other.

Output buffers are optional. Without them each call allocates its
results. A caller that repeats a step, as GAN training does, can pass
C-contiguous arrays of the result shapes instead: float64 ones for each
layer's output in ``activations``, for the work array of a sigmoid
output layer and for the gradients of ``backward``, bool ones for the
masks of its relu hidden layers, and a float64 scratch array for
``adam_step``. The results are then written there, bit for bit what the
allocating call returns, and no batch-sized array is allocated but the
slope of a sigmoid hidden layer. Given buffers, ``backward`` also reuses
the hidden outputs in ``acts``: each hidden layer's dL/dz is written
over that layer's output once its slope has been taken, which is the
output's last read.
"""

from dataclasses import dataclass, field

import numpy as np

BCE_CLAMP = 1e-7

ACTIVATIONS = ("relu", "sigmoid", "identity")


@dataclass
class DenseLayer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)
    activation: str


@dataclass
class DenseNetwork:
    layers: list

    @property
    def sizes(self):
        return [self.layers[0].w.shape[0]] + [l.w.shape[1] for l in self.layers]

    @property
    def activations(self):
        return [l.activation for l in self.layers]

    def parameter_count(self):
        return sum(l.w.size + l.b.size for l in self.layers)


def _check_activations(activations):
    for a in activations:
        if a not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{a}'")


def init_network(sizes, activations, rng) -> DenseNetwork:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    if len(activations) != len(sizes) - 1:
        raise ValueError("need one activation per layer")
    _check_activations(activations)
    layers = []
    for fan_in, fan_out, act in zip(sizes, sizes[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(DenseLayer(w=w, b=np.zeros(fan_out), activation=act))
    return DenseNetwork(layers=layers)


def sigmoid(z, out=None, work=None):
    """Numerically stable logistic function; ``out`` may be ``z`` itself.

    With e = exp(-|z|), which never overflows, the value is 1 / (1 + e)
    where z >= 0 and e / (1 + e) elsewhere: bit for bit the two masked
    branches 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)). One unmasked
    division gives both, because the numerator max(sign(z), e) is exactly
    1 where z > 0, e = 1 where z is 0 and e where z < 0. ``work``, if
    given, is a float64 array of ``z``'s shape that receives e, then
    1 + e; ``out`` and ``work`` follow the module's output-buffer
    contract.
    """
    z = np.asarray(z, dtype=np.float64)
    if out is None:
        out = np.empty_like(z)
    if work is None:
        work = np.empty_like(z)
    np.exp(np.copysign(z, -1.0, out=work), out=work)  # e
    np.maximum(np.sign(z, out=out), work, out=out)  # the last read of z
    work += 1.0
    return np.divide(out, work, out=out)


def activate(z, kind, work=None):
    """Apply one activation by overwriting ``z``, which is returned;
    ``work`` is the sigmoid's, as in ``sigmoid``."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "sigmoid":
        return sigmoid(z, out=z, work=work)
    return z


def _slope(a, kind, mask=None):
    """The activation's derivative, taken from its output ``a`` alone, or
    None for identity.

    For relu, a > 0 exactly when z > 0, so pre-activations are not kept;
    that bool mask is written into ``mask`` if one is given.
    """
    if kind == "relu":
        return np.greater(a, 0.0, out=mask)
    if kind == "sigmoid":
        return a * (1.0 - a)
    return None


def activations(net: DenseNetwork, x: np.ndarray, outs=None,
                work=None) -> list:
    """Forward pass keeping every layer's output: [x, a1, ..., aL].

    ``outs``, if given, holds one (rows, fan_out) array per layer, and
    layer l's output is written into ``outs[l]``. ``work``, if given, is
    an array of the output layer's shape, the sigmoid's work array there.
    """
    acts = [np.asarray(x, dtype=np.float64)]
    last = len(net.layers) - 1
    for l, layer in enumerate(net.layers):
        z = np.matmul(acts[-1], layer.w, out=None if outs is None else outs[l])
        z += layer.b
        acts.append(activate(z, layer.activation,
                             work if l == last else None))
    return acts


def forward(net: DenseNetwork, x: np.ndarray, outs=None,
            work=None) -> np.ndarray:
    return activations(net, x, outs, work)[-1]


def bce_loss(p, t) -> float:
    """Mean binary cross-entropy with predictions clamped away from {0, 1}."""
    p = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    t = np.asarray(t, dtype=np.float64)
    return float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))))


def backward(net: DenseNetwork, acts: list, delta: np.ndarray,
             frozen=False, out=None, masks=None):
    """Backpropagate dL/dz of the output layer through cached activations.

    ``acts`` is what ``activations(net, x)`` returned. For mean BCE on a
    sigmoid output p with targets t, dL/dz = (p - t) / p.size, which stays
    exact where the clamped loss itself saturates. Returns (grads, None),
    grads being a per-layer list of (dw, db) for an update; a non-finite
    one is an error, not an update. With ``frozen`` the network is not
    updated: the parameter gradients are skipped and (None, dL/dx) is
    returned, for a caller that chains dL/dx into another network.

    ``out``, if given, receives the result: the per-layer (dw, db) arrays,
    or with ``frozen`` the dL/dx array. Each hidden layer's dL/dz is then
    written over that layer's entry of ``acts``. ``acts[0]``, the input,
    is only read, and ``acts[-1]`` is not read at all.

    ``masks``, if given, holds one bool array of ``acts[l]``'s shape per
    hidden layer l = 1, ..., L - 1, and a relu layer's mask is written
    into ``masks[l - 1]``. Each mask is written and read within its own
    layer's step, so the masks may share memory with each other.
    """
    grads = [None] * len(net.layers)
    for l in range(len(net.layers) - 1, -1, -1):
        if not frozen:
            dw, db = (None, None) if out is None else out[l]
            grads[l] = (np.matmul(acts[l].T, delta, out=dw),
                        np.sum(delta, axis=0, out=db))
        if l > 0:
            slope = _slope(acts[l], net.layers[l - 1].activation,
                           None if masks is None else masks[l - 1])
            delta = np.matmul(delta, net.layers[l].w.T,
                              out=None if out is None else acts[l])
            if slope is not None:
                delta *= slope
    if frozen:
        return None, np.matmul(delta, net.layers[0].w.T, out=out)
    for dw, db in grads:
        if not (np.isfinite(dw).all() and np.isfinite(db).all()):
            raise ValueError("non-finite gradient; aborting instead of "
                             "training on garbage")
    return grads, None


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(net: DenseNetwork, lr=0.001) -> AdamState:
    zeros = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in net.layers]
    return AdamState(lr=lr, m=[(mw.copy(), mb.copy()) for mw, mb in zeros],
                     v=zeros)


def adam_step(net: DenseNetwork, grads, state: AdamState, scratch=None):
    """One Adam update with bias correction; mutates net and state.

    Each parameter moves by lr * (m / c1) / (sqrt(v / c2) + eps), its
    operations in that order. ``scratch``, if given, is a float64 array
    of at least twice the largest parameter's size, and the update's
    two temporaries are written there instead of allocated.
    """
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for layer, (dw, db), m, v in zip(net.layers, grads, state.m, state.v):
        for param, g, mom, sec in ((layer.w, dw, m[0], v[0]),
                                   (layer.b, db, m[1], v[1])):
            if scratch is None:
                a, b = np.empty_like(g), np.empty_like(g)
            else:
                a, b = (scratch[i * g.size:(i + 1) * g.size].reshape(g.shape)
                        for i in (0, 1))
            mom *= state.beta1
            mom += np.multiply(1.0 - state.beta1, g, out=a)
            sec *= state.beta2
            np.multiply(1.0 - state.beta2, g, out=a)
            sec += np.multiply(a, g, out=a)
            np.multiply(state.lr, np.divide(mom, c1, out=a), out=a)
            np.sqrt(np.divide(sec, c2, out=b), out=b)
            b += state.eps
            param -= np.divide(a, b, out=a)


def network_doc(net: DenseNetwork, array=np.ndarray.tolist) -> dict:
    """Self-describing document of one network, each weight and bias array
    passed through ``array``. The default gives a JSON-ready dict whose
    floats survive json exactly; a writer that encodes one array at a time
    passes ``np.asarray`` to keep the arrays."""
    return {
        "sizes": net.sizes,
        "activations": net.activations,
        "weights": [array(l.w) for l in net.layers],
        "biases": [array(l.b) for l in net.layers],
    }


def network_from_doc(doc: dict) -> DenseNetwork:
    """Inverse of network_doc; a doc that does not describe a network is a
    ValueError."""
    _check_activations(doc["activations"])
    layers = []
    for w, b, act in zip(doc["weights"], doc["biases"], doc["activations"]):
        layers.append(DenseLayer(w=np.asarray(w, dtype=np.float64),
                                 b=np.asarray(b, dtype=np.float64),
                                 activation=act))
    sizes = doc["sizes"]
    if not layers or [(l.w.shape, l.b.shape) for l in layers] != [
            ((i, o), (o,)) for i, o in zip(sizes, sizes[1:])]:
        raise ValueError("weight shapes disagree with declared sizes")
    if not all(np.isfinite(l.w).all() and np.isfinite(l.b).all()
               for l in layers):
        raise ValueError("non-finite weight or bias")
    return DenseNetwork(layers=layers)
