"""Tests for the dense-network engine: math oracles, backprop, Adam, IO."""

import json
import math

import numpy as np
import pytest

from fdcheck import numeric_bce_grads, relative_errors
from ganfs.nets import (
    AdamState, activations, adam_init, adam_step, backward, bce_loss,
    forward, init_network, network_doc, network_from_doc, sigmoid,
)


def small_net(sizes=(3, 4, 1), activations=("relu", "sigmoid"), seed=0):
    return init_network(list(sizes), list(activations),
                        np.random.default_rng(seed))


def bce_backward(net, x, t, frozen=False):
    """What backward returns for mean BCE, with the delta the GAN steps
    use: (grads, None), or (None, input_grad) when ``frozen``."""
    acts = activations(net, x)
    p = acts[-1]
    return backward(net, acts, (p - t) / p.size, frozen=frozen)


def activations_oracle(net, x):
    """The forward loop with one fresh array per operation."""
    acts = [np.asarray(x, dtype=np.float64)]
    for layer in net.layers:
        z = acts[-1] @ layer.w + layer.b
        if layer.activation == "relu":
            z = np.maximum(z, 0.0)
        elif layer.activation == "sigmoid":
            z = sigmoid(z)
        acts.append(z)
    return acts


def backward_oracle(net, acts, delta, frozen=False):
    """The backprop loop that computes every gradient, the parameter
    gradients and the layer-0 input gradient alike, with the activation
    slope as a separate array; ``frozen`` is ignored."""
    grads = [None] * len(net.layers)
    for l in range(len(net.layers) - 1, -1, -1):
        grads[l] = (acts[l].T @ delta, delta.sum(axis=0))
        upstream = delta @ net.layers[l].w.T
        if l > 0:
            a, kind = acts[l], net.layers[l - 1].activation
            if kind == "relu":
                slope = (a > 0.0).astype(np.float64)
            elif kind == "sigmoid":
                slope = a * (1.0 - a)
            else:
                slope = np.ones_like(a)
            delta = upstream * slope
    return grads, upstream


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_sigmoid_oracle_values():
    # 1 / (1 + e^-1), computed independently via math.exp
    assert sigmoid(np.array([0.0]))[0] == 0.5
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert sigmoid(np.array([1.0]))[0] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.7310585786300049, abs=1e-15)


def test_sigmoid_is_stable_at_extreme_inputs():
    with np.errstate(over="raise"):
        out = sigmoid(np.array([-1000.0, 1000.0]))
    assert out.tolist() == [0.0, 1.0]


def masked_sigmoid(z, out=None):
    """The two-branch sigmoid by boolean gather and scatter: the oracle."""
    z = np.asarray(z, dtype=np.float64)
    if out is None:
        out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# signed zeros, the edges of exp's range, saturation and the smallest
# subnormal, each in both signs
SIGMOID_EDGES = (0.0, -0.0, 745.0, -745.0, 1000.0, -1000.0, 5e-324, -5e-324,
                 708.0, -708.0, 36.7, -36.7)


# the last shape is the generator's output on a batch of 1 024
@pytest.mark.parametrize("shape", [(8000, 1), (4000, 20), (8000, 128),
                                   (1024, 81)])
def test_sigmoid_is_bitwise_the_masked_form(shape):
    rng = np.random.default_rng(shape[1])
    z = rng.normal(0.0, 1.0, size=shape) * rng.choice([0.1, 3.0, 40.0],
                                                      size=shape)
    spots = rng.choice(z.size, size=8 * len(SIGMOID_EDGES), replace=False)
    z.reshape(-1)[spots] = np.repeat(SIGMOID_EDGES, 8)
    want = masked_sigmoid(z).view(np.int64)
    assert np.array_equal(sigmoid(z).view(np.int64), want)
    zz = z.copy()
    assert sigmoid(zz, out=zz) is zz
    assert np.array_equal(zz.view(np.int64), want)
    # a separate output buffer leaves the input alone
    buf = np.full(shape, np.nan)
    kept = z.copy()
    assert sigmoid(z, out=buf) is buf
    assert np.array_equal(buf.view(np.int64), want)
    assert np.array_equal(z.view(np.int64), kept.view(np.int64))
    # a work buffer, with a separate output and in place
    work = np.full(shape, np.nan)
    assert sigmoid(z, out=buf, work=work) is buf
    assert np.array_equal(buf.view(np.int64), want)
    zz = z.copy()
    assert sigmoid(zz, out=zz, work=work) is zz
    assert np.array_equal(zz.view(np.int64), want)
    assert np.array_equal(z.view(np.int64), kept.view(np.int64))


def test_sigmoid_edge_values_are_exact():
    z = np.array(SIGMOID_EDGES)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = sigmoid(z)
    assert out.view(np.int64).tolist() == masked_sigmoid(z).view(
        np.int64).tolist()
    assert out[:8].tolist() == [0.5, 0.5, 1.0, 5e-324, 1.0, 0.0, 0.5, 0.5]
    want = out.view(np.int64).tolist()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        zz = z.copy()
        assert sigmoid(zz, out=zz, work=np.empty_like(z)) is zz
        assert zz.view(np.int64).tolist() == want
        for i, v in enumerate(SIGMOID_EDGES):  # 0-d in, 0-d out
            one = sigmoid(np.float64(v))
            assert one.shape == () and one.view(np.int64) == want[i]
            zz = np.array(v)
            assert sigmoid(zz, out=zz, work=np.empty(())) is zz
            assert zz.view(np.int64) == want[i]
    assert sigmoid(np.float64(-1000.0)) == 0.0
    assert sigmoid(np.empty((0, 3))).shape == (0, 3)


def test_bce_oracle_values():
    # -ln 0.5 = ln 2 for a maximally uncertain prediction of a positive
    assert bce_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(
        math.log(2.0), abs=1e-15)
    # soft targets: mean of -(t ln p + (1-t) ln(1-p)) at p == t
    p = np.array([0.9, 0.1])
    expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert bce_loss(p, p) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.32508297339144826, abs=1e-15)


def test_bce_clamps_saturated_predictions():
    loss = bce_loss(np.array([0.0]), np.array([1.0]))
    assert math.isfinite(loss)
    assert loss == pytest.approx(-math.log(1e-7), rel=1e-12)


def test_init_shapes_bounds_and_determinism():
    net = small_net(sizes=(5, 64, 128, 5), activations=("relu", "relu", "sigmoid"))
    assert net.sizes == [5, 64, 128, 5]
    for layer in net.layers:
        fan_in, fan_out = layer.w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(layer.w) <= limit)
        assert np.all(layer.b == 0.0)
    again = small_net(sizes=(5, 64, 128, 5), activations=("relu", "relu", "sigmoid"))
    assert all(np.array_equal(a.w, b.w) for a, b in zip(net.layers, again.layers))
    other = small_net(sizes=(5, 64, 128, 5),
                      activations=("relu", "relu", "sigmoid"), seed=1)
    assert not np.array_equal(net.layers[0].w, other.layers[0].w)


def test_zeroed_net_outputs_half():
    net = small_net()
    for layer in net.layers:
        layer.w[:] = 0.0
    out = forward(net, np.zeros((4, 3)))
    assert out.shape == (4, 1)
    assert np.all(out == 0.5)


def test_fused_output_gradient_identity():
    # one logistic layer: dL/dw must equal x^T (p - t) / n exactly
    net = small_net(sizes=(2, 1), activations=("sigmoid",))
    x = np.array([[0.3, -1.2], [1.1, 0.4], [-0.5, 2.0]])
    t = np.array([[1.0], [0.0], [1.0]])
    p = forward(net, x)
    grads, _ = bce_backward(net, x, t)
    assert grads[0][0] == pytest.approx(x.T @ (p - t) / 3.0, abs=1e-15)
    assert grads[0][1] == pytest.approx(((p - t) / 3.0).sum(axis=0), abs=1e-15)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = small_net(seed=7)
    x = rng.normal(size=(5, 3))
    t = rng.integers(0, 2, size=(5, 1)).astype(float)
    grads, _ = bce_backward(net, x, t)
    errs = relative_errors(grads, numeric_bce_grads(net, x, t))
    assert errs.max() < 1e-6


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = small_net(seed=3)
    x = rng.normal(size=(2, 3))
    t = np.array([[1.0], [0.0]])
    _, input_grad = bce_backward(net, x, t, frozen=True)
    h = 1e-6
    for i in range(x.size):
        orig = x.reshape(-1)[i]
        x.reshape(-1)[i] = orig + h
        up = bce_loss(forward(net, x), t)
        x.reshape(-1)[i] = orig - h
        down = bce_loss(forward(net, x), t)
        x.reshape(-1)[i] = orig
        fd = (up - down) / (2.0 * h)
        assert input_grad.reshape(-1)[i] == pytest.approx(fd, abs=1e-7)


def test_backward_chains_an_upstream_gradient():
    # loss = sum of network outputs: dL/da is all ones, so dL/dz of the
    # sigmoid output layer is a * (1 - a), not a BCE delta
    rng = np.random.default_rng(5)
    net = small_net(seed=5)
    x = rng.normal(size=(4, 3))
    acts = activations(net, x)
    out = acts[-1]
    grads, _ = backward(net, acts, np.ones((4, 1)) * out * (1.0 - out))
    h = 1e-6
    layer = net.layers[0]
    for i in range(layer.w.size):
        orig = layer.w.reshape(-1)[i]
        layer.w.reshape(-1)[i] = orig + h
        up = forward(net, x).sum()
        layer.w.reshape(-1)[i] = orig - h
        down = forward(net, x).sum()
        layer.w.reshape(-1)[i] = orig
        fd = (up - down) / (2.0 * h)
        assert grads[0][0].reshape(-1)[i] == pytest.approx(fd, abs=1e-6)


def test_nonfinite_gradient_is_a_hard_error():
    net = small_net(sizes=(1, 1), activations=("sigmoid",))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        bce_backward(net, np.array([[np.inf]]), np.array([[1.0]]))


@pytest.mark.parametrize("hidden", ["relu", "sigmoid", "identity"])
@pytest.mark.parametrize("output", ["sigmoid", "identity"])
def test_engine_is_bitwise_the_allocating_loops(hidden, output):
    rng = np.random.default_rng(17)
    net = init_network([6, 9, 7, 1], [hidden, hidden, output], rng)
    for layer in net.layers:  # nonzero biases, so their add is checked
        layer.b[:] = rng.normal(size=layer.b.shape)
    x = rng.normal(size=(13, 6))
    x[0] = 0.0  # zero relu inputs, whose slope is 0
    delta = rng.normal(size=(13, 1)) / 13.0
    acts = activations(net, x)
    want_acts = activations_oracle(net, x)
    assert len(acts) == len(want_acts)
    for a, b in zip(acts, want_acts):
        assert np.array_equal(bits(a), bits(b))
    want_grads, want_dx = backward_oracle(net, want_acts, delta.copy())
    grads, none = backward(net, acts, delta.copy())
    assert none is None
    for (dw, db), (ow, ob) in zip(grads, want_grads):
        assert np.array_equal(bits(dw), bits(ow))
        assert np.array_equal(bits(db), bits(ob))
    none, dx = backward(net, acts, delta.copy(), frozen=True)
    assert none is None
    assert np.array_equal(bits(dx), bits(want_dx))
    # into output buffers, which backward returns, and with a work array
    # for a sigmoid output; a buffered backward overwrites the hidden
    # outputs, so each pass gets a fresh forward. The relu masks share
    # one stale buffer, as the GAN workspace's do
    outs = [np.empty((13, l.w.shape[1])) for l in net.layers]
    bufs = [(np.empty_like(l.w), np.empty_like(l.b)) for l in net.layers]
    flat = np.ones(13 * 9, dtype=bool)
    for masks in (None, [flat[:13 * w].reshape(13, w) for w in (9, 7)]):
        acts = activations(net, x, outs, np.full((13, 1), np.nan))
        assert all(a is o for a, o in zip(acts[1:], outs))
        for a, b in zip(acts, want_acts):
            assert np.array_equal(bits(a), bits(b))
        grads, none = backward(net, acts, delta.copy(), out=bufs,
                               masks=masks)
        assert none is None
        for (dw, db), (bw, bb), (ow, ob) in zip(grads, bufs, want_grads):
            assert dw is bw and db is bb
            assert np.array_equal(bits(dw), bits(ow))
            assert np.array_equal(bits(db), bits(ob))
        dx_buf = np.empty_like(x)
        acts = activations(net, x, outs)
        none, dx = backward(net, acts, delta.copy(), frozen=True,
                            out=dx_buf, masks=masks)
        assert none is None and dx is dx_buf
        assert np.array_equal(bits(dx), bits(want_dx))
    if hidden == "relu":
        assert not flat.all()  # the masks were written there


def adam_step_oracle(net, grads, state):
    """The Adam update as one allocating expression per moment."""
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for layer, (dw, db), m, v in zip(net.layers, grads, state.m, state.v):
        for param, g, mom, sec in ((layer.w, dw, m[0], v[0]),
                                   (layer.b, db, m[1], v[1])):
            mom *= state.beta1
            mom += (1.0 - state.beta1) * g
            sec *= state.beta2
            sec += (1.0 - state.beta2) * g * g
            param -= state.lr * (mom / c1) / (np.sqrt(sec / c2) + state.eps)


@pytest.mark.parametrize("sizes", [(1, 1), (3, 4, 1), (81, 128, 64, 1),
                                   (81, 64, 128, 81)])
def test_adam_step_with_scratch_is_bitwise_the_allocating_update(sizes):
    # nonzero biases and gradients spread over many magnitudes, three
    # steps so that the moments and both bias corrections move
    rng = np.random.default_rng(len(sizes) + sizes[-1])
    acts = ["relu"] * (len(sizes) - 2) + ["sigmoid"]
    nets = [init_network(list(sizes), acts, np.random.default_rng(1))
            for _ in range(3)]
    for net in nets:
        for layer in net.layers:
            layer.b[:] = np.random.default_rng(2).normal(size=layer.b.shape)
    states = [adam_init(net, lr=0.003) for net in nets]
    largest = max(l.w.size for l in nets[0].layers)
    scratch = np.full(2 * largest + 5, np.nan)  # stale and oversized
    for t in (1, 2, 3):
        grads = [(rng.normal(size=l.w.shape) * 10.0 ** rng.integers(-9, 4),
                  rng.normal(size=l.b.shape)) for l in nets[0].layers]
        adam_step_oracle(nets[0], grads, states[0])
        adam_step(nets[1], grads, states[1])
        adam_step(nets[2], grads, states[2], scratch=scratch)
        for net, state in zip(nets[1:], states[1:]):
            assert state.t == t
            for a, b in zip(nets[0].layers, net.layers):
                assert np.array_equal(bits(a.w), bits(b.w))
                assert np.array_equal(bits(a.b), bits(b.b))
            for (m0, v0), (m1, v1) in zip(
                    zip(states[0].m, states[0].v), zip(state.m, state.v)):
                for a, b in zip(m0 + v0, m1 + v1):
                    assert np.array_equal(bits(a), bits(b))


def test_adam_first_step_magnitude_law():
    # at t=1 bias correction cancels exactly: step = lr * g / (|g| + eps)
    for g in (1e-8, 1e-3, 0.5, 4.0, 1e3):
        net = small_net(sizes=(1, 1), activations=("identity",))
        net.layers[0].w[:] = 0.0
        state = adam_init(net, lr=0.001)
        adam_step(net, [(np.array([[g]]), np.array([0.0]))], state)
        expected = 0.001 * g / (abs(g) + state.eps)
        assert -net.layers[0].w[0, 0] == pytest.approx(expected, rel=1e-9)
        assert state.t == 1


def test_adam_two_steps_match_scalar_reference():
    lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
    g1, g2 = 0.7, -0.2
    # straight-line scalar reference
    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    w_ref = 0.0 - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    w_ref -= lr * (m / (1 - b1 ** 2)) / (math.sqrt(v / (1 - b2 ** 2)) + eps)

    net = small_net(sizes=(1, 1), activations=("identity",))
    net.layers[0].w[:] = 0.0
    state = adam_init(net, lr=lr)
    for g in (g1, g2):
        adam_step(net, [(np.array([[g]]), np.array([0.0]))], state)
    assert net.layers[0].w[0, 0] == pytest.approx(w_ref, abs=1e-15)


def test_checkpoint_round_trip_is_exact():
    net = small_net(sizes=(4, 8, 1), activations=("relu", "sigmoid"), seed=11)
    state = adam_init(net)
    x = np.random.default_rng(0).normal(size=(6, 4))
    t = np.ones((6, 1))
    for _ in range(3):
        grads, _ = bce_backward(net, x, t)
        adam_step(net, grads, state)
    # through JSON text, as the GAN checkpoint stores it
    loaded = network_from_doc(json.loads(json.dumps(network_doc(net))))
    assert loaded.sizes == net.sizes
    assert loaded.activations == net.activations
    for a, b in zip(net.layers, loaded.layers):
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
    # loaded model is bit-identical in behaviour
    assert np.array_equal(forward(net, x), forward(loaded, x))


def test_checkpoint_shape_mismatch_detected():
    doc = network_doc(small_net())
    assert doc["sizes"] == [3, 4, 1]
    doc["sizes"] = [3, 5, 1]
    with pytest.raises(ValueError, match="shapes"):
        network_from_doc(doc)


@pytest.mark.parametrize("key, value, match", [
    # activate() would run an unknown kind as the identity
    ("activations", ["relu", "tanh"], "unknown activation 'tanh'"),
    # a 1-wide bias would broadcast across its whole layer
    ("biases", [[0.5], [0.0]], "shapes"),
    # json writes and reads NaN, and every score would come out NaN
    ("weights", [[[math.nan] * 4] * 3, [[0.0]] * 4], "non-finite"),
])
def test_checkpoint_bad_layer_rejected(key, value, match):
    doc = network_doc(small_net())  # sizes [3, 4, 1]
    doc[key] = value
    with pytest.raises(ValueError, match=match):
        network_from_doc(doc)
