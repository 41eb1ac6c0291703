import copy

import numpy as np
import pytest

from o2olab import nn
from o2olab.errors import NumericError, ShapeError


def member(net, i):
    """Member ``i`` of a stacked net as a plain net sharing its memory."""
    return nn.DenseNet(
        net.layer_sizes, net.params.reshape(net.stack, -1)[i],
        net.hidden_activation, net.output_activation,
    )


def param_grad(net, inputs, output_grad):
    """Gradient of sum_batch <output, output_grad> w.r.t. ``net.params``."""
    cache = []
    nn.forward(net, inputs, cache)
    return nn.backward(net, cache, output_grad)


def finite_difference_grads(net, inputs, output_grad, h=1e-5):
    """Central finite differences of sum_batch <output, output_grad> w.r.t.
    every parameter; the independent oracle for backward()."""

    def objective():
        return float(np.sum(nn.forward(net, inputs) * output_grad))

    params = net.params
    g = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + h
        hi = objective()
        params[i] = orig - h
        lo = objective()
        params[i] = orig
        g[i] = (hi - lo) / (2 * h)
    return g


def assert_grads_close(analytic, numeric, rel=1e-4):
    denom = np.maximum(np.abs(numeric), 1e-6)
    assert np.max(np.abs(analytic - numeric) / denom) < rel


# --- init_net ---


def test_init_same_seed_identical():
    a = nn.init_net((2, 1), seed=7)
    b = nn.init_net((2, 1), seed=7)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_init_different_seeds_differ():
    a = nn.init_net((3, 4, 2), seed=1)
    b = nn.init_net((3, 4, 2), seed=2)
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_init_shapes():
    net = nn.init_net((3, 4, 2), seed=0)
    assert [w.shape for w in net.weights] == [(4, 3), (2, 4)]
    assert [b.shape for b in net.biases] == [(4,), (2,)]


def test_init_bounds_and_zero_biases():
    net = nn.init_net((9, 5), seed=3)
    assert np.all(np.abs(net.weights[0]) <= 1.0 / 3.0)
    assert np.all(net.biases[0] == 0.0)


@pytest.mark.parametrize("sizes", [(), (4,), (2, 0, 1), (0, 3)])
def test_init_invalid_sizes(sizes):
    with pytest.raises(ValueError):
        nn.init_net(sizes, seed=0)


# --- forward ---


def test_forward_bias_only():
    net = nn.init_net((2, 1), seed=0)
    net.weights[0][:] = 0.0
    net.biases[0][:] = 0.5
    out = nn.forward(net, np.array([[3.0, -1.0], [0.0, 0.0]]))
    assert np.array_equal(out, np.array([[0.5], [0.5]]))


def test_forward_matrix_multiply():
    net = nn.init_net((2, 2), seed=0)
    net.weights[0][:] = np.array([[2.0, 0.0], [0.0, 3.0]])
    net.biases[0][:] = 0.0
    out = nn.forward(net, np.array([[1.0, 1.0]]))
    assert np.array_equal(out, np.array([[2.0, 3.0]]))


def test_forward_tanh_saturation():
    net = nn.init_net((1, 3, 1), hidden_activation="tanh", seed=0)
    net.weights[0][:] = 100.0
    net.biases[0][:] = 0.0
    # inspect the hidden layer by making the output layer pass it through
    hidden = np.tanh(np.array([[1.0]]) @ net.weights[0].T)
    assert np.all(np.abs(hidden - 1.0) < 1e-9)


def test_forward_pure():
    net = nn.init_net((3, 5, 2), seed=11)
    x = np.random.default_rng(0).normal(size=(4, 3))
    out1 = nn.forward(net, x)
    out2 = nn.forward(net, x)
    assert np.array_equal(out1, out2)


def test_forward_width_mismatch():
    net = nn.init_net((3, 2), seed=0)
    with pytest.raises(ShapeError):
        nn.forward(net, np.zeros((1, 4)))
    with pytest.raises(ShapeError):
        nn.forward(net, np.zeros((5, 1, 4)))  # leading slice axes, wrong last axis
    with pytest.raises(ShapeError):
        nn.forward(net, np.zeros(3))  # one row needs a batch axis


def test_forward_slices_equal_single_rows():
    # (rows, 1, in) slices are multiplied one by one, so each row's output
    # is bit-identical to a single-row forward of that row
    net = nn.init_net((4, 32, 32, 2), "relu", "tanh", seed=5)
    x = np.random.default_rng(1).normal(0.0, 3.0, size=(13, 4))
    single = np.stack([nn.forward(net, row[None, :])[0] for row in x])
    sliced = nn.forward(net, x[:, None, :])
    assert sliced.shape == (13, 1, 2)
    assert np.array_equal(sliced[:, 0, :], single)


# --- backward ---


def test_backward_zero_output_grad():
    net = nn.init_net((3, 4, 2), seed=5)
    x = np.ones((2, 3))
    assert np.all(param_grad(net, x, np.zeros((2, 2))) == 0.0)


def test_backward_single_linear_layer_outer_product():
    net = nn.init_net((3, 2), seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    g = rng.normal(size=(4, 2))
    grad = param_grad(net, x, g)
    assert np.allclose(grad[:6].reshape(2, 3), g.T @ x, atol=1e-12)
    assert np.allclose(grad[6:], g.sum(axis=0), atol=1e-12)


def test_backward_matches_finite_differences_tanh():
    rng = np.random.default_rng(42)
    net = nn.init_net((4, 8, 3), hidden_activation="tanh", seed=9)
    x = rng.normal(size=(5, 4))
    g = rng.normal(size=(5, 3))
    analytic = param_grad(net, x, g)
    numeric = finite_difference_grads(net, x, g)
    assert_grads_close(analytic, numeric)


@pytest.mark.parametrize("hidden_act,out_act", [("relu", "linear"), ("tanh", "tanh")])
def test_backward_matches_finite_differences_random_nets(hidden_act, out_act):
    rng = np.random.default_rng(7)
    for trial in range(5):
        sizes = tuple(rng.integers(1, 17, size=rng.integers(2, 5)))
        net = nn.init_net(sizes, hidden_act, out_act, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=(3, sizes[0]))
        g = rng.normal(size=(3, sizes[-1]))
        assert_grads_close(param_grad(net, x, g), finite_difference_grads(net, x, g))


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = nn.init_net((4, 6, 2), hidden_activation="tanh", seed=21)
    x = rng.normal(size=(3, 4))
    g = rng.normal(size=(3, 2))
    din = nn.input_gradient(net, x, g)
    h = 1e-6
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            hi = float(np.sum(nn.forward(net, xp) * g))
            lo = float(np.sum(nn.forward(net, xm) * g))
            assert abs(din[i, j] - (hi - lo) / (2 * h)) < 1e-5


# --- adam ---


def test_adam_zero_gradients_no_change():
    net = nn.init_net((2, 3, 1), seed=0)
    before = [w.copy() for w in net.weights]
    state = nn.AdamState.for_net(net, learning_rate=0.01)
    nn.adam_step(net, np.zeros_like(net.params), state)
    assert state.step_count == 1
    for w, b4 in zip(net.weights, before):
        assert np.array_equal(w, b4)


def test_adam_first_step_is_signed_lr():
    net = nn.init_net((1, 1), seed=0)
    w0 = net.weights[0][0, 0]
    state = nn.AdamState.for_net(net, learning_rate=0.01)
    g = 3.7
    nn.adam_step(net, np.array([g, 0.0]), state)
    expected_delta = -0.01 * g / (abs(g) + state.epsilon)
    assert net.weights[0][0, 0] == pytest.approx(w0 + expected_delta, abs=1e-15)


def test_adam_quadratic_convergence():
    # scalar oracle: Adam on f(w) = w^2 from w = 1 with lr = 0.1
    def oracle(steps=100, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
        w, m, v = 1.0, 0.0, 0.0
        for t in range(1, steps + 1):
            g = 2.0 * w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1**t)) / ((v / (1 - b2**t)) ** 0.5 + eps)
        return w

    expected = oracle()
    assert abs(expected) < 0.2  # the derived acceptance bound

    net = nn.init_net((1, 1), seed=0)
    net.weights[0][0, 0] = 1.0
    state = nn.AdamState.for_net(net, learning_rate=0.1)
    for _ in range(100):
        g = 2.0 * net.weights[0][0, 0]
        nn.adam_step(net, np.array([g, 0.0]), state)
    assert net.weights[0][0, 0] == pytest.approx(expected, abs=1e-12)
    assert state.step_count == 100


def test_adam_rejects_nonfinite():
    net = nn.init_net((1, 1), seed=0)
    state = nn.AdamState.for_net(net, learning_rate=0.1)
    with pytest.raises(NumericError):
        nn.adam_step(net, np.array([np.nan, 0.0]), state)


def test_adam_shape_mismatch():
    net = nn.init_net((2, 2), seed=0)
    state = nn.AdamState.for_net(net, learning_rate=0.1)
    with pytest.raises(ShapeError):
        nn.adam_step(net, np.zeros(12), state)


# --- polyak ---


def test_polyak_exact_form():
    online = nn.init_net((2, 3, 1), seed=1)
    target = nn.init_net((2, 3, 1), seed=2)
    expect_w = [(1 - 0.005) * t + 0.005 * o for t, o in zip(target.weights, online.weights)]
    nn.polyak_update(target, online, tau=0.005)
    for got, want in zip(target.weights, expect_w):
        assert np.array_equal(got, want)


# --- flat parameters and stacks ---


def test_net_rejects_wrong_param_count():
    with pytest.raises(ShapeError):
        nn.DenseNet((3, 2), np.zeros(7))
    with pytest.raises(ShapeError):
        nn.DenseNet((3, 2), np.zeros(8, dtype=np.float32))


def test_layer_views_share_the_flat_vector():
    net = nn.init_net((3, 4, 2), seed=1)
    net.params[:] = np.arange(net.params.size)
    assert np.array_equal(net.weights[0], np.arange(12.0).reshape(4, 3))
    assert np.array_equal(net.biases[0], np.arange(12.0, 16.0))
    assert np.array_equal(net.weights[1], np.arange(16.0, 24.0).reshape(2, 4))
    net.biases[1][:] = -1.0
    assert np.array_equal(net.params[24:], [-1.0, -1.0])


def test_stacked_net_matches_its_members_bit_for_bit():
    rng = np.random.default_rng(4)
    members = [nn.init_net((5, 16, 16, 1), seed=s) for s in (1, 2)]
    for m in members:
        m.biases[0][:] = rng.normal(size=16)  # nonzero biases exercise the sums
    pair = nn.stack_nets(members)
    x = rng.normal(size=(33, 5))
    g = rng.normal(size=(2, 33, 1))
    cache = []
    out = nn.forward(pair, x, cache)
    grad = nn.backward(pair, cache, g)
    din = nn.input_backward(pair, cache, g)
    size = members[0].params.size
    for i, m in enumerate(members):
        assert np.array_equal(out[i], nn.forward(m, x))
        assert np.array_equal(grad[i * size : (i + 1) * size], param_grad(m, x, g[i]))
        assert np.array_equal(din[i], nn.input_gradient(m, x, g[i]))
        assert np.array_equal(member(pair, i).params, m.params)
    member(pair, 1).params[0] = 42.0  # members are views
    assert pair.weights[0][1, 0, 0] == 42.0


@pytest.mark.parametrize("stack", [False, True])
def test_input_backward_is_backwards_input_gradient(stack):
    rng = np.random.default_rng(5)
    nets = [nn.init_net((5, 8, 8, 3), "tanh", "tanh", seed=s) for s in (1, 2)]
    net = nn.stack_nets(nets) if stack else nets[0]
    x = rng.normal(size=(9, 5))
    cache = []
    out = nn.forward(net, x, cache)
    g = rng.normal(size=out.shape)
    din = nn.input_backward(net, cache, g)
    assert np.array_equal(din, nn.input_gradient(net, x, g))
    nn.backward(net, cache, g)  # the parameter gradient from the same cache
    assert np.array_equal(din, nn.input_backward(net, cache, g))
    assert np.array_equal(cache[-1], out)  # the cache is left as recorded


@pytest.mark.parametrize("stack", [False, True])
def test_deep_copy_forwards_with_its_own_params(stack):
    nets = [nn.init_net((3, 4, 2), seed=s) for s in (1, 2)]
    net = nn.stack_nets(nets) if stack else nets[0]
    x = np.random.default_rng(6).normal(size=(5, 3))
    before = nn.forward(net, x)
    copied = copy.deepcopy(net)
    nn.polyak_update(copied, nn.DenseNet(net.layer_sizes, np.ones_like(net.params),
                                         stack=net.stack), 0.5)  # in place
    fresh = nn.DenseNet(net.layer_sizes, copied.params.copy(), stack=net.stack)
    assert np.array_equal(nn.forward(copied, x), nn.forward(fresh, x))
    assert not np.array_equal(nn.forward(copied, x), before)
    assert np.array_equal(nn.forward(net, x), before)


def test_stack_rejects_mismatched_nets():
    with pytest.raises(ShapeError):
        nn.stack_nets([nn.init_net((3, 2), seed=0), nn.init_net((3, 3), seed=0)])
