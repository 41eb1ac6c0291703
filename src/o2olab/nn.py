"""Minimal dense networks: forward pass, exact backprop, Adam, Polyak.

Everything is float64 and seed-deterministic. A net's parameters are one
array of shape (*stack, P): a plain net's is one flat vector of P, and a
stack of nets (the (R,) actors or the (R, 2) twin critics of a lockstep
group) holds one such vector per member, each contiguous along P but not
necessarily next to the others, so a net can be a view into a larger
array. The per-layer weights and biases are views into the parameters, so
Adam and Polyak averaging are each one vectorised pass.

``backward`` returns the gradient of ``sum_batch <output, output_grad>``,
i.e. gradients are accumulated over the batch; callers fold any 1/batch
factor into ``output_grad``.

Two numpy slow paths are avoided, with equal bits: ``maximum`` against a
scalar (ReLU takes a zero array) and ``matmul`` over an inner dimension of
1 (backprop through a 1-wide layer is a broadcast product plus +0.0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError

HIDDEN_ACTIVATIONS = ("tanh", "relu")
OUTPUT_ACTIVATIONS = ("linear", "tanh")


def param_count(layer_sizes) -> int:
    """Number of parameters of one net with these layer sizes."""
    return sum(o * i + o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def views(array: np.ndarray, shapes) -> list[np.ndarray]:
    """Views into ``array`` that cut its last axis into consecutive parts,
    one per shape in ``shapes``: the i-th part takes the next prod(shape)
    entries of every row and is shaped (*array.shape[:-1], *shape)."""
    lead = array.shape[:-1]
    parts, start = [], 0
    for shape in shapes:
        end = start + math.prod(shape)
        parts.append(array[..., start:end].reshape(*lead, *shape))
        start = end
    return parts


def _layer_views(layer_sizes, params: np.ndarray) -> tuple[list, list]:
    """Per-layer (weights, biases) views into parameters of shape (*stack, P).

    One member's P parameters hold, layer by layer, the (out, in) weight
    matrix in row-major order and then the (out,) bias. The views carry the
    stack's axes: weights (*stack, out, in), biases (*stack, out).
    """
    parts = views(params, [
        shape
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
        for shape in ((fan_out, fan_in), (fan_out,))
    ])
    return parts[0::2], parts[1::2]


class DenseNet:
    """A dense net, or a stack of same-shaped nets, over one parameter array.

    ``params`` is a float64 array of shape (*stack, P), contiguous along
    its last axis (see ``_layer_views`` for the layout of a member's P
    parameters). ``weights[l]`` and ``biases[l]`` are views into it, so
    writing to either changes the other. A stacked net is its members evaluated together, on
    one (batch, in) input or each on its own slice of an input whose
    leading axes broadcast against ``stack``; ``net[index]`` is the net of
    the members ``params[index]`` selects, sharing their memory.
    """

    def __init__(
        self,
        layer_sizes,
        params: np.ndarray,
        hidden_activation: str = "relu",
        output_activation: str = "linear",
    ):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        size = param_count(self.layer_sizes)
        if (
            params.dtype != np.float64
            or params.ndim < 1
            or params.shape[-1] != size
            or params.strides[-1] != params.itemsize
        ):
            raise ShapeError(
                f"expected float64 parameters of shape (..., {size}), contiguous along "
                f"the last axis, got {params.dtype} {params.shape}"
            )
        self.params = params
        self.stack = params.shape[:-1]
        self.weights, self.biases = _layer_views(self.layer_sizes, params)
        # forward() operands, built once: transposed weights, row-broadcast biases
        self._weights_t = [w.swapaxes(-1, -2) for w in self.weights]
        self._bias_rows = [b[..., None, :] if self.stack else b for b in self.biases]

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def _like(self, params: np.ndarray) -> "DenseNet":
        return DenseNet(self.layer_sizes, params, self.hidden_activation, self.output_activation)

    def __getitem__(self, index) -> "DenseNet":
        return self._like(self.params[index])

    def copy(self) -> "DenseNet":
        return self._like(self.params.copy())

    def __deepcopy__(self, memo) -> "DenseNet":
        # a memberwise deep copy would copy the layer views apart from the
        # copied params, so writes to the copy's params would not reach them
        return self.copy()


def stack_nets(nets) -> DenseNet:
    """One stacked net, of stack (S,), holding copies of the members of
    ``nets`` (same shape and activations), in order: a plain net is one
    member, a stack its members in row-major order."""
    first = nets[0]
    for net in nets[1:]:
        if (net.layer_sizes, net.hidden_activation, net.output_activation) != (
            first.layer_sizes, first.hidden_activation, first.output_activation
        ):
            raise ShapeError("only nets of one shape and activation can be stacked")
    size = param_count(first.layer_sizes)
    return first._like(np.concatenate([net.params.reshape(-1, size) for net in nets]))


# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam moments, each shaped like the parameters of the net it steps."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0


def init_net(
    layer_sizes,
    hidden_activation: str = "relu",
    output_activation: str = "linear",
    seed: int = 0,
) -> DenseNet:
    """Build a net with uniform +-1/sqrt(fan_in) weights and zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError(f"need at least input and output sizes, got {sizes}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"all layer sizes must be >= 1, got {sizes}")
    if hidden_activation not in HIDDEN_ACTIVATIONS:
        raise ValueError(f"unknown hidden activation {hidden_activation!r}")
    if output_activation not in OUTPUT_ACTIVATIONS:
        raise ValueError(f"unknown output activation {output_activation!r}")

    rng = np.random.default_rng(seed)
    net = DenseNet(sizes, np.zeros(param_count(sizes)), hidden_activation, output_activation)
    for w in net.weights:
        fan_out, fan_in = w.shape
        bound = 1.0 / np.sqrt(fan_in)
        w[...] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
    return net


# Read-only zeros, grown to the largest activation seen; ReLU takes a view
# of ``z``'s shape. numpy's maximum against the scalar 0.0 is about 4x
# slower than against an array, with the same bits.
_zeros = np.zeros(0)


def _relu(z: np.ndarray) -> np.ndarray:
    global _zeros
    zeros = _zeros  # one read: another thread may replace it meanwhile
    if zeros.size < z.size:
        zeros = np.zeros(z.size)
        zeros.setflags(write=False)
        _zeros = zeros
    return np.maximum(z, zeros[: z.size].reshape(z.shape), out=z)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of ``z``, computed in place."""
    if kind == "tanh":
        return np.tanh(z, out=z)
    if kind == "relu":
        return _relu(z)
    return z  # linear


def _check_input(net: DenseNet, inputs: np.ndarray) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != net.in_dim:
        raise ShapeError(
            f"expected input of shape (..., batch, {net.in_dim}), got {x.shape}"
        )
    return x


def forward(net: DenseNet, inputs: np.ndarray, cache: list | None = None) -> np.ndarray:
    """Apply the network to a (batch, in_dim) matrix, or to a stack of such
    matrices with leading slice axes, e.g. (rows, 1, in_dim); a stacked
    net's leading axes broadcast against its ``stack``.

    The rows of one (batch, in_dim) matrix go through one matrix product,
    whose rounding can differ from a single-row forward's in the last bits.
    The slices of a stack are each multiplied alone, so a (rows, 1, in_dim)
    stack gives every row exactly its single-row output; ``agents.act``
    relies on this.

    When ``cache`` is a list, the input and every layer's activation are
    appended to it, in order, for ``backward``.
    """
    h = _check_input(net, inputs)
    if cache is not None:
        cache.append(h)
    last = len(net.weights) - 1
    for l, (w_t, b) in enumerate(zip(net._weights_t, net._bias_rows)):
        z = h @ w_t
        z += b
        kind = net.output_activation if l == last else net.hidden_activation
        h = _activate(z, kind)
        if cache is not None:
            cache.append(h)
    return h


def _backprop(net: DenseNet, cache: list, output_grad: np.ndarray, grad=None):
    """Carry ``output_grad`` back through the layers recorded in ``cache``.

    Without ``grad``, returns the gradient with respect to the input. With
    ``grad`` (an array shaped like ``net.params``), writes each layer's
    weight and bias gradients into it and stops at the first layer, skipping
    the product back to the input."""
    if len(cache) != len(net.weights) + 1:
        raise ValueError("cache does not hold one forward pass of this net")
    delta = np.array(output_grad, dtype=np.float64)  # a copy: scaled in place below
    if delta.shape != cache[-1].shape:
        raise ShapeError(
            f"expected output_grad of shape {cache[-1].shape}, got {delta.shape}"
        )

    if grad is not None:
        w_grads, b_grads = _layer_views(net.layer_sizes, grad)
    last = len(net.weights) - 1
    for l in range(last, -1, -1):
        kind = net.output_activation if l == last else net.hidden_activation
        h = cache[l + 1]
        if kind == "tanh":
            delta *= 1.0 - h * h
        elif kind == "relu":
            delta *= h > 0.0  # h > 0 exactly where the pre-activation is
        if grad is not None:
            np.matmul(delta.swapaxes(-1, -2), cache[l], out=w_grads[l])
            np.sum(delta, axis=-2, out=b_grads[l])
            if l == 0:
                return None
        w = net.weights[l]
        if w.shape[-2] == 1:
            # matmul is slow over an inner dimension of 1; each entry is one
            # product, which matmul adds to +0.0, so -0.0 comes out +0.0
            delta = delta * w
            delta += 0.0
        else:
            delta = delta @ w
    return delta


def backward(net: DenseNet, cache: list, output_grad: np.ndarray) -> np.ndarray:
    """Exact gradient of sum over the batch of <output, output_grad> with
    respect to ``net.params``, as a new C-contiguous array of its shape.

    ``cache`` holds the activations recorded by ``forward(net, x, cache)``.
    """
    grad = np.empty_like(net.params)
    _backprop(net, cache, output_grad, grad)
    return grad


def input_backward(net: DenseNet, cache: list, output_grad: np.ndarray) -> np.ndarray:
    """The same sum's gradient with respect to the input, without the
    parameter gradient. A stacked net gives one input gradient per member,
    (*stack, batch, in_dim)."""
    return _backprop(net, cache, output_grad)


def input_gradient(
    net: DenseNet, inputs: np.ndarray, output_grad: np.ndarray
) -> np.ndarray:
    """Gradient of sum_batch <output, output_grad> w.r.t. the inputs."""
    cache: list = []
    forward(net, inputs, cache)
    return input_backward(net, cache, output_grad)


def adam_step(net: DenseNet, grad: np.ndarray, state: AdamState) -> None:
    """Bias-corrected Adam update, in place on net and state. A gradient
    with a non-finite entry raises NumericError before anything changes."""
    if grad.shape != net.params.shape:
        raise ShapeError(f"gradient shape {grad.shape} != parameters {net.params.shape}")
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient entry")

    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    # numpy's ufuncs run several times slower on a strided view (a lockstep
    # group's rows) than on a contiguous array, and a copy either way is
    # cheap: the step runs on contiguous arrays, the moments and parameters
    # themselves where those are contiguous, and is assigned back
    m, v, params = (np.ascontiguousarray(a) for a in (state.m, state.v, net.params))
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    params -= state.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPSILON)
    state.m[...], state.v[...], net.params[...] = m, v, params


def polyak_update(target: DenseNet, online: DenseNet, tau: float) -> None:
    """target <- (1 - tau) * target + tau * online, in place."""
    if target.params.shape != online.params.shape:
        raise ShapeError("target and online nets differ in shape")
    params = np.ascontiguousarray(target.params)  # see adam_step
    params *= 1.0 - tau
    params += tau * online.params
    target.params[...] = params
