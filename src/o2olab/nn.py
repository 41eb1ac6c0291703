"""Minimal dense networks: forward pass, exact backprop, Adam, Polyak.

Everything is float64 and seed-deterministic. A net keeps all of its
parameters in one flat vector; the per-layer weights and biases are views
into it, so Adam and Polyak averaging are each one vectorised pass.

``backward`` returns the gradient of ``sum_batch <output, output_grad>``,
i.e. gradients are accumulated over the batch; callers fold any 1/batch
factor into ``output_grad``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError

HIDDEN_ACTIVATIONS = ("tanh", "relu")
OUTPUT_ACTIVATIONS = ("linear", "tanh")


def param_count(layer_sizes) -> int:
    """Number of parameters of one net with these layer sizes."""
    return sum(o * i + o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def _layer_views(layer_sizes, flat: np.ndarray, stack: int | None):
    """Per-layer (weights, biases) views into a flat parameter vector.

    One net's vector holds, layer by layer, the (out, in) weight matrix in
    row-major order and then the (out,) bias. A stack of S nets holds the
    S members' vectors one after the other; its views carry a leading axis
    of S: weights (S, out, in), biases (S, out).
    """
    rows = flat if stack is None else flat.reshape(stack, -1)
    lead = () if stack is None else (stack,)
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        mid = start + fan_out * fan_in
        end = mid + fan_out
        weights.append(rows[..., start:mid].reshape(*lead, fan_out, fan_in))
        biases.append(rows[..., mid:end])
        start = end
    return weights, biases


class DenseNet:
    """A dense net, or a stack of same-shaped nets, over one flat vector.

    ``params`` is the flat float64 parameter vector (see ``_layer_views``
    for its layout). ``weights[l]`` and ``biases[l]`` are views into it, so
    writing to either changes the other. With ``stack=S`` the net is S
    independent members evaluated together, on one (batch, in) input or
    each on its own slice of an (S, batch, in) input; forward returns (S,
    batch, out).
    """

    def __init__(
        self,
        layer_sizes,
        params: np.ndarray,
        hidden_activation: str = "relu",
        output_activation: str = "linear",
        stack: int | None = None,
    ):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        self.stack = stack
        size = param_count(self.layer_sizes) * (1 if stack is None else stack)
        if params.dtype != np.float64 or params.shape != (size,):
            raise ShapeError(
                f"expected a flat float64 vector of {size} parameters, "
                f"got {params.dtype} {params.shape}"
            )
        self.params = params
        self.weights, self.biases = _layer_views(self.layer_sizes, params, stack)
        # forward() operands, built once: transposed weights, row-broadcast biases
        self._weights_t = [w.swapaxes(-1, -2) for w in self.weights]
        self._bias_rows = [b if stack is None else b[:, None, :] for b in self.biases]

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def _like(self, params: np.ndarray, stack: int | None) -> "DenseNet":
        return DenseNet(
            self.layer_sizes, params, self.hidden_activation, self.output_activation, stack
        )

    def copy(self) -> "DenseNet":
        return self._like(self.params.copy(), self.stack)

    def __deepcopy__(self, memo) -> "DenseNet":
        # a memberwise deep copy would copy the layer views apart from the
        # copied params, so writes to the copy's params would not reach them
        return self.copy()


def stack_nets(nets) -> DenseNet:
    """One stacked net holding copies of ``nets`` (same shape and
    activations) as its members, in order."""
    first = nets[0]
    for net in nets[1:]:
        if (net.layer_sizes, net.hidden_activation, net.output_activation) != (
            first.layer_sizes, first.hidden_activation, first.output_activation
        ) or net.stack is not None:
            raise ShapeError("only plain nets of one shape and activation can be stacked")
    return first._like(np.concatenate([net.params for net in nets]), len(nets))


@dataclass
class AdamState:
    """Adam moments over a net's flat parameter vector."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_net(cls, net: DenseNet, learning_rate: float) -> "AdamState":
        return cls(learning_rate, np.zeros_like(net.params), np.zeros_like(net.params))


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


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of ``z``, computed in place."""
    if kind == "tanh":
        return np.tanh(z, out=z)
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
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
    matrices with leading slice axes, e.g. (rows, 1, in_dim).

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
    ``grad`` (a vector shaped like ``net.params``), writes each layer's
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
        w_grads, b_grads = _layer_views(net.layer_sizes, grad, net.stack)
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
        delta = delta @ net.weights[l]
    return delta


def backward(net: DenseNet, cache: list, output_grad: np.ndarray) -> np.ndarray:
    """Exact gradient of sum over the batch of <output, output_grad> with
    respect to ``net.params``, as a flat vector of the same layout.

    ``cache`` holds the activations recorded by ``forward(net, x, cache)``.
    """
    grad = np.empty_like(net.params)
    _backprop(net, cache, output_grad, grad)
    return grad


def input_backward(net: DenseNet, cache: list, output_grad: np.ndarray) -> np.ndarray:
    """The same sum's gradient with respect to the input, without the
    parameter gradient. A stacked net gives one input gradient per member,
    (S, batch, in_dim)."""
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
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    net.params -= state.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + state.epsilon)


def polyak_update(target: DenseNet, online: DenseNet, tau: float) -> None:
    """target <- (1 - tau) * target + tau * online, in place."""
    if target.params.shape != online.params.shape:
        raise ShapeError("target and online nets differ in shape")
    target.params *= 1.0 - tau
    target.params += tau * online.params
