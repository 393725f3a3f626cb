"""Feedforward network: dense layers with batch normalization and ReLU.

Hidden layers are linear (no bias; the batch-norm shift takes its place),
each followed by batch normalization and a rectifier, ending in a scalar
linear output.  Training minimizes mean squared error with adaptive-moment
gradient descent (Adam) at a step of ``LEARNING_RATE`` on shuffled
mini-batches of ``BATCH_SIZE`` records.  Inputs are standardized with
training-set statistics; targets stay in meters.  After training, the
normalization statistics used at inference are recomputed in one pass over
the full training set.

Training keeps every parameter as a view into one flat buffer and every
gradient as a view into a second one, and the adaptive-moment step updates
the flat buffers in place, ``ADAM_CHUNK`` elements at a time.  The
forward/backward passes are pure functions of the parameter dict so
gradients can be checked against finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, DatasetError
from .base import ErrorRegressor, ModelSpec

BN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CHUNK = 16_384  # elements per in-place Adam pass: six 128 KiB blocks stay in cache
LEARNING_RATE = 1e-3  # the Adam step of Kingma & Ba, *Adam* (ICLR 2015)
BATCH_SIZE = 32


def param_shapes(input_dim: int, layers) -> dict:
    """Name -> shape of every parameter, in flat-buffer and archive order."""
    shapes = {}
    fan_in = input_dim
    for i, width in enumerate(layers):
        shapes.update({f"W{i}": (fan_in, width), f"gamma{i}": (width,), f"beta{i}": (width,)})
        fan_in = width
    return {**shapes, "W_out": (fan_in, 1), "b_out": (1,)}


def running_shapes(layers) -> dict:
    """Name -> shape of every inference statistic, in archive order."""
    return {f"{name}{i}": (width,) for i, width in enumerate(layers) for name in ("mean", "var")}


def flat_views(shapes: dict) -> tuple[np.ndarray, dict]:
    """One new float64 buffer, and name -> view of consecutive elements of it for each of ``shapes``."""
    size = sum(math.prod(shape) for shape in shapes.values())
    try:
        flat = np.empty(size)
    except (ValueError, MemoryError):  # beyond numpy's largest dimension, or more memory than the host grants
        layers = [shape[0] for key, shape in shapes.items() if key.startswith(("gamma", "mean"))]
        raise ConfigError(f"network layers {layers} need {size} parameters, more than can be allocated") from None
    views, start = {}, 0
    for key, shape in shapes.items():
        size = math.prod(shape)
        views[key] = flat[start : start + size].reshape(shape)
        start += size
    return flat, views


def draw_params(params: dict, rng: np.random.Generator) -> None:
    """He-scaled weights for the rectifier layers, small linear output, drawn in layer order."""
    for i in range(_n_layers(params)):
        rng.standard_normal(out=params[f"W{i}"])
        params[f"W{i}"] *= np.sqrt(2.0 / params[f"W{i}"].shape[0])
        params[f"gamma{i}"].fill(1.0)
        params[f"beta{i}"].fill(0.0)
    rng.standard_normal(out=params["W_out"])
    params["W_out"] *= np.sqrt(1.0 / params["W_out"].shape[0])
    params["b_out"].fill(0.0)


def init_params(input_dim: int, layers: tuple[int, ...], rng: np.random.Generator) -> dict:
    """Freshly drawn parameters, as views into one flat buffer."""
    _, params = flat_views(param_shapes(input_dim, layers))
    draw_params(params, rng)
    return params


def _n_layers(params: dict) -> int:
    return sum(1 for key in params if key.startswith("W") and key != "W_out")


def _hidden_layer(h: np.ndarray, W: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """One layer on the batch's own statistics: its rectified output, z_hat, 1/std and (mean, var)."""
    z = h @ W
    mu = z.mean(axis=0)
    var = z.var(axis=0)  # biased, matching the normalization below
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    z -= mu
    z *= inv_std  # z_hat
    a = gamma * z + beta
    return np.maximum(a, 0.0, out=a), z, inv_std, (mu, var)


def training_forward(params: dict, X: np.ndarray):
    """Batch-statistics forward pass; returns output, caches, batch stats."""
    h = X
    caches = []
    stats = []
    for i in range(_n_layers(params)):
        h_next, z_hat, inv_std, stat = _hidden_layer(h, params[f"W{i}"], params[f"gamma{i}"], params[f"beta{i}"])
        caches.append((h, z_hat, inv_std, h_next))
        stats.append(stat)
        h = h_next
    out = (h @ params["W_out"] + params["b_out"]).ravel()
    return out, h, caches, stats


def batch_statistics(params: dict, X: np.ndarray) -> list:
    """Each hidden layer's (mean, var) over ``X``, holding one layer's activations at a time."""
    h = X
    stats = []
    for i in range(_n_layers(params)):
        h, _, _, stat = _hidden_layer(h, params[f"W{i}"], params[f"gamma{i}"], params[f"beta{i}"])
        stats.append(stat)
    return stats


def training_loss(params: dict, X: np.ndarray, y: np.ndarray) -> float:
    out, _, _, _ = training_forward(params, X)
    return float(np.mean((out - y) ** 2))


def training_loss_and_grads(params: dict, X: np.ndarray, y: np.ndarray, out: dict | None = None):
    """Mean-squared-error loss and its analytic gradients for one batch.

    Each gradient is written into the same-named array of ``out`` (new
    arrays if None), which is returned as the gradients.
    """
    if out is None:
        out = {key: np.empty_like(value) for key, value in params.items()}
    pred, h_last, caches, stats = training_forward(params, X)
    m = len(y)
    diff = pred - y
    loss = float(np.mean(diff**2))

    d_out = (2.0 / m) * diff
    np.matmul(h_last.T, d_out[:, None], out=out["W_out"])
    np.sum(d_out, keepdims=True, out=out["b_out"])
    d_h = d_out[:, None] @ params["W_out"].T

    for i in reversed(range(_n_layers(params))):
        h_prev, z_hat, inv_std, h = caches[i]
        d_a = d_h * (h > 0.0)  # h > 0 exactly where the pre-rectifier value is
        np.sum(d_a * z_hat, axis=0, out=out[f"gamma{i}"])
        np.sum(d_a, axis=0, out=out[f"beta{i}"])
        d_zhat = d_a * params[f"gamma{i}"]
        d_z = (inv_std / m) * (
            m * d_zhat - d_zhat.sum(axis=0) - z_hat * (d_zhat * z_hat).sum(axis=0)
        )
        np.matmul(h_prev.T, d_z, out=out[f"W{i}"])
        if i:  # the inputs need no gradient
            d_h = d_z @ params[f"W{i}"].T

    return loss, out, stats


def eval_forward(params: dict, running: dict, X: np.ndarray) -> np.ndarray:
    """Inference pass normalizing with the accumulated running statistics."""
    h = X
    for i in range(_n_layers(params)):
        z = h @ params[f"W{i}"]
        z_hat = (z - running[f"mean{i}"]) / np.sqrt(running[f"var{i}"] + BN_EPS)
        h = np.maximum(params[f"gamma{i}"] * z_hat + params[f"beta{i}"], 0.0)
    return (h @ params["W_out"] + params["b_out"]).ravel()


def adam_init(flat: np.ndarray) -> dict:
    """Zero moments for the parameters in ``flat``, and two chunks of scratch."""
    return {
        "m": np.zeros_like(flat),
        "v": np.zeros_like(flat),
        "t": 0,
        "scratch": np.empty((2, min(ADAM_CHUNK, flat.size))),
    }


def adam_step(flat: np.ndarray, grad_flat: np.ndarray, state: dict) -> None:
    """One Adam update of ``flat`` in place, ``ADAM_CHUNK`` elements at a time.

    Every element goes through the operations of
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p = p - LEARNING_RATE * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)``
    in that order, so the update is the same bits as that expression.
    """
    state["t"] += 1
    t = state["t"]
    m_correction = 1 - ADAM_BETA1**t
    v_correction = 1 - ADAM_BETA2**t
    for start in range(0, flat.size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        p, g, m, v = flat[chunk], grad_flat[chunk], state["m"][chunk], state["v"][chunk]
        step, denom = state["scratch"][:, : p.size]
        m *= ADAM_BETA1
        m += np.multiply(g, 1 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        np.multiply(g, 1 - ADAM_BETA2, out=step)
        v += np.multiply(step, g, out=step)
        np.sqrt(np.divide(v, v_correction, out=denom), out=denom)
        denom += ADAM_EPS
        np.divide(m, m_correction, out=step)
        step *= LEARNING_RATE
        step /= denom
        p -= step


class NetworkModel(ErrorRegressor):
    family = "network"

    def __init__(self, spec, params, running, scaler_mean, scaler_std, input_width, metadata=None):
        super().__init__(spec, input_width=input_width, metadata=metadata)
        self.params = params
        self.running = running
        self.scaler_mean = scaler_mean
        self.scaler_std = scaler_std

    def _raw(self, X: np.ndarray) -> np.ndarray:
        return eval_forward(self.params, self.running, (X - self.scaler_mean) / self.scaler_std)


def fit_network(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> NetworkModel:
    rng = np.random.default_rng(spec.seed)
    with np.errstate(all="ignore"):  # values near the float range overflow; the result is checked once, below
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 0, std, 1.0)  # constant columns pass through
        Xs = (X - mean) / std

        shapes = param_shapes(X.shape[1], spec.layers)
        flat, params = flat_views(shapes)
        draw_params(params, rng)
        params["b_out"][0] = y.mean()  # start at the label mean
        grad_flat, grads = flat_views(shapes)
        state = adam_init(flat)

        n = len(Xs)
        for _ in range(spec.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, BATCH_SIZE):
                batch = perm[start : start + BATCH_SIZE]
                training_loss_and_grads(params, Xs[batch], y[batch], grads)
                adam_step(flat, grad_flat, state)
        del state, grads, grad_flat  # free the moments and gradients before the statistics pass

        # Inference statistics from one pass over the full training set.
        running_flat, running = flat_views(running_shapes(spec.layers))
        for i, (mu, var) in enumerate(batch_statistics(params, Xs)):
            running[f"mean{i}"][:] = mu
            running[f"var{i}"][:] = var

    if not all(np.isfinite(array).all() for array in (mean, std, flat, running_flat)):
        raise DatasetError("network training reached non-finite values; features or labels lie near the float range")
    return NetworkModel(
        spec,
        params=params,
        running=running,
        scaler_mean=mean,
        scaler_std=std,
        input_width=X.shape[1],
    )
