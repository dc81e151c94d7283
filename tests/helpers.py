"""Shared test oracles: central finite differences and error measures,
and networks cast to another precision."""

import numpy as np

from mmreg import model, nn


def central_diff_grad(loss_fn, x, h=1e-5):
    """Numerical gradient of scalar loss_fn at x via central differences.

    Perturbs one element at a time; x must be float64 for tight tolerances.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = loss_fn(x)
        flat[i] = orig - h
        lo = loss_fn(x)
        flat[i] = orig
        g_flat[i] = (hi - lo) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric):
    """Elementwise |a-n| / max(|a|, |n|, floor), reduced to the max.

    The floor scales with the overall gradient magnitude so that
    finite-difference noise on near-zero elements does not dominate.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.max(np.abs(analytic), initial=0.0), np.max(np.abs(numeric), initial=0.0))
    floor = max(1e-8, 1e-4 * scale)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def cast_network(net, dtype):
    """A copy of net with every parameter cast to dtype; float64 networks
    are for gradient checks."""
    layers = [nn.ConvParams(kernels=c.kernels.astype(dtype), biases=c.biases.astype(dtype),
                            padding=c.padding)
              for c in net.conv_layers]
    return model.Network(net.config, layers, net.dense_weights.astype(dtype))
