"""Finite-difference checks of the engine's ``backward(grad)``.

A check's loss is a linear projection of a node's output, ``sum(f(x) * proj)``:
the engine gets ``proj`` as the output gradient, and the loss value for the
differences is computed in numpy.
"""

import numpy as np

from ccaps.autodiff import Tensor


def finite_difference(f, x, step=1e-6):
    """Fourth-order central differences of a scalar-valued f at x, coordinate by coordinate."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        values = []
        for k in (2, 1, -1, -2):
            flat[i] = orig + k * step
            values.append(f(x))
        flat[i] = orig
        gflat[i] = (8 * (values[1] - values[2]) - (values[0] - values[3])) / (12 * step)
    return grad


def check_grad(f, x, proj, rtol=1e-6, atol=1e-8):
    """f(Tensor) -> Tensor; the engine's gradient of sum(f(x) * proj) against finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    f(t).backward(proj)
    numeric = finite_difference(lambda arr: float((f(Tensor(arr)).data * proj).sum()), x.copy())
    np.testing.assert_allclose(t.grad, numeric, rtol=rtol, atol=atol)
