"""Central finite differences with Richardson step-halving.

All routines are batched: ``x`` has shape (B, d), ``f`` maps an (K, d)
array of points to a (K,) array of values, and the step ``h`` is a scalar
or one step per row, shape (B,).  Richardson extrapolation combines the h
and h/2 stencils, (4 D_{h/2} - D_h) / 3, which cancels the leading O(h^2)
truncation term; the h vs h/2 discrepancy doubles as a step-halving error
estimate.
"""

from __future__ import annotations

import itertools

import numpy as np


def _extrapolate(f, x, h, richardson: bool, dirs, combine):
    """Richardson-combined combine(vals, step), vals being f at the points
    x_i + step_i * dirs_j, and the step-halving discrepancy per row."""
    b, d = x.shape
    h = np.broadcast_to(np.asarray(h, dtype=float), (b,))

    def stencil(step):
        pts = x[:, None, :] + step[:, None, None] * dirs
        return combine(f(pts.reshape(-1, d)).reshape(b, len(dirs)), step)

    d_h = stencil(h)
    if not richardson:
        return d_h, np.zeros(b)
    d_h2 = stencil(h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0, np.max(np.abs(d_h2 - d_h).reshape(b, -1), axis=-1)


def central_gradient(f, x: np.ndarray, h, richardson: bool = True):
    """Gradient of f at each row of x.

    Returns (grad, err) where grad has shape (B, d) and err is the
    step-halving discrepancy max-norm per row (zeros when richardson=False).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = x.shape[1]
    eye = np.eye(d)

    def combine(vals, step):
        return (vals[:, :d] - vals[:, d:]) / (2.0 * step[:, None])

    return _extrapolate(f, x, h, richardson, np.concatenate([eye, -eye]), combine)


def central_hessian(f, x: np.ndarray, h, richardson: bool = True):
    """Hessian of f at each row of x via second differences.

    Returns (hess, err) with hess of shape (B, d, d); symmetric by
    construction of the stencil.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    b, d = x.shape
    eye = np.eye(d)
    pairs = list(itertools.combinations(range(d), 2))
    mixed = [s * eye[a] + t * eye[c] for a, c in pairs
             for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    f0 = f(x)

    def combine(vals, step):
        out = np.empty((b, d, d))
        for a in range(d):
            out[:, a, a] = (vals[:, a] - 2.0 * f0 + vals[:, d + a]) / step**2
        for k, (a, c) in enumerate(pairs):
            v = vals[:, 2 * d + 4 * k:]
            out[:, a, c] = out[:, c, a] = (v[:, 0] - v[:, 1] - v[:, 2] + v[:, 3]) / (4.0 * step**2)
        return out

    dirs = np.concatenate([eye, -eye, np.reshape(mixed, (-1, d))])
    return _extrapolate(f, x, h, richardson, dirs, combine)
