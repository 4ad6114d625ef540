"""Central finite differences with Richardson step-halving.

All routines are batched: ``x`` has shape (B, d) and ``f`` maps an (K, d)
array of points to a (K,) array of values.  Richardson extrapolation
combines the h and h/2 stencils, (4 D_{h/2} - D_h) / 3, which cancels the
leading O(h^2) truncation term; the h vs h/2 discrepancy doubles as a
step-halving error estimate.
"""

from __future__ import annotations

import numpy as np


def _extrapolate(stencil, h: float, b: int, richardson: bool):
    """Richardson combination of stencil(h) and stencil(h/2) and the
    step-halving discrepancy per row (zeros when richardson=False)."""
    d_h = stencil(h)
    if not richardson:
        return d_h, np.zeros(b)
    d_h2 = stencil(h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0, np.max(np.abs(d_h2 - d_h).reshape(b, -1), axis=-1)


def central_gradient(f, x: np.ndarray, h: float, richardson: bool = True):
    """Gradient of f at each row of x.

    Returns (grad, err) where grad has shape (B, d) and err is the
    step-halving discrepancy max-norm per row (zeros when richardson=False).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    b, d = x.shape
    eye = np.eye(d)

    def diff(step):
        pts = np.concatenate([x[:, None, :] + step * eye, x[:, None, :] - step * eye], axis=1)
        vals = f(pts.reshape(-1, d)).reshape(b, 2 * d)
        return (vals[:, :d] - vals[:, d:]) / (2.0 * step)

    return _extrapolate(diff, h, b, richardson)


def central_hessian(f, x: np.ndarray, h: float, richardson: bool = True):
    """Hessian of f at each row of x via second differences.

    Returns (hess, err) with hess of shape (B, d, d); symmetric by
    construction of the stencil.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    b, d = x.shape
    eye = np.eye(d)

    def hess_at(step):
        f0 = f(x)
        out = np.empty((b, d, d))
        pts = np.concatenate([x[:, None, :] + step * eye, x[:, None, :] - step * eye], axis=1)
        vals = f(pts.reshape(-1, d)).reshape(b, 2 * d)
        for a in range(d):
            out[:, a, a] = (vals[:, a] - 2.0 * f0 + vals[:, d + a]) / step**2
        for a in range(d):
            for c in range(a + 1, d):
                pp = x + step * (eye[a] + eye[c])
                pm = x + step * (eye[a] - eye[c])
                mp = x - step * (eye[a] - eye[c])
                mm = x - step * (eye[a] + eye[c])
                quad = np.stack([pp, pm, mp, mm], axis=1).reshape(-1, d)
                v = f(quad).reshape(b, 4)
                val = (v[:, 0] - v[:, 1] - v[:, 2] + v[:, 3]) / (4.0 * step**2)
                out[:, a, c] = val
                out[:, c, a] = val
        return out

    return _extrapolate(hess_at, h, b, richardson)
