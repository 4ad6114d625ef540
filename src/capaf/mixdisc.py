"""Mixed discriminants of square matrices, batched.

The mixed discriminant Q(A_1, ..., A_n) is the full polarization of the
determinant: det(sum_k t_k A_k) = sum over index tuples of t_{i_1}...t_{i_n}
Q(A_{i_1}, ..., A_{i_n}).  Every entry point takes its n arguments as
aligned (B, n, n) batches, symmetric or not (the transform check and the
inscribed polytope's vertex matrices are not), and answers one entry per
row.  Two independent evaluation routes are kept:

* the generalized-Kronecker-delta sum over signed permutation pairs
  (n! squared terms; used for n <= 3, where the expansion is explicit), and
* the inclusion-exclusion polarization over subsets,
  Q = (1/n!) sum_{S nonempty} (-1)^{n-|S|} det(sum_{k in S} A_k),
  valid for every n.

For positive definite arguments Q > 0 and the gradient matrix
dQ/d(A_1)_{ij} is positive definite, and Alexandrov's inequality
Q(A, B, rest)^2 >= Q(A, A, rest) Q(B, B, rest) holds with equality exactly
when A is proportional to B.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial

import numpy as np

from .errors import InvalidInputError

_SIGN = {}


def _perm_pairs(n: int):
    """Signed permutation pairs ((sigma, pi), sign) for the delta-sum route;
    a permutation's sign is (-1)^(its inversion count)."""
    if n not in _SIGN:
        perms = list(permutations(range(n)))
        sign = {p: (-1) ** sum(a > b for a, b in combinations(p, 2)) for p in perms}
        _SIGN[n] = [(s, p, sign[s] * sign[p]) for s in perms for p in perms]
    return _SIGN[n]


def _as_stack(mats) -> np.ndarray:
    """The n arguments of Q, each a (B, n, n) batch, as an (n, B, n, n) stack."""
    arrs = [np.asarray(a, dtype=float) for a in mats]
    if not arrs or any(a.ndim != 3 for a in arrs):
        raise InvalidInputError("matrices must be (B, n, n) batches")
    n = arrs[0].shape[-1]
    if any(a.shape != arrs[0].shape for a in arrs):
        raise InvalidInputError("matrices must share one batch size and one matrix size")
    if len(arrs) != n:
        raise InvalidInputError(
            f"mixed discriminant of {n}x{n} matrices needs {n} arguments, got {len(arrs)}")
    return np.stack(arrs, axis=0)


def mixed_discriminant_batch(mats, route: str = "delta") -> np.ndarray:
    """Q(A_1, ..., A_n) of aligned (B, n, n) batches, one value per row;
    route in {'delta', 'subset'}."""
    stack = _as_stack(mats)
    if route == "subset":
        return _subset_route(stack)
    if route == "delta":
        return _delta_route(stack)
    raise InvalidInputError(f"unknown route {route!r}")


def _delta_route(stack: np.ndarray) -> np.ndarray:
    n = stack.shape[-1]
    if n > 3:
        raise InvalidInputError("delta-sum route implemented for n <= 3")
    if n == 1:
        return stack[0, :, 0, 0].copy()
    if n == 2:
        a, c = stack[0], stack[1]
        return 0.5 * (a[:, 0, 0] * c[:, 1, 1] + a[:, 1, 1] * c[:, 0, 0]
                      - a[:, 0, 1] * c[:, 1, 0] - a[:, 1, 0] * c[:, 0, 1])
    out = np.zeros(stack.shape[1])
    for sigma, pi, sign in _perm_pairs(n):
        term = stack[0, :, sigma[0], pi[0]].copy()
        for k in range(1, n):
            term *= stack[k, :, sigma[k], pi[k]]
        out += sign * term
    return out / 6.0  # n == 3: 1/n!


def _subset_route(stack: np.ndarray) -> np.ndarray:
    m, b, n, _ = stack.shape
    out = np.zeros(b)
    for mask in range(1, 1 << n):
        idx = [k for k in range(n) if mask >> k & 1]
        s = stack[idx].sum(axis=0)
        out += (-1.0) ** (n - len(idx)) * np.linalg.det(s)
    return out / factorial(n)


def mixed_disc_gradient(mats) -> np.ndarray:
    """Gradient of Q with respect to the entries of the first matrix.

    Linear in A_1, so the (i, j) entry is Q(E_ij, A_2, ..., A_n) with E_ij
    the single-entry matrix; satisfies sum_ij (A_1)_ij grad_ij = Q and is
    positive definite when all arguments are.
    """
    stack = _as_stack(mats)
    _, b, n, _ = stack.shape
    if n == 1:
        out = np.ones((b, 1, 1))
    elif n == 2:
        a2 = stack[1]
        tr = np.trace(a2, axis1=-2, axis2=-1)
        out = 0.5 * (tr[:, None, None] * np.eye(2)[None] - np.swapaxes(a2, -1, -2))
    elif n == 3:
        out = np.zeros((b, 3, 3))
        for sigma, pi, sign in _perm_pairs(3):
            term = stack[1, :, sigma[1], pi[1]] * stack[2, :, sigma[2], pi[2]]
            out[:, sigma[0], pi[0]] += sign * term
        out /= 6.0
    else:
        raise InvalidInputError("gradient implemented for n <= 3")
    return out


def md_transform_check(mats, b_matrix) -> np.ndarray:
    """Relative errors of Q(A_1 B, ..., A_n B) = Q(A_1, ..., A_n) det(B).

    Takes (B, n, n) batches of the tuples and of the transforms, one B per
    row, and gives one relative error per row; the caller applies the
    tolerance.
    """
    b_matrix = np.asarray(b_matrix, dtype=float)
    if b_matrix.ndim != 3:
        raise InvalidInputError("transform matrices must be a (B, n, n) batch")
    det_b = np.linalg.det(b_matrix)
    if np.any(np.abs(det_b) < 1e-300):
        raise InvalidInputError("transform matrix must be invertible")
    lhs = mixed_discriminant_batch([np.asarray(a) @ b_matrix for a in mats], route="subset")
    rhs = mixed_discriminant_batch(mats, route="subset") * det_b
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
    return np.abs(lhs - rhs) / scale
