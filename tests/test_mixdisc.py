from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capaf.errors import InvalidInputError
from capaf.mixdisc import md_transform_check, mixed_disc_gradient, mixed_discriminant_batch


def spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.3 * np.eye(n)


def one_row(mats):
    """One tuple of (n, n) matrices as a one-row batch."""
    return [np.asarray(m, dtype=float)[None] for m in mats]


def q_one(mats, route="delta"):
    """Q of one tuple, evaluated as a one-row batch."""
    return float(mixed_discriminant_batch(one_row(mats), route=route)[0])


def test_diagonal_is_determinant():
    a = np.diag([2.0, 3.0])
    assert q_one([a, a]) == pytest.approx(6.0, abs=1e-14)


def test_two_by_two_example():
    a, b = np.diag([2.0, 3.0]), np.diag([5.0, 7.0])
    assert q_one([a, b]) == pytest.approx(14.5, abs=1e-14)


def test_routes_agree_n3():
    rng = np.random.default_rng(0)
    for _ in range(50):
        mats = [spd(rng, 3) for _ in range(3)]
        q_delta = q_one(mats, route="delta")
        q_subset = q_one(mats, route="subset")
        assert q_delta == pytest.approx(q_subset, rel=1e-12)


def test_symmetry_under_permutation():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        mats = [spd(rng, n) for _ in range(n)]
        base = q_one(mats)
        from itertools import permutations

        for perm in permutations(range(n)):
            assert q_one([mats[p] for p in perm]) == pytest.approx(base, rel=1e-12)


def test_multilinearity():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        mats = [spd(rng, n) for _ in range(n)]
        extra = spd(rng, n)
        lhs = q_one([2.0 * mats[0] + 3.0 * extra] + mats[1:])
        rhs = 2.0 * q_one(mats) + 3.0 * q_one([extra] + mats[1:])
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gradient_identity_all_identity():
    g = mixed_disc_gradient(one_row([np.eye(2), np.eye(2)]))
    assert np.allclose(g, 0.5 * np.eye(2), atol=1e-15)


def test_gradient_contraction():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        mats = [spd(rng, n) for _ in range(n)]
        g = mixed_disc_gradient(one_row(mats))[0]
        assert float(np.sum(mats[0] * g)) == pytest.approx(q_one(mats), rel=1e-12)


def test_gradient_positive_definite():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        mats = [spd(rng, n) for _ in range(n)]
        assert q_one(mats) > 0
        assert np.min(np.linalg.eigvalsh(mixed_disc_gradient(one_row(mats)))) > 0


def test_gradient_fd_oracle():
    rng = np.random.default_rng(5)
    mats = [spd(rng, 3) for _ in range(3)]
    g = mixed_disc_gradient(one_row(mats))[0]
    h = 1e-6
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3))
            e[i, j] = h
            num = (q_one([mats[0] + e] + mats[1:]) - q_one([mats[0] - e] + mats[1:])) / (2 * h)
            assert num == pytest.approx(g[i, j], rel=1e-7, abs=1e-9)


def test_transform_law():
    rng = np.random.default_rng(6)
    mats = [spd(rng, 2), spd(rng, 2)]
    assert md_transform_check(one_row(mats), np.eye(2)[None])[0] < 1e-15
    assert md_transform_check(one_row(mats), 2.0 * np.eye(2)[None])[0] <= 1e-10
    # Q(A_1 B, A_2 B) = det(B) Q(A_1, A_2) = 4 Q(A_1, A_2) for B = 2I
    assert q_one([a @ (2.0 * np.eye(2)) for a in mats]) == pytest.approx(4.0 * q_one(mats),
                                                                         rel=1e-13)
    for n in (2, 3):
        mats = [spd(rng, n) for _ in range(n)]
        b = rng.normal(size=(n, n)) + 2 * np.eye(n)
        assert md_transform_check(one_row(mats), b[None])[0] < 1e-10
    # a batch gives per-row results, each that of its row alone
    for n in (2, 3):
        tuples = [[spd(rng, n) for _ in range(n)] for _ in range(5)]
        bs = [rng.normal(size=(n, n)) + 2 * np.eye(n) for _ in range(5)]
        chk = md_transform_check(list(np.swapaxes(np.array(tuples), 0, 1)), np.array(bs))
        single = [md_transform_check(one_row(t), b[None])[0] for t, b in zip(tuples, bs)]
        assert np.all(chk <= 1e-10) and np.array_equal(chk, single)


def test_transform_rejects_singular():
    with pytest.raises(InvalidInputError):
        md_transform_check(one_row([np.eye(2), np.eye(2)]), np.zeros((1, 2, 2)))


def alexandrov_gap(a, b, rest=()):
    """(gap, relative gap) of Q(A, B, rest)^2 >= Q(A, A, rest) Q(B, B, rest)."""
    lhs = q_one([a, b, *rest]) ** 2
    rhs = q_one([a, a, *rest]) * q_one([b, b, *rest])
    return lhs - rhs, (lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def test_alexandrov_equality_cases():
    # equality exactly when A = c B
    rng = np.random.default_rng(7)
    b = spd(rng, 3)
    rest = [spd(rng, 3)]
    gap, _ = alexandrov_gap(b, b, rest)
    assert abs(gap) < 1e-12
    _, rel3 = alexandrov_gap(3.0 * b, b, rest)
    assert abs(rel3) < 1e-12


def test_alexandrov_randomized():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        for _ in range(100):
            rest = [spd(rng, n) for _ in range(n - 2)]
            a = rng.normal(size=(n, n))
            a = 0.5 * (a + a.T)  # A need not be definite
            _, rel = alexandrov_gap(a, spd(rng, n), rest)
            assert rel >= -1e-12


def test_tuple_validation():
    # n arguments, each a (B, n, n) batch of one shape
    with pytest.raises(InvalidInputError):
        mixed_discriminant_batch(one_row([np.eye(2), np.eye(3)]))
    with pytest.raises(InvalidInputError):
        mixed_discriminant_batch([np.ones((1, 2)), np.ones((1, 2))])
    with pytest.raises(InvalidInputError):
        mixed_discriminant_batch(one_row([np.eye(2)]))
    with pytest.raises(InvalidInputError):
        mixed_discriminant_batch([np.ones((2, 2, 2)), np.ones((3, 2, 2))])


def test_every_entry_point_takes_exactly_n_arguments():
    # three 2x2 stacks once read as Q(I, 2I) = 2 in the batched route, and
    # two 3x3 stacks stopped there with a bare IndexError
    eye2 = np.broadcast_to(np.eye(2), (4, 2, 2))
    eye3 = np.broadcast_to(np.eye(3), (4, 3, 3))
    for mats in ([eye2, 2.0 * eye2, 5.0 * eye2], [eye3, eye3]):
        for func in (mixed_discriminant_batch, mixed_disc_gradient):
            with pytest.raises(InvalidInputError, match="needs"):
                func(mats)


def test_batched_matches_scalar():
    rng = np.random.default_rng(9)
    a = np.stack([spd(rng, 2) for _ in range(6)])
    b = np.stack([spd(rng, 2) for _ in range(6)])
    batch = mixed_discriminant_batch([a, b])
    for i in range(6):
        assert batch[i] == pytest.approx(q_one([a[i], b[i]]), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([2, 3]))
def test_property_diagonal_and_symmetry(data, n):
    entries = data.draw(st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=n * n * n, max_size=n * n * n))
    raw = np.asarray(entries).reshape(n, n, n)
    mats = [m @ m.T + 0.5 * np.eye(n) for m in raw]
    q = q_one(mats)
    assert q_one(mats[::-1]) == pytest.approx(q, rel=1e-11, abs=1e-13)
    d = q_one([mats[0]] * n)
    assert d == pytest.approx(float(np.linalg.det(mats[0])), rel=1e-11, abs=1e-13)
