from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import capaf.functionals as fn
from capaf.bodies import (make_wulff_cap, minkowski_combine, random_capillary_body,
                          rebind, translate_horizontal)
from capaf.capgeom import CapConfig, build_cap_mesh
from capaf.errors import InvalidInputError
from capaf.fields import CombinationField, kernel_field

CASES = [("iso3", 0.0), ("ell3", -0.4), ("pert3", -0.35)]


# -- volume --------------------------------------------------------------------


def test_hemisphere_volume(mesh_factory):
    vol = fn.volume(make_wulff_cap(mesh_factory("iso3", 0.0, 4), 1.0))
    assert vol == pytest.approx(2 * np.pi / 3, rel=5e-3)


def test_halfdisk_volume(mesh_factory):
    vol = fn.volume(make_wulff_cap(mesh_factory("iso2", 0.0, 4), 1.0))
    assert vol == pytest.approx(np.pi / 2, rel=1e-6)


# -- the inscribed-polytope oracle ---------------------------------------------


def _polytope_gaps(model, w0, levels, weight_scale=1.0):
    """Per level, the polytope oracle's relative differences from mixed_volume
    (bodies 101..103) and from volume (body 101), on fresh meshes whose
    quadrature weights are then scaled by weight_scale."""
    gaps = []
    for level in levels:
        mesh = build_cap_mesh(CapConfig(model, w0, level))
        bodies = [random_capillary_body(mesh, seed) for seed in (101, 102, 103)]
        mesh.weights = mesh.weights * weight_scale
        mv, vol = fn.mixed_volume(bodies), fn.volume(bodies[0])
        gaps.append((abs(fn.polytope_mixed_volume(bodies) - mv) / abs(mv),
                     abs(fn.polytope_mixed_volume([bodies[0]] * 3) - vol) / vol))
    return gaps


@pytest.mark.parametrize("name,w0", [("ell3", -0.4), ("pert3", -0.35)])
def test_polytope_oracle_agrees_at_second_order(model_factory, name, w0):
    # the inscribed polytopes' mixed volume and volume tend to the quadrature
    # routes' at O(h^2): the difference falls by about 4 per level
    gaps = _polytope_gaps(model_factory(name), w0, (3, 4, 5))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert all(c / f > 3.5 for c, f in zip(coarse, fine)), gaps


@pytest.mark.parametrize("name,w0", [("ell3", -0.4), ("pert3", -0.35)])
def test_polytope_oracle_sees_a_planted_weight_defect(model_factory, name, w0):
    # every quadrature weight 1% too large: the difference stalls near 1%
    (coarse_mv, coarse_vol), (fine_mv, fine_vol) = _polytope_gaps(
        model_factory(name), w0, (4, 5), weight_scale=1.01)
    assert coarse_mv / fine_mv < 2 and coarse_vol / fine_vol < 2


@pytest.mark.parametrize("name,w0", [("ell3", -0.4), ("pert2", -0.2)])
def test_polytope_oracle_volume_is_the_cells_determinant_sum(model_factory, name, w0):
    # the diagonal case is the polytope's volume, the cones over its cells
    mesh = build_cap_mesh(CapConfig(model_factory(name), w0, 3))
    body = random_capillary_body(mesh, 101)
    n1 = mesh.n + 1
    dets = np.linalg.det(body.X[mesh.cells])
    assert fn.polytope_mixed_volume([body] * n1) == pytest.approx(
        abs(np.sum(dets)) / math.factorial(n1), rel=1e-14, abs=0.0)


# -- mixed volumes ---------------------------------------------------------------


def test_halfdisk_mixed_volume(mesh_factory):
    mesh = mesh_factory("iso2", 0.0, 4)
    k1, k2 = make_wulff_cap(mesh, 1.3), make_wulff_cap(mesh, 0.7)
    got = fn.mixed_volume([k1, k2])
    assert got == pytest.approx(np.pi / 2 * 1.3 * 0.7, rel=1e-4)


@pytest.mark.parametrize("name,w0", CASES)
def test_diagonal_consistency_all_routes(body_factory, name, w0):
    body = body_factory(name, w0, 3, seed=2)
    vol = fn.volume(body)
    for route in ("anisotropic", "euclidean", "polyfit"):
        got = fn.mixed_volume([body] * 3, route=route)
        assert got == pytest.approx(vol, rel=1e-8)


@pytest.mark.parametrize("name,w0", CASES)
def test_route_equivalence(body_factory, name, w0):
    bods = [body_factory(name, w0, 3, seed=s) for s in (2, 3, 4)]
    va = fn.mixed_volume(bods, route="anisotropic")
    ve = fn.mixed_volume(bods, route="euclidean")
    vp = fn.mixed_volume(bods, route="polyfit")
    assert abs(va - ve) / abs(ve) < 1e-8
    assert abs(vp - ve) / abs(ve) < 1e-4


def test_integrand_identity_pointwise(body_factory):
    for name, w0 in CASES:
        bodies = [body_factory(name, w0, 3, seed=s) for s in (5, 6)]
        defect = fn.integrand_identity_defect(bodies)
        assert defect < 1e-8


def test_mixed_volume_scaling_and_translation(body_factory):
    bods = [body_factory("ell3", -0.4, 3, seed=s) for s in (2, 3, 4)]
    base = fn.mixed_volume(bods)
    scaled = fn.mixed_volume([minkowski_combine([bods[0]], [2.5])] + bods[1:])
    assert scaled == pytest.approx(2.5 * base, rel=1e-11)
    moved = translate_horizontal(bods[0], np.array([0.1, -0.07, 0.0]))
    assert fn.mixed_volume([moved] + bods[1:]) == pytest.approx(base, rel=1e-10)
    v_t = fn.volume(moved)
    assert v_t == pytest.approx(fn.volume(bods[0]), rel=1e-10)


def test_quermassintegral_translation_invariance(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=2)
    moved = translate_horizontal(body, np.array([0.1, 0.05, 0.0]))
    for k in range(4):
        assert fn.quermassintegral(moved, k) == pytest.approx(
            fn.quermassintegral(body, k), rel=1e-10)


def test_mixed_volume_validation(body_factory, mesh_factory):
    bods = [body_factory("ell3", -0.4, 3, seed=s) for s in (2, 3)]
    with pytest.raises(InvalidInputError):
        fn.mixed_volume(bods)  # needs n+1 bodies
    other = make_wulff_cap(mesh_factory("ell3", -0.4, 2), 1.0)
    with pytest.raises(InvalidInputError):
        fn.mixed_volume(bods + [other])


# -- symmetry --------------------------------------------------------------------


def test_symmetry_equal_bodies_exact(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=7)
    out = fn.symmetry_check([body] * 3)
    assert out["swap_deviation"] == 0.0
    assert out["trailing_deviation"] < 1e-14 * out["scale"]


def test_symmetry_trailing_roundoff(body_factory):
    bods = [body_factory("ell3", -0.4, 3, seed=s) for s in (7, 8, 9)]
    out = fn.symmetry_check(bods)
    assert out["trailing_deviation"] / out["scale"] < 1e-12


def test_symmetry_check_evaluates_each_slot_form_once(body_factory, monkeypatch):
    # v01, v10 and the one non-identity trailing permutation: one discriminant
    # per slot sum, and the identity permutation is v01 itself
    calls = []
    real = fn.mixed_discriminant_batch
    monkeypatch.setattr(fn, "mixed_discriminant_batch",
                        lambda mats: calls.append(mats) or real(mats))
    fn.symmetry_check([body_factory("ell3", -0.4, 3, seed=s) for s in (7, 8, 9)])
    assert len(calls) == 3


def test_slot_sums_keep_the_argument_order(body_factory, monkeypatch):
    # a planted discriminant that depends on argument order must show in the
    # trailing deviation; sorted memo keys would hide it (it would read 0.0)
    from capaf.config import TOLERANCES

    real = fn.mixed_discriminant_batch
    monkeypatch.setattr(fn, "mixed_discriminant_batch",
                        lambda mats: real(mats) + 1e-3 * mats[0][:, 0, 0] * mats[1][:, 1, 1])
    out = fn.symmetry_check([body_factory("ell3", -0.4, 3, seed=s) for s in (7, 8, 9)])
    assert out["trailing_deviation"] / out["scale"] > TOLERANCES["symmetry_trailing"]


def test_symmetry_swap_converges(body_factory, mesh_factory):
    fine = [body_factory("ell3", -0.4, 4, seed=s) for s in (7, 8, 9)]
    devs = []
    for level in (2, 3, 4):
        bods = [rebind(b, mesh_factory("ell3", -0.4, level)) for b in fine]
        out = fn.symmetry_check(bods)
        devs.append(out["swap_deviation"] / out["scale"])
    assert devs[0] / devs[2] > 4.0  # two levels of refinement


# -- quermassintegrals ------------------------------------------------------------


def test_quermassintegral_volume_case(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=2)
    assert fn.quermassintegral(body, 0) == fn.volume(body)
    with pytest.raises(InvalidInputError):
        fn.quermassintegral(body, 4)


@pytest.mark.parametrize("name,w0", CASES)
def test_wulff_quermassintegral_scaling(mesh_factory, name, w0):
    mesh = mesh_factory(name, w0, 3)
    r0 = 1.4
    wulff = make_wulff_cap(mesh, r0)
    cap_vol = fn.volume(mesh.cap_body)
    for k in range(0, mesh.n + 2):
        assert fn.quermassintegral(wulff, k) == pytest.approx(
            r0 ** (mesh.n + 1 - k) * cap_vol, rel=1e-5)


@pytest.mark.parametrize("name,w0", CASES)
def test_quermassintegral_correspondence(body_factory, name, w0):
    body = body_factory(name, w0, 3, seed=3)
    for k in range(1, body.mesh.n + 2):
        qi = fn.quermassintegral(body, k)
        qm = fn.quermassintegral_mixed_route(body, k)
        assert abs(qi - qm) / abs(qi) < 1e-5


def test_quermassintegral_boundary_form(body_factory):
    body = body_factory("ell3", -0.4, 4, seed=3)
    interior = fn.quermassintegral(body, 1)
    boundary = fn.quermassintegral_boundary_route(body)
    assert abs(interior - boundary) / abs(interior) < 2e-3


def test_flat_face_measure_hemisphere(mesh_factory):
    cap = make_wulff_cap(mesh_factory("iso3", 0.0, 4), 1.0)
    assert fn.flat_face_measure(cap) == pytest.approx(np.pi, rel=2e-3)


# -- Minkowski formula ------------------------------------------------------------


def test_minkowski_formula_hemisphere(mesh_factory):
    # pointwise-zero integrand for the exact cap: residual at the radii
    # matrices' finite-difference noise floor
    cap = make_wulff_cap(mesh_factory("iso3", 0.0, 3), 1.0)
    assert abs(fn.minkowski_formula_residual(cap, 0)) < 1e-7


def test_minkowski_formula_convergence(body_factory, mesh_factory):
    fine = [body_factory("ell3", -0.4, 5, seed=s) for s in range(1, 6)]
    for k in (0, 1):
        agg = []
        for level in (3, 4, 5):
            mesh = mesh_factory("ell3", -0.4, level)
            agg.append(max(abs(fn.minkowski_formula_residual(rebind(b, mesh), k))
                           for b in fine))
        assert agg[0] / agg[1] >= 2.0
        assert agg[1] / agg[2] >= 2.0
    with pytest.raises(InvalidInputError):
        fn.minkowski_formula_residual(fine[0], 2)


# -- Steiner formula ---------------------------------------------------------------


def test_steiner_cap_binomial(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 3)
    rep = fn.steiner_check(mesh.cap_body, tol=1e-7)
    assert rep.passed


def test_steiner_wulff_coefficients(mesh_factory):
    # the oracle binom(3, k) 1.6^(3-k) |C| for the Steiner coefficients:
    # each quermassintegral of the 1.6 cap scales the cap volume, and the
    # fit matches the binomial-weighted quermassintegrals
    mesh = mesh_factory("ell3", -0.4, 3)
    wulff = make_wulff_cap(mesh, 1.6)
    cap_vol = fn.volume(mesh.cap_body)
    for k in range(4):
        assert fn.quermassintegral(wulff, k) == pytest.approx(1.6 ** (3 - k) * cap_vol,
                                                             rel=1e-5)
    assert fn.steiner_check(wulff, tol=1e-6).passed


def test_steiner_random_bodies(body_factory):
    for seed in (1, 2, 3):
        rep = fn.steiner_check(body_factory("ell3", -0.4, 4, seed=seed), tol=1e-4)
        assert rep.passed


# -- divergence identity ------------------------------------------------------------


def test_divergence_identity_cap_fields(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 3)
    cap = mesh.cap_body
    assert fn.divergence_identity_check(cap, [cap]) < 1e-10


@pytest.mark.parametrize("name,w0", [("iso3", -0.5), ("ell3", -0.4)])
def test_divergence_identity_converges(body_factory, name, w0):
    vals = []
    for level in (3, 4, 5):
        b1 = body_factory(name, w0, level, seed=21)
        b2 = body_factory(name, w0, level, seed=22)
        vals.append(fn.divergence_identity_check(b1, [b2]))
    assert vals[0] / vals[2] > 4.0
    assert vals[2] < 1e-3


# -- operator -----------------------------------------------------------------------


def test_operator_eigenfunction(body_factory):
    f2 = body_factory("ell3", -0.4, 3, seed=31)
    ag = fn.operator_a_apply(f2, [f2])
    assert np.max(np.abs(ag - f2.shat)) < 1e-8


def test_operator_kernel_annihilation(body_factory):
    f2 = body_factory("ell3", -0.4, 3, seed=31)
    kern = kernel_field(f2.mesh, 1)
    assert np.max(np.abs(fn.operator_a_apply(kern, [f2]))) < 1e-10


def test_operator_selfadjoint_converges(body_factory, mesh_factory):
    fine = [body_factory("ell3", -0.4, 4, seed=s) for s in (31, 32, 33)]
    devs = []
    for level in (2, 3, 4):
        bods = [rebind(b, mesh_factory("ell3", -0.4, level)) for b in fine]
        devs.append(fn.operator_selfadjoint_deviation(bods[0], bods[1], [bods[2]]))
    assert devs[0] / devs[2] > 4.0


def test_operator_energy_inequality(body_factory):
    f2 = body_factory("ell3", -0.4, 3, seed=31)
    for seed in range(40, 46):
        g = CombinationField([body_factory("ell3", -0.4, 3, seed=seed).field,
                              body_factory("ell3", -0.4, 3, seed=seed + 10).field], [1.0, -1.0])
        rep = fn.operator_a_energy_check(g, [f2], tol=1e-6)
        assert rep.passed
    rep_eq = fn.operator_a_energy_check(f2, [f2], tol=1e-10)
    assert abs(rep_eq.gap) <= 1e-10 * max(abs(rep_eq.lhs), abs(rep_eq.rhs))


def test_operator_computes_its_denominator_once(body_factory, monkeypatch):
    # Q(tau_2, tau_2, ...) once per call, shared by the weights and A f
    bods = [body_factory("ell3", -0.4, 3, seed=s) for s in (31, 32, 33)]
    calls = []
    real = fn.mixed_discriminant_batch
    monkeypatch.setattr(fn, "mixed_discriminant_batch",
                        lambda mats: calls.append(mats) or real(mats))
    fn.operator_a_energy_check(CombinationField([bods[0].field, bods[1].field], [1.0, -1.0]),
                               [bods[2]], tol=1e-6)
    assert len(calls) == 2
    fn.operator_selfadjoint_deviation(bods[0], bods[1], [bods[2]])
    assert len(calls) == 2 + 3


def test_operator_weighted_symmetry_vs_mixed_volume(body_factory):
    # <f, A g>_omega equals V(f, g, rest) by construction of the weights;
    # the slot form anchors the multiplier, so they differ by the kernel
    # term's quadrature defect only
    bods = [body_factory("ell3", -0.4, 3, seed=s) for s in (31, 32, 33)]
    om = fn._operator_frame([bods[1]])[2]
    ag = fn.operator_a_apply(bods[2], [bods[1]])
    inner = fn.operator_inner(bods[0].shat, ag, om)
    va = fn._slot_sums(bods)(0, (2, 1))
    assert inner == pytest.approx(va, rel=1e-4)


def test_operator_requires_n2(mesh_factory):
    mesh = mesh_factory("iso2", 0.0, 3)
    cap = make_wulff_cap(mesh, 1.0)
    with pytest.raises(InvalidInputError):
        fn.operator_a_apply(cap, [])


# -- inequalities ---------------------------------------------------------------------


@pytest.mark.parametrize("name,w0", CASES)
def test_af_inequality_random(body_factory, name, w0):
    for seed in (50, 60):
        bods = [body_factory(name, w0, 3, seed=seed + j) for j in range(3)]
        rep = fn.af_inequality_check(bods, tol=1e-8)
        assert rep.passed


def test_af_equality_case(body_factory):
    bods = [body_factory("ell3", -0.4, 3, seed=s) for s in (70, 71, 72)]
    k1 = translate_horizontal(minkowski_combine([bods[0]], [2.0]),
                              np.array([0.1, 0.0, 0.0]))
    rep = fn.af_inequality_check([k1, bods[0], bods[2]], tol=1e-6,
                                 equality_expected=True)
    assert rep.passed and abs(rep.relative_gap) < 1e-6


def test_af_all_equal_is_exact(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=70)
    rep = fn.af_inequality_check([body] * 3, tol=1e-12, equality_expected=True)
    assert rep.passed


@pytest.mark.parametrize("name,w0", CASES)
def test_quermassintegral_chain(body_factory, name, w0):
    body = body_factory(name, w0, 3, seed=80)
    for k in range(3):
        for l in range(k):
            rep = fn.quermassintegral_chain_check(body, k, l, tol=1e-7)
            assert rep.passed, (k, l, rep.relative_gap)
    with pytest.raises(InvalidInputError):
        fn.quermassintegral_chain_check(body, 0, 1, tol=1e-7)


def test_chain_wulff_equality(mesh_factory):
    wulff = make_wulff_cap(mesh_factory("ell3", -0.4, 3), 1.7)
    rep = fn.quermassintegral_chain_check(wulff, 2, 0, tol=1e-6,
                                          equality_expected=True)
    assert rep.passed


def test_chain_large_contact_angle(body_factory):
    # omega0 = +0.5 corresponds to contact angle 2 pi / 3
    body = body_factory("iso3", 0.5, 3, seed=81)
    for (l, k) in ((0, 1), (0, 2), (1, 2)):
        rep = fn.quermassintegral_chain_check(body, k, l, tol=1e-7)
        assert rep.passed


def test_generalized_chain(body_factory):
    bods = [body_factory("ell3", -0.4, 3, seed=s) for s in (90, 91, 92)]
    for m in (2, 3):
        trailing = bods[2:2 + (3 - m)]
        for i in range(0, m - 1):
            for j in range(i + 1, m):
                for k in range(j + 1, m + 1):
                    rep = fn.generalized_chain_check(bods[0], bods[1], trailing,
                                                     m, i, j, k, tol=1e-7)
                    assert rep.passed, (m, i, j, k, rep.relative_gap)
    with pytest.raises(InvalidInputError):
        fn.generalized_chain_check(bods[0], bods[1], [bods[2]], 2, 0, 2, 1, tol=1e-7)


def test_chain_families_match_the_single_checks_bit_for_bit(body_factory):
    # a family evaluates each volume once and builds every report from them
    bods = [body_factory("ell3", -0.4, 3, seed=s) for s in (90, 91, 92)]
    pairs = [(k, l) for k in range(3) for l in range(k + 1)]
    for eq in (False, True):
        family = fn.quermassintegral_chain_family(bods[0], pairs, 1e-7, eq)
        assert list(family) == pairs
        for k, l in pairs:
            assert family[k, l] == fn.quermassintegral_chain_check(bods[0], k, l, 1e-7, eq)
        for m in (2, 3):
            trailing = bods[2:2 + (3 - m)]
            triples = list(itertools.combinations(range(m + 1), 3))
            family = fn.generalized_chain_family(bods[0], bods[1], trailing, m, triples, 1e-7, eq)
            assert list(family) == triples
            for i, j, k in triples:
                assert family[i, j, k] == fn.generalized_chain_check(
                    bods[0], bods[1], trailing, m, i, j, k, 1e-7, eq)
    with pytest.raises(InvalidInputError, match="0 <= l <= k <= n"):
        fn.quermassintegral_chain_family(bods[0], [(1, 0), (0, 1)], 1e-7)
    with pytest.raises(InvalidInputError, match="0 <= i < j < k <= m"):
        fn.generalized_chain_family(bods[0], bods[1], [bods[2]], 2, [(0, 1, 2), (0, 2, 1)], 1e-7)


@pytest.mark.parametrize("name,w0", [("ell2", 0.3), ("ell3", -0.4)])
def test_family_volumes_are_mixed_volumes_bit_for_bit(body_factory, monkeypatch, name, w0):
    # every volume af and the chain families read off a family's slot sums,
    # in the order they read them, is mixed_volume of the explicit body list
    bods = [body_factory(name, w0, 3, seed=s) for s in (90, 91, 92)]
    n = bods[0].mesh.n
    k0, k1, rest, cap = bods[0], bods[1], bods[2:n + 1], bods[0].mesh.cap_body
    seen = []
    real = fn._volume
    monkeypatch.setattr(fn, "_volume", lambda r, t: seen.append(real(r, t)) or seen[-1])
    fn.af_inequality_check([k0, k1] + rest, 1e-8)
    fn.af_inequality_check([k0] * (n + 1), 1e-8)
    explicit = [[k0, k1] + rest, [k0, k0] + rest, [k1, k1] + rest] + [[k0] * (n + 1)] * 3
    fn.quermassintegral_chain_family(k0, [(k, l) for k in range(n + 1) for l in range(k + 1)],
                                     1e-7)
    explicit += [[cap] * (n + 1)] + [[k0] * (n + 1 - j) + [cap] * j for j in range(n + 1)]
    for m in range(2, n + 2):
        trailing = bods[2:2 + n + 1 - m]
        fn.generalized_chain_family(k0, k1, trailing, m,
                                    list(itertools.combinations(range(m + 1), 3)), 1e-7)
        explicit += [[k0] * (m - c) + [k1] * c + trailing for c in range(m + 1)]
    monkeypatch.undo()
    assert seen == [fn.mixed_volume(bodies) for bodies in explicit]


def test_slot_sums_are_the_one_mixed_volume_assembly():
    """In functionals only volume_of_combination and the slot sums read a
    body's anchored support, and no definition reads mixed_volume (or the
    old _mv_slot): every check reads its family's slot sums."""
    import ast
    import inspect

    readers, assemblers = set(), set()
    for node in ast.parse(inspect.getsource(fn)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr == "shat_anchored":
                    readers.add(node.name)
                if isinstance(sub, ast.Name) and sub.id in ("mixed_volume", "_mv_slot"):
                    assemblers.add(node.name)
    assert readers == {"volume_of_combination", "_slot_sums"}
    assert assemblers == set()
    assert not hasattr(fn, "_mv_slot")


def test_generalized_chain_equality(body_factory):
    k1 = body_factory("ell3", -0.4, 3, seed=93)
    k0 = translate_horizontal(minkowski_combine([k1], [1.5]),
                              np.array([0.05, -0.02, 0.0]))
    trailing = [body_factory("ell3", -0.4, 3, seed=94)]
    rep = fn.generalized_chain_check(k0, k1, trailing, 2, 0, 1, 2, tol=1e-6,
                                     equality_expected=True)
    assert rep.passed


def test_generalized_chain_equal_bodies(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=95)
    rep = fn.generalized_chain_check(body, body, [body], 2, 0, 1, 2, tol=1e-10,
                                     equality_expected=True)
    assert rep.passed


# -- report plumbing ------------------------------------------------------------------


def test_inequality_report_semantics():
    rep = fn.InequalityReport.inequality(1.0, 2.0, 1e-6)
    assert not rep.passed and rep.gap == -1.0
    rep = fn.InequalityReport.inequality(2.0, 1.0, 1e-6)
    assert rep.passed
    rep = fn.InequalityReport.identity(1.0, 1.0 + 1e-9, 1e-6)
    assert rep.passed
    rep = fn.InequalityReport.inequality(1.0 + 1e-9, 1.0, 1e-6, equality_expected=True)
    assert rep.passed
    assert not fn.InequalityReport.identity(2.0, 1.0, 1e-6).passed


def test_inequality_report_holds_the_six_record_fields():
    # a verdict carries exactly what a report record stores of it
    from dataclasses import fields

    from capaf.report import CheckRecord

    stored = [f.name for f in fields(CheckRecord)]
    outcome = stored[stored.index("lhs"):stored.index("passed") + 1]
    assert outcome == ["lhs", "rhs", "gap", "relative_gap", "tolerance", "passed"]
    assert [f.name for f in fields(fn.InequalityReport)] == outcome


def test_mixed_volume_rejects_a_non_finite_value(body_factory, monkeypatch):
    bods = [body_factory("ell3", -0.4, 3, seed=s) for s in (2, 3, 4)]
    monkeypatch.setattr(fn, "mixed_discriminant_batch",
                        lambda mats: np.full(len(mats[0]), np.nan))
    for route in ("anisotropic", "euclidean"):
        with pytest.raises(InvalidInputError, match="mixed volume is not finite"):
            fn.mixed_volume(bods, route=route)
    for check in (lambda: fn.af_inequality_check(bods, 1e-8),
                  lambda: fn.quermassintegral_chain_family(bods[0], [(1, 0)], 1e-7),
                  lambda: fn.generalized_chain_family(bods[0], bods[1], [bods[2]], 2,
                                                      [(0, 1, 2)], 1e-7)):
        with pytest.raises(InvalidInputError, match="mixed volume is not finite"):
            check()
    monkeypatch.setattr(fn, "_mv_polyfit", lambda b: float("inf"))
    with pytest.raises(InvalidInputError, match="mixed volume is not finite"):
        fn.mixed_volume(bods, route="polyfit")


def test_operator_energy_kernel_both_sides_vanish(body_factory):
    f2 = body_factory("ell3", -0.4, 3, seed=31)
    rep = fn.operator_a_energy_check(kernel_field(f2.mesh, 0), [f2], tol=1e-10)
    assert abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-12 and rep.passed


def test_divergence_per_level_ratios(body_factory):
    vals = []
    for level in (3, 4, 5):
        b1 = body_factory("ell3", -0.4, level, seed=21)
        b2 = body_factory("ell3", -0.4, level, seed=22)
        vals.append(fn.divergence_identity_check(b1, [b2]))
    assert vals[0] / vals[1] >= 2.0
    assert vals[1] / vals[2] >= 2.0
