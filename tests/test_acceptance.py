"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criteria are property- and
convergence-based; decay criteria aggregate (max) over the stated body
samples because individual residuals are signed quadrature defects that
can cross zero at a single mesh size.
"""

from __future__ import annotations

import json
import time

import numpy as np

import capaf.functionals as fn
from capaf.bodies import make_wulff_cap, minkowski_combine, rebind, translate_horizontal
from capaf.cli import main
from capaf.fields import CombinationField
from capaf.mixdisc import mixed_disc_gradient, mixed_discriminant_batch
from tests.conftest import body_for, mesh_for

N2_CONFIGS = [("iso3", -0.5), ("iso3", 0.0), ("iso3", 0.5), ("ell3", -0.4),
              ("pert3", -0.35)]


def _report(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status}: {label}  {detail}")
    assert passed, f"criterion {num}: {label} {detail}"


# -----------------------------------------------------------------------------


def test_criterion_01_mixed_discriminant_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    tol = 1e-10
    worst = 0.0
    for n in (2, 3):
        b = 1000
        raw = rng.normal(size=(n, b, n, n))
        mats = [m @ np.swapaxes(m, -1, -2) + 0.3 * np.eye(n) for m in raw]
        q = mixed_discriminant_batch(mats)
        scale = np.maximum(np.abs(q), 1e-30)
        # diagonal
        det0 = np.linalg.det(mats[0])
        diag = mixed_discriminant_batch([mats[0]] * n)
        worst = max(worst, float(np.max(np.abs(diag - det0) / np.maximum(np.abs(det0), 1e-30))))
        # permutation symmetry
        q_perm = mixed_discriminant_batch(mats[::-1])
        worst = max(worst, float(np.max(np.abs(q_perm - q) / scale)))
        # multilinearity
        extra = rng.normal(size=(b, n, n))
        extra = extra @ np.swapaxes(extra, -1, -2) + 0.3 * np.eye(n)
        lhs = mixed_discriminant_batch([1.3 * mats[0] + 0.6 * extra] + mats[1:])
        rhs = 1.3 * q + 0.6 * mixed_discriminant_batch([extra] + mats[1:])
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-30))))
        # transform law with one random invertible matrix per n
        bmat = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        tq = mixed_discriminant_batch([m @ bmat for m in mats])
        worst = max(worst, float(np.max(np.abs(tq - q * np.linalg.det(bmat)) /
                                        np.maximum(np.abs(tq), 1e-30))))
        # gradient contraction sum_ij (A_1)_ij dQ/d(A_1)_ij = Q on every tuple
        g = mixed_disc_gradient(mats)
        contraction = np.sum((mats[0] * g).reshape(b, -1), axis=1)
        worst = max(worst, float(np.max(np.abs(contraction - q) / scale)))
        # Alexandrov inequality
        q12 = mixed_discriminant_batch([mats[0], mats[1]] + mats[2:n])
        q11 = mixed_discriminant_batch([mats[0], mats[0]] + mats[2:n])
        q22 = mixed_discriminant_batch([mats[1], mats[1]] + mats[2:n])
        gap = q12**2 - q11 * q22
        rel = gap / np.maximum(np.maximum(q12**2, q11 * q22), 1e-30)
        worst = max(worst, float(np.max(-rel)))
    elapsed = time.monotonic() - t0
    _report(1, "mixed-discriminant algebra on 1000 SPD tuples (n=2,3)",
            worst <= tol and elapsed < 5.0,
            f"worst={worst:.2e} (tol {tol}), {elapsed:.1f}s (< 5s)")


def test_criterion_02_isotropic_reduction():
    t0 = time.monotonic()
    mesh = mesh_for("iso3", 0.0, 4)
    # the region is the spherical cap {x3 >= cos theta}; theta = pi/2 here
    bd = mesh.nodes[mesh.boundary_loop]
    cap_dev = float(np.max(np.abs(bd[:, 2] - 0.0)))
    mesh3 = mesh_for("iso3", -0.5, 4)
    cap_dev3 = float(np.max(np.abs(mesh3.nodes[mesh3.boundary_loop][:, 2] - 0.5)))
    vol = fn.volume(make_wulff_cap(mesh, 1.0))
    vol_err = abs(vol - 2 * np.pi / 3) / (2 * np.pi / 3)
    m1 = mesh_for("iso2", 0.0, 4)
    k1, k2 = make_wulff_cap(m1, 1.3), make_wulff_cap(m1, 0.7)
    mv = fn.mixed_volume([k1, k2])
    mv_err = abs(mv - np.pi / 2 * 1.3 * 0.7) / (np.pi / 2 * 1.3 * 0.7)
    elapsed = time.monotonic() - t0
    _report(2, "isotropic reduction (spherical caps, hemisphere volume, half-disks)",
            cap_dev < 1e-9 and cap_dev3 < 1e-9 and vol_err < 5e-3
            and mv_err < 1e-4 and elapsed < 30.0,
            f"cap_dev={max(cap_dev, cap_dev3):.1e} vol_err={vol_err:.2e} (<0.5%) "
            f"mv_err={mv_err:.2e} (<1e-4), {elapsed:.1f}s (< 30s)")


def test_criterion_03_route_equivalence():
    t0 = time.monotonic()
    results = {}
    for name, w0, tol_ae in (("ell3", -0.4, 1e-8), ("pert3", -0.35, 1e-5)):
        worst_ae, worst_poly = 0.0, 0.0
        pool = [body_for(name, w0, 4, seed=s) for s in range(300, 322)]
        for j in range(20):
            bods = pool[j:j + 3]
            va = fn.mixed_volume(bods, route="anisotropic")
            ve = fn.mixed_volume(bods, route="euclidean")
            vp = fn.mixed_volume(bods, route="polyfit")
            worst_ae = max(worst_ae, abs(va - ve) / abs(ve))
            worst_poly = max(worst_poly, abs(vp - ve) / abs(ve),
                             abs(vp - va) / abs(va))
        results[name] = (worst_ae, tol_ae, worst_poly)
    elapsed = time.monotonic() - t0
    ok = all(ae <= tol and poly <= 1e-4 for ae, tol, poly in results.values())
    detail = "  ".join(f"{k}: ae={v[0]:.2e}(tol {v[1]}) poly={v[2]:.2e}"
                       for k, v in results.items())
    _report(3, "route equivalence on 20 random triples per norm at level 4",
            ok and elapsed < 300.0, detail + f", {elapsed:.0f}s (< 5min)")


def test_criterion_04_wulff_cap_exactness():
    worst_tau, worst_q, worst_eq = 0.0, 0.0, 0.0
    for name, w0 in (("iso3", -0.5), ("ell3", -0.4), ("pert3", -0.35)):
        mesh = mesh_for(name, w0, 4)
        r0 = 1.4
        wulff = make_wulff_cap(mesh, r0)
        worst_tau = max(worst_tau, float(np.max(np.abs(wulff.tau - r0 * np.eye(2)))) / r0)
        cap_vol = fn.volume(mesh.cap_body)
        for k in range(0, mesh.n + 2):
            expect = r0 ** (mesh.n + 1 - k) * cap_vol
            worst_q = max(worst_q, abs(fn.quermassintegral(wulff, k) - expect) / expect)
        for k in range(mesh.n + 1):
            for l in range(k):
                rep = fn.quermassintegral_chain_check(wulff, k, l, tol=1e-6,
                                                      equality_expected=True)
                worst_eq = max(worst_eq, abs(rep.relative_gap))
    _report(4, "Wulff-cap exactness (tau, quermassintegral scaling, chain equality)",
            worst_tau <= 1e-6 and worst_q <= 1e-5 and worst_eq <= 1e-6,
            f"tau={worst_tau:.2e} (tol 1e-6) querm={worst_q:.2e} (tol 1e-5) "
            f"chain_eq={worst_eq:.2e} (tol 1e-6)")


def test_criterion_05_kernel_functions():
    levels = (3, 4, 5)
    worst_l4, worst_ratio = 0.0, np.inf
    for name, w0 in (("iso3", -0.5), ("ell3", -0.4)):
        for alpha in range(2):
            decay = [fn.kernel_tau_intrinsic(mesh_for(name, w0, L))[alpha]
                     for L in levels]
            worst_l4 = max(worst_l4, decay[1])
            worst_ratio = min(worst_ratio, decay[0] / decay[1], decay[1] / decay[2])
    _report(5, "kernel functions: intrinsic tau max at level 4, decay per level",
            worst_l4 <= 1e-4 and worst_ratio >= 2.0,
            f"max@L4={worst_l4:.2e} (tol 1e-4) worst_ratio={worst_ratio:.2f} (>= 2)")


def test_criterion_06_minkowski_formula():
    levels = (3, 4, 5)
    fine = [body_for("ell3", -0.4, 5, seed=s) for s in range(400, 410)]
    worst_ratio = np.inf
    detail = []
    for k in (0, 1):
        agg = []
        for level in levels:
            mesh = mesh_for("ell3", -0.4, level)
            agg.append(max(abs(fn.minkowski_formula_residual(rebind(b, mesh), k))
                           for b in fine))
        r1, r2 = agg[0] / agg[1], agg[1] / agg[2]
        worst_ratio = min(worst_ratio, r1, r2)
        detail.append(f"k={k}: {agg[0]:.1e}->{agg[1]:.1e}->{agg[2]:.1e}")
    _report(6, "Minkowski formula residual decays >= 2x per level (10 bodies)",
            worst_ratio >= 2.0, "; ".join(detail) + f", worst ratio {worst_ratio:.2f}")


def test_criterion_07_symmetry():
    levels = (3, 4, 5)
    tuples = [[body_for("ell3", -0.4, 5, seed=500 + 10 * t + j) for j in range(3)]
              for t in range(5)]
    swap_agg, trail_worst = [], 0.0
    for level in levels:
        mesh = mesh_for("ell3", -0.4, level)
        worst = 0.0
        for tup in tuples:
            bods = [rebind(b, mesh) for b in tup]
            out = fn.symmetry_check(bods)
            worst = max(worst, out["swap_deviation"] / out["scale"])
            trail_worst = max(trail_worst, out["trailing_deviation"] / out["scale"])
        swap_agg.append(worst)
    ratios = [swap_agg[i] / swap_agg[i + 1] for i in range(2)]
    _report(7, "mixed-volume symmetry: swap decay and trailing permutations",
            min(ratios) >= 2.0 and trail_worst <= 1e-12,
            f"swap={['%.1e' % v for v in swap_agg]} ratios={['%.2f' % r for r in ratios]} "
            f"trailing={trail_worst:.1e} (tol 1e-12)")


def test_criterion_08_steiner_formula():
    worst = 0.0
    for seed in range(600, 610):
        body = body_for("ell3", -0.4, 4, seed=seed)
        rep = fn.steiner_check(body, tol=1e-4)
        worst = max(worst, abs(rep.relative_gap))
    _report(8, "Steiner coefficients match binomial quermassintegrals (10 bodies)",
            worst <= 1e-4, f"worst coefficient error {worst:.2e} (tol 1e-4)")


def test_criterion_09_alexandrov_fenchel():
    t0 = time.monotonic()
    worst_gap = 0.0
    worst_eq = 0.0
    worst_chain = 0.0
    worst_gen = 0.0
    for name, w0 in N2_CONFIGS:
        for t in range(10):
            seed0 = 700 + 10 * t
            bods = [body_for(name, w0, 4, seed=seed0 + j) for j in range(3)]
            rep = fn.af_inequality_check(bods, tol=1e-8)
            worst_gap = max(worst_gap, -rep.relative_gap)
            assert rep.passed
        # equality construction
        k2 = body_for(name, w0, 4, seed=790)
        k3 = body_for(name, w0, 4, seed=791)
        v = np.zeros(3)
        v[0] = 0.1
        k1 = translate_horizontal(minkowski_combine([k2], [2.0]), v)
        rep = fn.af_inequality_check([k1, k2, k3], tol=1e-6, equality_expected=True)
        worst_eq = max(worst_eq, abs(rep.relative_gap))
        assert rep.passed
        # quermassintegral chain and generalized chain at the same tolerances
        body = body_for(name, w0, 4, seed=795)
        for k in range(3):
            for l in range(k):
                repc = fn.quermassintegral_chain_check(body, k, l, tol=1e-7)
                worst_chain = max(worst_chain, -repc.relative_gap)
                assert repc.passed
        bods = [body_for(name, w0, 4, seed=796 + j) for j in range(3)]
        for m in (2, 3):
            trailing = bods[2:2 + (3 - m)]
            for i in range(0, m - 1):
                for j in range(i + 1, m):
                    for k in range(j + 1, m + 1):
                        repg = fn.generalized_chain_check(
                            bods[0], bods[1], trailing, m, i, j, k, tol=1e-7)
                        worst_gen = max(worst_gen, -repg.relative_gap)
                        assert repg.passed
    elapsed = time.monotonic() - t0
    _report(9, "Alexandrov-Fenchel: 50 tuples, equality cases, both chains",
            elapsed < 600.0,
            f"worst gaps: af={worst_gap:.1e} eq={worst_eq:.1e} chain={worst_chain:.1e} "
            f"gen={worst_gen:.1e}, {elapsed:.0f}s (< 10min)")


def test_criterion_10_operator():
    mesh4 = mesh_for("ell3", -0.4, 4)
    f2 = body_for("ell3", -0.4, 4, seed=800)
    # eigenfunction identity
    ag = fn.operator_a_apply(f2, [f2])
    eig_dev = float(np.max(np.abs(ag - f2.shat)))
    # self-adjointness decay with refinement (max over 5 pairs)
    levels = (3, 4, 5)
    tuples = [[body_for("ell3", -0.4, 5, seed=810 + 10 * t + j) for j in range(3)]
              for t in range(5)]
    devs = []
    for level in levels:
        mesh = mesh_for("ell3", -0.4, level)
        worst = 0.0
        for tup in tuples:
            bods = [rebind(b, mesh) for b in tup]
            worst = max(worst, fn.operator_selfadjoint_deviation(
                bods[0], bods[1], [bods[2]]))
        devs.append(worst)
    adj_ratios = [devs[i] / devs[i + 1] for i in range(2)]
    # energy inequality on 20 random capillary functions
    worst_energy = 0.0
    for seed in range(860, 880):
        g = CombinationField([body_for("ell3", -0.4, 4, seed=seed).field,
                              body_for("ell3", -0.4, 4, seed=seed + 40).field], [1.0, -1.0])
        rep = fn.operator_a_energy_check(g, [f2], tol=1e-6)
        worst_energy = max(worst_energy, -rep.gap)
        assert rep.passed
    _report(10, "operator: eigenfunction, self-adjointness decay, energy inequality",
            eig_dev <= 1e-8 and min(adj_ratios) >= 2.0 and worst_energy <= 1e-6,
            f"eig={eig_dev:.1e} (tol 1e-8) adj_ratios={['%.2f' % r for r in adj_ratios]} "
            f"energy_worst={worst_energy:.1e} (tol 1e-6)")


def test_criterion_11_determinism(tmp_path):
    cfg_text = """
[geometry]
n = 2
omega0 = -0.4

[norm]
family = ellipsoid
matrix = 1.0 0.0 0.2  0.0 1.2 0.0  0.2 0.0 0.9

[mesh]
level = 3

[seeds]
seeds = 1 2

[suites]
run = routes af steiner
"""
    path = tmp_path / "cfg.ini"
    path.write_text(cfg_text, encoding="utf-8")
    # level 3 on purpose: one near-equality tuple fails there, so the byte
    # comparison also covers failing records; determinism is about bytes,
    # not pass/fail
    outs = [tmp_path / f"out{i}" for i in range(3)]
    main(["verify", "--config", str(path), "--out", str(outs[0])])
    main(["verify", "--config", str(path), "--out", str(outs[1])])
    main(["verify", "--config", str(path), "--out", str(outs[2])])

    def strip_json(p):
        d = json.loads((p / "report.json").read_text())
        for r in d["records"]:
            r.pop("wall_time_s", None)
        return json.dumps(d, sort_keys=True)

    same_csv = all((outs[0] / f).read_bytes() == (o / f).read_bytes()
                   for o in outs[1:]
                   for f in ("records.csv", "gaps.csv", "convergence.csv"))
    same_json = strip_json(outs[0]) == strip_json(outs[1]) == strip_json(outs[2])
    _report(11, "byte-identical numeric report fields across runs",
            same_csv and same_json, "")
