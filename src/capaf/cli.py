"""Command-line front end.

Subcommands:
  verify --config P [--suite S] [--out DIR] [--jobs N]
  mesh info --config P [--dump FILE]
  body gen --config P --seed K --out FILE
  study converge --config P --check NAME --levels A..B [--out DIR]

Suites run one after another; --jobs and CAPAF_JOBS are accepted and do
nothing.  The decay suites (minkowski, symmetry, kernel, operator) and
`study converge` share one per-level function per check, each the worst
case over the config's seeds, and one convergence-table builder.

Exit codes: 0 all checks passed, 1 some check failed (or a body could not
be generated), 2 usage or configuration error.  Identical configs produce
byte-identical numeric report fields; per-record wall times (JSON only)
are the single exception.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

import numpy as np

from . import functionals as fn
from .bodies import (make_wulff_cap, minkowski_combine, random_capillary_body,
                     rebind, translate_horizontal)
from .capgeom import build_cap_mesh
from .config import SUITE_NAMES, SuiteConfig, parse_config
from .errors import CapafError, GenerationError, InvalidConfigError, InvalidInputError
from .fields import kernel_field, tau_from_generator
from .mixdisc import (mixed_discriminant, mixed_disc_gradient,
                      md_transform_check)
from .report import CheckRecord, RunReport, digest, emit_report


class RunContext:
    """Lazy caches shared by the suite runners of one verification run."""

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self._meshes = {}
        self._bodies = {}
        self._rebound = {}

    @property
    def analytic(self) -> bool:
        """False for the perturbed norm family.  Its derivatives are closed
        form too, but its decay records stay diagnostics and its kernel check
        a smoke test, because the benchmark (perfbench/run.py) pins
        `verify-perturbed` at 70 checks."""
        return self.cfg.norm.family != "perturbed"

    def mesh(self, level=None):
        level = self.cfg.mesh_level if level is None else level
        if level not in self._meshes:
            self._meshes[level] = build_cap_mesh(self.cfg.cap_config(level))
        return self._meshes[level]

    def body(self, seed, level=None):
        level = self.cfg.mesh_level if level is None else level
        key = (seed, level)
        if key not in self._bodies:
            self._bodies[key] = random_capillary_body(self.mesh(level), seed)
        return self._bodies[key]

    def body_tuple(self, seed, count):
        return [self.body(seed * 101 + j) for j in range(count)]

    def study_body(self, seed, level, top):
        """Body `seed`, generated on the level-`top` mesh, rebound onto `level`."""
        key = (seed, level, top)
        if key not in self._rebound:
            self._rebound[key] = rebind(self.body(seed, top), self.mesh(level))
        return self._rebound[key]

    def study_tuple(self, seed, count, level, top):
        return [self.study_body(seed * 101 + j, level, top) for j in range(count)]

    def study_levels(self):
        top = self.cfg.mesh_level
        return [max(1, top - 2), max(2, top - 1), top]


def _report_record(suite, name, inputs, rep) -> CheckRecord:
    return CheckRecord(suite, name, digest(inputs), rep.lhs, rep.rhs, rep.gap,
                       rep.relative_gap, rep.tolerance, rep.passed)


def _timed_record(suite, name, inputs, fn_check) -> CheckRecord:
    t0 = time.perf_counter()
    return _timed_since(t0, _report_record(suite, name, inputs, fn_check()))[0]


def _ratios(values):
    """Decay ratios prev / cur between consecutive levels; None where either
    side is exactly 0, as such a pair carries no decay information."""
    return [prev / max(cur, 1e-300) if prev != 0 and cur != 0 else None
            for prev, cur in zip(values, values[1:])]


def _decay_rows(levels, values, residuals=None):
    """Convergence-table rows [level, value, residual, ratio].

    The residual defaults to the value; the ratio is the previous level's
    residual over this one, nan on the first level and wherever `_ratios`
    can read no decay rate.
    """
    residuals = values if residuals is None else residuals
    ratios = [float("nan")] + [float("nan") if r is None else r for r in _ratios(residuals)]
    return [[level, values[i], residuals[i], ratios[i]] for i, level in enumerate(levels)]


def _decay_record(ctx, suite, name, inputs, values, min_ratio, floor) -> CheckRecord:
    """Record asserting that `values` decrease by >= min_ratio per level.

    Decay assertions only make sense above the scheme's noise floor.  A
    pair of levels with an exact 0 on either side is skipped (see
    `_ratios`); with no ratio left, only the floor can pass the record.  On
    the perturbed norm they are logged as diagnostics (see
    RunContext.analytic): its derivatives are closed form, but the
    benchmark pins its run at 70 checks.
    """
    vals = [float(v) for v in values]
    worst = min((r for r in _ratios(vals) if r is not None), default=float("nan"))
    passed = worst >= min_ratio or vals[-1] <= floor
    kind = "check" if ctx.analytic else "diagnostic"
    return CheckRecord(suite, name, digest(inputs), worst, min_ratio,
                       worst - min_ratio, worst / min_ratio - 1.0, min_ratio,
                       bool(passed) or kind != "check", kind=kind)


def _value_record(suite, name, inputs, value, tolerance) -> CheckRecord:
    value = float(value)
    return CheckRecord(suite, name, digest(inputs), value, tolerance,
                       value - tolerance, value / max(tolerance, 1e-300) - 1.0,
                       tolerance, bool(value <= tolerance))


def _timed_since(t0, *records):
    """Share the wall time since t0 evenly among the records it produced."""
    dt = (time.perf_counter() - t0) / len(records)
    for rec in records:
        rec.wall_time_s = dt
    return list(records)


# ---------------------------------------------------------------------------
# per-level checks, shared by the decay suites and `study converge`; bodies
# are generated on the level-`top` mesh and rebound onto `level`
# ---------------------------------------------------------------------------


def _worst(values):
    """Largest of `values`, folded from 0.0 (so 0.0 when there are none)."""
    return max([0.0, *values])


def _minkowski_residual(ctx, level, top, k):
    """|Residual of the capillary Minkowski formula of order k|."""
    return _worst(abs(fn.minkowski_formula_residual(ctx.study_body(seed, level, top), k))
                  for seed in ctx.cfg.seeds)


def _symmetry_deviations(ctx, level, top):
    """(swap, trailing-permutation) deviations of the slot form over its scale."""
    outs = [fn.symmetry_check(ctx.study_tuple(seed, ctx.cfg.n + 1, level, top))
            for seed in ctx.cfg.seeds]
    return (_worst(o["swap_deviation"] / o["scale"] for o in outs),
            _worst(o["trailing_deviation"] / o["scale"] for o in outs))


def _kernel_tau(ctx, level):
    """Largest intrinsic-route tau entry of each kernel field E_1..E_n."""
    return fn.kernel_tau_intrinsic(ctx.mesh(level))[0]


def _selfadjoint_deviation(ctx, level, top):
    """|<f, A g> - <g, A f>| for the operator A of the trailing bodies."""
    def deviation(bods):
        return fn.operator_selfadjoint_deviation(bods[0], bods[1], bods[2:])

    return _worst(deviation(ctx.study_tuple(seed, ctx.cfg.n + 1, level, top))
                  for seed in ctx.cfg.seeds)


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------


def _run_mixdisc(ctx: RunContext):
    tol = ctx.cfg.tolerances
    rng = np.random.default_rng(20240)
    count = 200
    t0 = time.perf_counter()
    worst = {"diag": 0.0, "perm": 0.0, "multi": 0.0, "transform": 0.0,
             "gradient": 0.0, "alexandrov": 0.0}

    def update(key, values):
        worst[key] = max(worst[key], float(np.max(values)))

    def rel(diff, ref):
        return np.abs(diff) / np.maximum(np.abs(ref), 1e-30)

    for n in (2, 3):
        def spd():
            a = rng.normal(size=(n, n))
            return a @ a.T + 0.3 * np.eye(n)

        # draw the inputs tuple by tuple (the rng call order fixes them) ...
        tuples, perms, alts, als, bes, bmats = [], [], [], [], [], []
        for _ in range(count):
            tuples.append([spd() for _ in range(n)])
            perms.append(rng.permutation(n))
            alts.append(spd())
            als.append(rng.random() + 0.2)
            bes.append(rng.random() + 0.2)
            bmats.append(rng.normal(size=(n, n)) + 2.0 * np.eye(n))
        # ... then check each identity once on (count, n, n) stacks
        stack = np.array(tuples)  # (count, n, n, n)
        mats = list(np.swapaxes(stack, 0, 1))
        a_alt = np.array(alts)
        al, be = np.array(als), np.array(bes)

        q = mixed_discriminant(mats)
        det0 = np.linalg.det(mats[0])
        update("diag", rel(mixed_discriminant([mats[0]] * n) - det0, det0))
        permuted = np.swapaxes(stack[np.arange(count)[:, None], np.array(perms)], 0, 1)
        update("perm", rel(mixed_discriminant(list(permuted)) - q, q))
        lhs = mixed_discriminant([al[:, None, None] * mats[0] + be[:, None, None] * a_alt]
                                 + mats[1:])
        rhs = al * q + be * mixed_discriminant([a_alt] + mats[1:])
        update("multi", rel(lhs - rhs, rhs))
        update("transform", md_transform_check(mats, np.array(bmats))["relative_error"])
        grad = mixed_disc_gradient(mats)
        update("gradient", rel(np.sum((mats[0] * grad).reshape(count, -1), axis=1) - q, q))
        q_ab = mixed_discriminant([mats[0], mats[1]] + mats[2:n])
        q_aa = mixed_discriminant([mats[0], mats[0]] + mats[2:n])
        q_bb = mixed_discriminant([mats[1], mats[1]] + mats[2:n])
        update("alexandrov", [
            -fn.InequalityReport.inequality("alexandrov", lhs_k, rhs_k,
                                            tol["mixdisc"]).relative_gap
            for lhs_k, rhs_k in zip(q_ab**2, q_aa * q_bb)])
    return _timed_since(t0, *(
        _value_record("mixdisc", key, {"n": [2, 3], "count": count}, val, tol["mixdisc"])
        for key, val in sorted(worst.items())))


def _run_routes(ctx: RunContext):
    cfg = ctx.cfg
    tol = cfg.tolerances
    route_tol = tol["routes_analytic"]
    records = []
    for seed in cfg.seeds:
        bods = ctx.body_tuple(seed, cfg.n + 1)
        inputs = {"seed": seed, "level": cfg.mesh_level}
        t0 = time.perf_counter()
        va, ve, vp = (fn.mixed_volume(bods, route=r).value
                      for r in ("anisotropic", "euclidean", "polyfit"))
        records += _timed_since(
            t0,
            _report_record("routes", f"aniso-vs-euclid.seed{seed}", inputs,
                           fn.InequalityReport.identity("aniso-vs-euclid", va, ve, route_tol)),
            _report_record("routes", f"polyfit-vs-euclid.seed{seed}", inputs,
                           fn.InequalityReport.identity("polyfit-vs-euclid", vp, ve,
                                                        tol["routes_polyfit"])))
        body = bods[0]
        records.append(_timed_record(
            "routes", f"diagonal-consistency.seed{seed}", inputs,
            lambda: fn.InequalityReport.identity(
                "diagonal", fn.mixed_volume_value([body] * (cfg.n + 1)),
                fn.volume(body), route_tol)))
        v = np.zeros(cfg.n + 1)
        v[0] = 0.08
        vt = translate_horizontal(body, v)
        records.append(_timed_record(
            "routes", f"translation-invariance.seed{seed}", inputs,
            lambda: fn.InequalityReport.identity(
                "translation", fn.volume(vt), fn.volume(body), 1e-10)))
        scaled = minkowski_combine([body], [1.7])
        records.append(_timed_record(
            "routes", f"scaling.seed{seed}", inputs,
            lambda: fn.InequalityReport.identity(
                "scaling", fn.volume(scaled), 1.7 ** (cfg.n + 1) * fn.volume(body),
                1e-11)))
    return records


def _run_af(ctx: RunContext):
    cfg = ctx.cfg
    tol = cfg.tolerances
    records = []
    for seed in cfg.seeds:
        bods = ctx.body_tuple(seed, cfg.n + 1)
        inputs = {"seed": seed, "level": cfg.mesh_level}
        records.append(_timed_record(
            "af", f"inequality.seed{seed}", inputs,
            lambda: fn.af_inequality_check(bods, tol=tol["af_gap"])))
        k2 = bods[1]
        v = np.zeros(cfg.n + 1)
        v[0] = 0.1
        k1 = translate_horizontal(minkowski_combine([k2], [2.0]), v)
        eq_bodies = [k1, k2] + bods[2:]
        records.append(_timed_record(
            "af", f"equality-case.seed{seed}", inputs,
            lambda: fn.af_inequality_check(eq_bodies, tol=tol["af_equality"],
                                           equality_expected=True)))
    return records


def _run_chain(ctx: RunContext):
    cfg = ctx.cfg
    tol = cfg.tolerances
    n = cfg.n
    records = []
    mesh = ctx.mesh()
    for seed in cfg.seeds:
        body = ctx.body(seed)
        inputs = {"seed": seed, "level": cfg.mesh_level}
        for k in range(n + 1):
            for l in range(k):
                records.append(_timed_record(
                    "chain", f"querm-k{k}-l{l}.seed{seed}", inputs,
                    lambda k=k, l=l: fn.quermassintegral_chain_check(
                        body, k, l, tol=tol["chain_gap"])))
        others = ctx.body_tuple(seed, n + 1)
        for m in range(2, n + 2):
            trailing = others[2:2 + (n + 1 - m)]
            for i, j, k in itertools.combinations(range(m + 1), 3):
                records.append(_timed_record(
                    "chain", f"gen-m{m}-i{i}-j{j}-k{k}.seed{seed}", inputs,
                    lambda m=m, i=i, j=j, k=k, trailing=trailing:
                    fn.generalized_chain_check(
                        others[0], others[1], trailing, m, i, j, k,
                        tol=tol["chain_gap"])))
    wulff = make_wulff_cap(mesh, 1.3)
    records.append(_timed_record(
        "chain", "wulff-equality", {"r0": 1.3},
        lambda: fn.quermassintegral_chain_check(
            wulff, cfg.n, 0, tol=tol["chain_equality"], equality_expected=True)))
    k1 = ctx.body(max(cfg.seeds) + 977)
    v = np.zeros(cfg.n + 1)
    v[0] = 0.07
    k0 = translate_horizontal(minkowski_combine([k1], [1.4]), v)
    trailing = ctx.body_tuple(max(cfg.seeds) + 978, cfg.n - 1)
    records.append(_timed_record(
        "chain", "gen-equality-case", {"a": 1.4},
        lambda: fn.generalized_chain_check(
            k0, k1, trailing, 2, 0, 1, 2, tol=tol["chain_equality"],
            equality_expected=True)))
    return records


def _run_minkowski(ctx: RunContext):
    cfg = ctx.cfg
    levels = ctx.study_levels()
    records = []
    tables = {}
    for k in range(cfg.n):
        t0 = time.perf_counter()
        agg = [_minkowski_residual(ctx, level, levels[-1], k) for level in levels]
        tables[f"minkowski-k{k}"] = _decay_rows(levels, agg)
        records += _timed_since(t0, _decay_record(
            ctx, "minkowski", f"residual-decay-k{k}", {"levels": levels, "k": k},
            agg, cfg.tolerances["minkowski_ratio"], floor=1e-9))
    return records, tables


def _run_symmetry(ctx: RunContext):
    cfg = ctx.cfg
    levels = ctx.study_levels()
    t0 = time.perf_counter()
    swap_agg, trail_agg = zip(*(_symmetry_deviations(ctx, level, levels[-1])
                                for level in levels))
    tables = {"symmetry-swap": _decay_rows(levels, swap_agg)}
    records = _timed_since(
        t0,
        _decay_record(ctx, "symmetry", "swap-decay", {"levels": levels}, swap_agg,
                      cfg.tolerances["symmetry_ratio"], floor=1e-12),
        _value_record("symmetry", "trailing-permutation", {"levels": levels},
                      max(trail_agg), cfg.tolerances["symmetry_trailing"]))
    # diagnostic: symmetry on differences of capillary functions (logged only)
    t0 = time.perf_counter()
    b = ctx.body_tuple(max(cfg.seeds) + 5, cfg.n + 1)
    diff_bodies = [minkowski_combine([b[0]], [1.0])] + b[1:]
    out = fn.symmetry_check(diff_bodies)
    rec = CheckRecord("symmetry", "difference-experiment", digest({"note": "diagnostic"}),
                      out["swap_deviation"], 0.0, out["swap_deviation"],
                      out["swap_deviation"] / out["scale"], float("nan"), True,
                      kind="diagnostic")
    records += _timed_since(t0, rec)
    return records, tables


def _run_steiner(ctx: RunContext):
    cfg = ctx.cfg
    records = []
    for seed in cfg.seeds:
        body = ctx.body(seed)
        records.append(_timed_record(
            "steiner", f"coefficients.seed{seed}",
            {"seed": seed, "level": cfg.mesh_level},
            lambda: fn.steiner_check(body, tol=cfg.tolerances["steiner"])))
    cap = ctx.mesh().cap_body
    records.append(_timed_record(
        "steiner", "cap-binomial", {"level": cfg.mesh_level},
        lambda: fn.steiner_check(cap, tol=1e-7)))
    return records


def _run_kernel(ctx: RunContext):
    cfg = ctx.cfg
    levels = ctx.study_levels()
    records = []
    tables = {}
    t0 = time.perf_counter()
    if ctx.analytic:
        per_level = [_kernel_tau(ctx, level) for level in levels]
        for alpha, decay in enumerate(zip(*per_level)):
            tables[f"kernel-E{alpha + 1}"] = _decay_rows(levels, decay)
            records += [
                _value_record("kernel", f"tau-max-E{alpha + 1}", {"levels": levels},
                              decay[-1] * (4.0 ** (levels[-1] - 4)),  # normalized to level 4
                              cfg.tolerances["kernel_max"]),
                _decay_record(ctx, "kernel", f"tau-decay-E{alpha + 1}", {"levels": levels},
                              decay, cfg.tolerances["kernel_ratio"], floor=1e-11)]
    else:
        records += [_value_record("kernel", f"tau-max-E{alpha + 1}-fd-smoke",
                                  {"level": cfg.mesh_level}, val, 1e-2)
                    for alpha, val in enumerate(_kernel_tau(ctx, cfg.mesh_level))]
    records = _timed_since(t0, *records)
    # generator-route kernels are exactly linear: their Hessian, so tau, is 0
    t0 = time.perf_counter()
    mesh = ctx.mesh()
    taus = (tau_from_generator(mesh, kernel_field(mesh, alpha))[0] for alpha in range(cfg.n))
    worst = _worst(float(np.max(np.abs(tau))) for tau in taus)
    records += _timed_since(t0, _value_record(
        "kernel", "generator-route-zero", {"level": cfg.mesh_level}, worst, 1e-10))
    return records, tables


def _run_operator(ctx: RunContext):
    cfg = ctx.cfg
    tol = cfg.tolerances
    records = []
    if cfg.n < 2:
        return records, {}
    levels = ctx.study_levels()
    for seed in cfg.seeds:
        inputs = {"seed": seed, "level": cfg.mesh_level}
        t0 = time.perf_counter()
        trailing = ctx.body_tuple(seed, cfg.n - 1)
        f2 = trailing[0]
        ag = fn.operator_a_apply(f2, trailing)
        records += _timed_since(t0, _value_record(
            "operator", f"eigenfunction-identity.seed{seed}", inputs,
            float(np.max(np.abs(ag - f2.shat))), tol["operator_eigen"]))
        t0 = time.perf_counter()
        kern = kernel_field(ctx.mesh(), 0)
        ak = fn.operator_a_apply(kern, trailing)
        records += _timed_since(t0, _value_record(
            "operator", f"kernel-annihilation.seed{seed}", inputs,
            float(np.max(np.abs(ak))), 1e-8))
        g = ctx.body(seed + 7919).field - ctx.body(seed + 7920).field
        records.append(_timed_record(
            "operator", f"energy.seed{seed}", inputs,
            lambda: fn.operator_a_energy_check(g, trailing,
                                               tol=tol["operator_energy"])))
    # self-adjointness decay with refinement (aggregate over seeds)
    t0 = time.perf_counter()
    devs = [_selfadjoint_deviation(ctx, level, levels[-1]) for level in levels]
    records += _timed_since(t0, _decay_record(
        ctx, "operator", "selfadjoint-decay", {"levels": levels}, devs, 2.0, floor=1e-10))
    return records, {"operator-selfadjoint": _decay_rows(levels, devs)}


SUITE_RUNNERS = {
    "mixdisc": _run_mixdisc,
    "routes": _run_routes,
    "af": _run_af,
    "chain": _run_chain,
    "minkowski": _run_minkowski,
    "symmetry": _run_symmetry,
    "steiner": _run_steiner,
    "kernel": _run_kernel,
    "operator": _run_operator,
}


def run_suite(cfg: SuiteConfig) -> RunReport:
    """Run the selected suites, one after another, and assemble the report."""
    ctx = RunContext(cfg)
    report = RunReport(config_echo=cfg.echo())
    for name in SUITE_RUNNERS:
        if name not in cfg.suites:
            continue
        try:
            out = SUITE_RUNNERS[name](ctx)
        except GenerationError as exc:
            out = [CheckRecord(name, "generation-failure", digest(str(exc)),
                               float("nan"), float("nan"), float("nan"),
                               float("nan"), float("nan"), False)]
        records, tables = out if isinstance(out, tuple) else (out, {})
        report.records.extend(records)
        report.convergence.update(tables)
    report.records.sort(key=lambda r: (r.suite, r.name))
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    cfg = parse_config(args.config)
    if args.suite:
        if args.suite not in SUITE_NAMES:
            raise InvalidInputError(
                f"unknown suite {args.suite!r}; valid: {', '.join(SUITE_NAMES)}")
        cfg.suites = ([s for s in SUITE_NAMES if s != "all"]
                      if args.suite == "all" else [args.suite])
    if args.out:
        cfg.out_dir = args.out
    report = run_suite(cfg)
    paths = emit_report(report, cfg.out_dir)
    s = report.summary
    print(f"checks: {s['total']}  passed: {s['passed']}  failed: {s['failed']}  "
          f"diagnostics: {s['diagnostics']}")
    for r in report.records:
        if not r.passed and r.kind == "check":
            print(f"FAIL {r.suite}.{r.name}: gap={r.gap!r} tol={r.tolerance!r}")
    print(f"report: {paths['json']}")
    return 0 if report.all_passed else 1


def _cmd_mesh_info(args) -> int:
    cfg = parse_config(args.config)
    mesh = build_cap_mesh(cfg.cap_config())
    print(f"family: {cfg.norm.family}  n: {cfg.n}  omega0: {cfg.omega0}  "
          f"level: {cfg.mesh_level}")
    print(f"nodes: {mesh.node_count}  interior: {len(mesh.interior_idx)}  "
          f"boundary: {len(mesh.boundary_idx)}  cells: {len(mesh.cells)}")
    print(f"sigma(S) quadrature: {mesh.sigma_total!r}")
    print(f"region residual range: [{float(mesh.region_residuals.min())!r}, "
          f"{float(mesh.region_residuals.max())!r}]")
    print(f"anisotropy condition number: {mesh.anisotropy_condition!r}")
    print(f"frame orthonormality defect: {mesh.frame_orthonormal_defect!r}")
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(mesh.dump_table())
        print(f"node table written to {args.dump}")
    return 0


def _cmd_body_gen(args) -> int:
    cfg = parse_config(args.config)
    mesh = build_cap_mesh(cfg.cap_config())
    body = random_capillary_body(mesh, args.seed)
    res, euc, ok = body.robin_residuals()
    print(f"seed {args.seed}: min W eig {body.min_w_eig!r}, min tau eig "
          f"{body.min_tau_eig!r}, min s_hat {float(np.min(body.shat))!r}")
    print(f"robin residual max {float(np.max(np.abs(res)))!r}, "
          f"degenerate co-normals {int(np.sum(~ok))}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body.record_json())
        print(f"body record written to {args.out}")
    return 0


def _divergence_residual(ctx, level, top):
    """Divergence identity residual of body seeds[0] against body seeds[0] + 1."""
    seed = ctx.cfg.seeds[0]
    trailing = [ctx.study_body(seed + 1, level, top)] * (ctx.cfg.n - 1)
    return fn.divergence_identity_check(ctx.study_body(seed, level, top),
                                        trailing)["max_residual"]


# study check -> per-level value (ctx, level, top); minkowski and kernel take
# the worst order / kernel field, symmetry the swap deviation
STUDIES = {
    "minkowski": lambda ctx, level, top: max(
        _minkowski_residual(ctx, level, top, k) for k in range(ctx.cfg.n)),
    "symmetry": lambda ctx, level, top: _symmetry_deviations(ctx, level, top)[0],
    "kernel": lambda ctx, level, top: max(_kernel_tau(ctx, level)),
    "divergence": _divergence_residual,
    "area": lambda ctx, level, top: abs(ctx.mesh(level).sigma_total),
    "operator_adjoint": _selfadjoint_deviation,
}


def _cmd_study(args) -> int:
    cfg = parse_config(args.config)
    if args.check not in STUDIES:
        raise InvalidInputError(f"unknown check {args.check!r}; valid: {', '.join(STUDIES)}")
    try:
        lo, hi = (int(v) for v in args.levels.split(".."))
    except ValueError:
        raise InvalidInputError("--levels expects A..B") from None
    if hi < lo:
        raise InvalidInputError(f"--levels {args.levels} is empty; expects A..B with A <= B")
    if args.check == "operator_adjoint" and cfg.n < 2:
        raise InvalidInputError("operator study needs n >= 2")
    levels = list(range(lo, hi + 1))
    ctx = RunContext(cfg)
    values = [STUDIES[args.check](ctx, level, hi) for level in levels]
    residuals = None
    if args.check == "area":
        # Richardson self-convergence of the region measure
        residuals = [abs(v - values[-1]) for v in values[:-1]] + [float("nan")]
    lines = ["level,value,residual,ratio"]
    lines += [",".join(map(repr, row)) for row in _decay_rows(levels, values, residuals)]
    print("\n".join(lines))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"study-{args.check}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"table written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="capaf",
                                description="anisotropic capillary convex-body checks")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--config", required=True)
    pv.add_argument("--suite", default=None)
    pv.add_argument("--out", default=None)
    pv.add_argument("--jobs", type=int, default=None)

    pm = sub.add_parser("mesh", help="mesh utilities")
    pm_sub = pm.add_subparsers(dest="mesh_command", required=True)
    pmi = pm_sub.add_parser("info", help="print mesh summary")
    pmi.add_argument("--config", required=True)
    pmi.add_argument("--dump", default=None)

    pb = sub.add_parser("body", help="body utilities")
    pb_sub = pb.add_subparsers(dest="body_command", required=True)
    pbg = pb_sub.add_parser("gen", help="generate a random body")
    pbg.add_argument("--config", required=True)
    pbg.add_argument("--seed", type=int, required=True)
    pbg.add_argument("--out", default=None)

    ps = sub.add_parser("study", help="convergence studies")
    ps_sub = ps.add_subparsers(dest="study_command", required=True)
    psc = ps_sub.add_parser("converge", help="run a convergence table")
    psc.add_argument("--config", required=True)
    psc.add_argument("--check", required=True)
    psc.add_argument("--levels", required=True, help="A..B")
    psc.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"verify": _cmd_verify, "mesh": _cmd_mesh_info, "body": _cmd_body_gen,
                "study": _cmd_study}
    try:
        return commands[args.command](args)
    except InvalidConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    except CapafError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
