from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from capaf.cli import main
from capaf.config import SECTION_KEYS, SUITE_NAMES, TOLERANCES, parse_config
from capaf.errors import InvalidConfigError

MINIMAL = """
[geometry]
n = 2
omega0 = 0.0

[norm]
family = isotropic
"""

ELLIPSOID = """
[geometry]
n = 2
omega0 = -0.4

[norm]
family = ellipsoid
matrix = 1.0 0.0 0.2  0.0 1.2 0.0  0.2 0.0 0.9

[mesh]
level = 2

[seeds]
seeds = 1 2

[suites]
run = mixdisc
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_config_error_in_every_subcommand(tmp_path, capsys, path, error):
    """Each of the four subcommands exits 2 with the one line `config error: error`."""
    for argv in (["verify", "--out", str(tmp_path / "o")], ["mesh", "info"],
                 ["body", "gen", "--seed", "7"],
                 ["study", "converge", "--check", "area", "--levels", "0..1"]):
        capsys.readouterr()
        assert main([*argv, "--config", path]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {error}"], argv


# -- parsing --------------------------------------------------------------------


def test_parse_minimal_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.n == 2 and cfg.omega0 == 0.0
    assert cfg.mesh_level == 3
    assert cfg.seeds == [1, 2, 3]
    assert "all" not in cfg.suites and "af" in cfg.suites and "mixdisc" in cfg.suites


def test_parse_missing_file():
    with pytest.raises(InvalidConfigError):
        parse_config("/nonexistent/capaf.ini")


def test_parse_rejects_interval_endpoint(tmp_path):
    text = MINIMAL.replace("omega0 = 0.0", "omega0 = -1.0")
    with pytest.raises(InvalidConfigError) as err:
        parse_config(write(tmp_path, text))
    assert any("admissible" in e for e in err.value.errors)


def test_parse_unknown_suite_lists_names(tmp_path):
    text = MINIMAL + "\n[suites]\nrun = nonsense\n"
    with pytest.raises(InvalidConfigError) as err:
        parse_config(write(tmp_path, text))
    msg = "; ".join(err.value.errors)
    for name in SUITE_NAMES:
        assert name in msg


def test_parse_collects_all_errors(tmp_path):
    text = """
[geometry]
n = 5
omega0 = 9.0

[norm]
family = nosuch

[suites]
run = bogus
"""
    with pytest.raises(InvalidConfigError) as err:
        parse_config(write(tmp_path, text))
    assert len(err.value.errors) >= 3


@pytest.mark.parametrize("section,name", [
    *(pytest.param("numerics", name, id=name)
      for name in ("tol_af_gap", "tol_nonsense", "tol_routes_fd", "tol_boundary_residual",
                   "tol_frame_orthonormal", "tol_boundary_plane")),
    pytest.param("output", "dir", id="output-dir"),
])
def test_no_config_sets_a_tolerance(tmp_path, capsys, section, name):
    """The tolerances are constants and `--out` alone names the output
    directory: a [numerics] section, whatever tolerance it names, and an
    [output] section are unknown sections in every subcommand."""
    path = write(tmp_path, MINIMAL + f"\n[{section}]\n{name} = inf\n")
    with pytest.raises(InvalidConfigError) as err:
        parse_config(path)
    assert len(err.value.errors) == 1
    assert err.value.errors[0].startswith(f"{section}: unknown section (keys {name} not read)")
    assert_config_error_in_every_subcommand(tmp_path, capsys, path, err.value.errors[0])


def test_readme_documents_every_section_and_tolerance():
    """The README's ini example has exactly the config's sections, and its
    "Tolerance names" paragraph exactly the tolerance table's names."""
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                  encoding="utf-8").read()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert re.findall(r"^\[(\w+)\]", example, re.M) == list(SECTION_KEYS)
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Tolerance names"))
    names = re.findall(r"`([a-z_]+)`", paragraph)
    assert sorted(names) == sorted(TOLERANCES)


def test_parse_names_every_unknown_key(tmp_path, capsys):
    """Typos and keys nothing reads are errors, not silent defaults."""
    text = (ELLIPSOID.replace("omega0 =", "omega =").replace("level =", "levle =")
            + "fd_step = 1e-4\n")
    path = write(tmp_path, text)
    with pytest.raises(InvalidConfigError) as err:
        parse_config(path)
    errors = err.value.errors
    assert len(errors) == 3
    for key, error in zip(("geometry.omega", "mesh.levle", "suites.fd_step"), errors):
        assert error.startswith(key + ": unknown key")
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count("unknown key") == 3


@pytest.mark.parametrize("family,extra,stray", [
    ("isotropic", "matrix = 4 0 0  0 1 0  0 0 1\nbase = ellipsoid\nterm1 = linear 1 0 0 0 0.1",
     ("matrix", "base", "term1")),
    ("ellipsoid", "matrix = 1 0 0  0 1 0  0 0 1\nbase_matrix = 1 0 0  0 1 0  0 0 1",
     ("base_matrix",)),
    ("perturbed", "base = isotropic\nbase_matrix = 1 0 0  0 1 0  0 0 1\nmatrix = 1",
     ("base_matrix", "matrix")),
], ids=("isotropic", "ellipsoid", "perturbed"))
def test_parse_rejects_norm_keys_the_family_does_not_read(tmp_path, capsys, family, extra, stray):
    text = MINIMAL.replace("family = isotropic", f"family = {family}\n{extra}")
    path = write(tmp_path, text)
    with pytest.raises(InvalidConfigError) as err:
        parse_config(path)
    errors = err.value.errors
    assert len(errors) == len(stray)
    for key, error in zip(stray, errors):
        assert error.startswith(f"norm.{key}: not read by family {family!r}")
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count("not read by family") == len(stray)


def test_parse_rejects_unknown_and_default_sections(tmp_path):
    text = "[DEFAULT]\nlevel = 2\n" + MINIMAL + "\n[extra]\n"
    with pytest.raises(InvalidConfigError) as err:
        parse_config(write(tmp_path, text))
    errors = err.value.errors
    assert len(errors) == 2
    assert errors[0].startswith("DEFAULT: unknown section (keys level not read)")
    assert errors[1].startswith("extra: unknown section;")


@pytest.mark.parametrize("seeds", ["", "-3", "1 -2", "2 1 2"])
@pytest.mark.parametrize("suite", ["af", "chain", "symmetry"])
def test_seeds_must_be_a_nonempty_nonnegative_list(tmp_path, capsys, seeds, suite):
    path = write(tmp_path, ELLIPSOID.replace("seeds = 1 2", f"seeds = {seeds}")
                 .replace("run = mixdisc", f"run = {suite}"))
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: seeds.seeds: " in err
    assert {"": "no seeds given", "2 1 2": "seed 2 is repeated"}.get(seeds, "is negative") in err


def test_repeated_suite_is_a_config_error(tmp_path, capsys):
    """A suite runs once, so naming it twice is an error, as for a seed."""
    path = write(tmp_path, ELLIPSOID.replace("run = mixdisc", "run = af mixdisc af"))
    with pytest.raises(InvalidConfigError) as err:
        parse_config(path)
    assert err.value.errors == ["suites.run: suite af is repeated; each suite runs once"]
    assert_config_error_in_every_subcommand(tmp_path, capsys, path, err.value.errors[0])
    assert not (tmp_path / "o").exists()


def test_body_gen_rejects_negative_seed(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    assert main(["body", "gen", "--config", path, "--seed", "-2"]) == 2
    assert "error: seed -2 is negative" in capsys.readouterr().err


def test_parse_perturbed_terms(tmp_path):
    text = """
[geometry]
n = 2
omega0 = -0.3

[norm]
family = perturbed
base = isotropic
term1 = bump 0.3 0.2 0.93 0.3 0.04
term2 = quadratic 0.0 0.0 1.0 0.0 0.05
"""
    cfg = parse_config(write(tmp_path, text))
    assert cfg.norm.family == "perturbed"
    assert len(cfg.norm.terms) == 2


# -- exit codes -----------------------------------------------------------------


def test_exit_code_config_error(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.ini")]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_unknown_suite(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID.replace("run = mixdisc", "run = bogus"))
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: suites.run: unknown suite 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("option", (["--suite", "af"], ["--jobs", "1"]), ids=("suite", "jobs"))
def test_suite_option_is_a_usage_error(tmp_path, capsys, option):
    """The config's `run =` line alone names the suites, and they run one
    after another: `--suite` and `--jobs` are no options."""
    path = write(tmp_path, ELLIPSOID)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", path, *option, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mixdisc_suite_runs_fast_and_passes(tmp_path):
    path = write(tmp_path, ELLIPSOID)
    import time

    t0 = time.time()
    code = main(["verify", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert time.time() - t0 < 5.0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] >= 6


def test_exit_code_failure(tmp_path, monkeypatch):
    # force a failure with an absurd tolerance
    monkeypatch.setitem(TOLERANCES, "mixdisc", 1e-30)
    path = write(tmp_path, ELLIPSOID)
    code = main(["verify", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--out", "{file}/sub"],
    ["mesh", "info", "--dump", "{missing}/x.txt"],
    ["body", "gen", "--seed", "7", "--out", "{missing}/b.json"],
    ["study", "converge", "--check", "area", "--levels", "0..1", "--out", "{file}/sub"],
], ids=["verify", "mesh-info", "body-gen", "study-converge"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    """An output path under a file or a missing directory is exit 2 with one
    `error:` line naming it, not a traceback and not exit 1."""
    (tmp_path / "file").write_text("", encoding="utf-8")
    argv = [a.format(file=tmp_path / "file", missing=tmp_path / "missing") for a in argv]
    assert main([*argv, "--config", write(tmp_path, ELLIPSOID)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert argv[-1] in err


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["study", "converge", "--check", "area", "--levels", "3..4"],
], ids=["verify", "study-converge"])
def test_unwritable_out_fails_before_any_mesh(tmp_path, capsys, monkeypatch, argv):
    """`verify` and `study converge` make the output directory before they
    build a mesh, so an unwritable `--out` costs no run."""
    import capaf.cli as cli

    def refuse(config):
        raise AssertionError(f"built the level-{config.mesh_level} mesh")

    monkeypatch.setattr(cli, "build_cap_mesh", refuse)
    (tmp_path / "file").write_text("", encoding="utf-8")
    path = write(tmp_path, ELLIPSOID.replace("run = mixdisc", "run = all"))
    assert main([*argv, "--config", path, "--out", str(tmp_path / "file" / "sub")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_thin_cap_stencil_error_names_the_limit(tmp_path, capsys):
    # near the lower end of the w0 interval the kernel study's coarse levels
    # leave no node clear of the boundary: a documented error, not a traceback
    path = write(tmp_path, MINIMAL.replace("omega0 = 0.0", "omega0 = -0.99")
                 + "\n[suites]\nrun = kernel\n")
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    for part in ("stencil margin 0.45", "mesh level 1", "omega0 = -0.99",
                 "a finer mesh level helps"):
        assert part in err, part


@pytest.mark.parametrize("command", [["mesh", "info"], ["verify"]])
def test_coarse_level_near_the_top_of_w0_names_the_level(tmp_path, capsys, command):
    # near the upper end of the w0 interval no level-0 icosphere edge crosses
    # the region boundary, and up to level 3 the region can meet every face,
    # which leaves the clipped mesh closed: documented errors, not tracebacks
    for w0, level, what in ((0.9, 0, "no mesh edge crosses the region boundary"),
                            (0.9, 1, "the region meets every face of the mesh"),
                            (0.99, 1, "the region meets every face of the mesh"),
                            (0.99, 2, "the region meets every face of the mesh"),
                            (0.99, 3, "the region meets every face of the mesh")):
        text = MINIMAL.replace("omega0 = 0.0", f"omega0 = {w0}") + f"\n[mesh]\nlevel = {level}\n"
        path = write(tmp_path, text)
        out = ["--out", str(tmp_path / "o")] if command[0] == "verify" else []
        assert main(command + ["--config", path] + out) == 2
        err = capsys.readouterr().err
        for part in (what, f"mesh level {level}", f"omega0 = {w0}", "a finer mesh level helps"):
            assert part in err, (w0, level, part)


@pytest.mark.parametrize("command", [["mesh", "info"], ["verify"]])
def test_coarse_level_near_the_bottom_of_w0_names_the_level(tmp_path, capsys, command):
    # near the lower end of the w0 interval the region is a cap so thin that
    # no level-0 icosphere vertex lies inside it: a documented error naming
    # the level and the remedy, for the isotropic and the ellipsoid norm
    isotropic = MINIMAL.replace("omega0 = 0.0", "omega0 = {w0}") + "\n[mesh]\nlevel = 0\n"
    ellipsoid = (ELLIPSOID.replace("omega0 = -0.4", "omega0 = {w0}")
                 .replace("level = 2", "level = 0").replace("run = mixdisc", "run = all"))
    for template, w0 in ((isotropic, -0.9), (ellipsoid, -0.8)):
        path = write(tmp_path, template.format(w0=w0))
        out = ["--out", str(tmp_path / "o")] if command[0] == "verify" else []
        assert main(command + ["--config", path] + out) == 2
        err = capsys.readouterr().err
        for part in ("empty parameter region", "mesh level 0", f"omega0 = {w0}",
                     "a finer mesh level helps"):
            assert part in err, (template, part)


def test_thin_cap_kernel_decay_skips_the_exact_zero(tmp_path):
    # at level 5 the L3 study mesh checks only the pole, where the kernel tau
    # is exactly 0: that level pair shows no ratio, and the check reads L4->L5
    path = write(tmp_path, MINIMAL.replace("omega0 = 0.0", "omega0 = -0.99")
                 + "\n[mesh]\nlevel = 5\n\n[suites]\nrun = kernel\n")
    out = tmp_path / "o"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    records = {r[1]: r for r in (line.split(",") for line in
                                 (out / "records.csv").read_text().splitlines()[1:])}
    for alpha in (1, 2):
        rec = records[f"tau-decay-E{alpha}"]
        assert rec[-2] == "True" and float(rec[3]) == pytest.approx(2.66, abs=0.01)
    rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
    for check in ("kernel-E1", "kernel-E2"):
        (_, l3, _, r3), (_, _, _, r4), _ = [r[1:] for r in rows if r[0] == check]
        assert float(l3) == 0.0 and np.isnan(float(r3)) and np.isnan(float(r4))


def test_kernel_suite_takes_each_stencil_pass_once(tmp_path, monkeypatch):
    # the top level's step-h pass serves both its decay-table row and the
    # extrapolated maximum: one pass per study level, then the one h/2 pass
    import capaf.functionals as fn

    real, passes = fn.intrinsic_tau, []
    monkeypatch.setattr(fn, "intrinsic_tau", lambda mesh, *args: passes.append(
        (mesh.config.mesh_level, args[-1])) or real(mesh, *args))
    path = write(tmp_path, ELLIPSOID.replace("level = 2", "level = 3")
                 .replace("run = mixdisc", "run = kernel"))
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 0
    steps = {level: 0.3 * 0.5**level for level in (1, 2, 3)}
    assert passes == [(1, steps[1]), (2, steps[2]), (3, steps[3]), (3, 0.5 * steps[3])]


@pytest.mark.parametrize("values,passed", [
    ([0.0, 1e-3, 4e-4], True),   # the 0 pair is skipped; 2.5 >= 2
    ([0.0, 1e-3, 9e-4], False),  # every readable ratio must still reach 2
    ([1e-3, 0.0, 1e-3], False),  # no ratio to read, and above the floor
    ([1e-3, 0.0, 1e-12], True),  # no ratio to read, below the floor
])
def test_decay_record_skips_pairs_with_an_exact_zero(values, passed):
    # a diagnostic (the perturbed norm's decay records) stores its own
    # outcome too; only its kind keeps it out of the tallies
    from capaf.cli import _decay_record

    for analytic, kind in ((True, "check"), (False, "diagnostic")):
        ctx = type("Ctx", (), {"analytic": analytic})()
        rec = _decay_record(ctx, "kernel", "decay", {}, values, 2.0, floor=1e-11)
        assert rec.passed is passed and rec.kind == kind, analytic


# -- report artifacts -------------------------------------------------------------


def test_report_files_written(tmp_path):
    path = write(tmp_path, ELLIPSOID)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    for name in ("report.json", "records.csv", "gaps.csv", "convergence.csv"):
        assert (out / name).exists()
    header = (out / "records.csv").read_text().splitlines()[0]
    assert header == "suite,name,inputs_digest,lhs,rhs,gap,relative_gap,tolerance,passed,kind"
    gaps = (out / "gaps.csv").read_text().splitlines()
    assert gaps[0] == "check,gap"
    assert len(gaps) > 1


def test_report_determinism_same_config(tmp_path):
    path = write(tmp_path, ELLIPSOID.replace("run = mixdisc", "run = routes af symmetry"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", path, "--out", str(out1)])
    main(["verify", "--config", path, "--out", str(out2)])
    for name in ("records.csv", "gaps.csv", "convergence.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def strip(p):
        d = json.loads(p.read_text())
        for r in d["records"]:
            r.pop("wall_time_s", None)
        return json.dumps(d, sort_keys=True)

    assert strip(out1 / "report.json") == strip(out2 / "report.json")


def test_verify_reads_no_environment(tmp_path, monkeypatch):
    """CAPAF_OUT and CAPAF_JOBS are read by nothing: `verify --out D` writes
    under D alone, whatever they hold."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CAPAF_OUT", str(tmp_path / "env-out"))
    monkeypatch.setenv("CAPAF_JOBS", "abc")
    path = write(tmp_path, ELLIPSOID)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "d")]) == 0
    assert sorted(os.listdir(tmp_path)) == ["cfg.ini", "d"]
    assert sorted(os.listdir(tmp_path / "d")) == [
        "convergence.csv", "gaps.csv", "records.csv", "report.json"]


# -- other subcommands -------------------------------------------------------------


def test_mesh_info_and_dump(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    dump = tmp_path / "mesh.txt"
    assert main(["mesh", "info", "--config", path, "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "nodes:" in out and "anisotropy condition" in out
    lines = dump.read_text().splitlines()
    assert lines[0].startswith("# node_index")
    assert len(lines) > 10


def test_body_gen(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    out = tmp_path / "body.json"
    assert main(["body", "gen", "--config", path, "--seed", "5",
                 "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["provenance"]["seed"] == 5
    assert rec["flags"]["convex"] and rec["flags"]["capillary"]


def test_study_converge(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    out = tmp_path / "study"
    assert main(["study", "converge", "--config", path, "--check", "area",
                 "--levels", "2..4", "--out", str(out)]) == 0
    table = (out / "study-area.csv").read_text().splitlines()
    assert table[0] == "level,value,residual,ratio"
    assert len(table) == 4


def test_study_ratio_is_nan_at_zero_residual(tmp_path, capsys):
    """The hemisphere's area self-converges to roundoff: its L3 residual is
    exactly 0, where the table must not print a decay ratio of ~1e284."""
    path = write(tmp_path, MINIMAL)
    assert main(["study", "converge", "--config", path, "--check", "area",
                 "--levels", "2..4"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["2", "3", "4"]
    assert float(rows[1][2]) == 0.0
    assert all(np.isnan(float(r[3])) for r in rows)


def test_study_rejects_unknown_check(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    assert main(["study", "converge", "--config", path, "--check", "bogus",
                 "--levels", "2..3"]) == 2
    assert main(["study", "converge", "--config", path, "--check", "area",
                 "--levels", "oops"]) == 2
    assert main(["study", "converge", "--config", path, "--check", "area",
                 "--levels", "5..3"]) == 2


@pytest.mark.parametrize("levels", ["6..8", "-1..2"])
def test_study_levels_out_of_range_fail_before_any_mesh(tmp_path, capsys, monkeypatch, levels):
    import capaf.cli as cli

    def refuse(config):
        raise AssertionError(f"built the level-{config.mesh_level} mesh")

    monkeypatch.setattr(cli, "build_cap_mesh", refuse)
    path = write(tmp_path, ELLIPSOID)
    assert main(["study", "converge", "--config", path, "--check", "kernel",
                 f"--levels={levels}"]) == 2
    err = capsys.readouterr().err
    assert "--levels" in err and "[0, 7]" in err


@pytest.mark.parametrize("level", range(8))
def test_verify_schedule_rises_to_the_config_level(tmp_path, monkeypatch, level):
    """No decay study compares a level with itself or with a coarser one."""
    import capaf.cli as cli

    monkeypatch.setattr(cli, "build_cap_mesh", None)  # the schedule builds no mesh
    cfg = parse_config(write(tmp_path, ELLIPSOID.replace("level = 2", f"level = {level}")))
    levels = cli.RunContext(cfg).levels
    assert all(a < b for a, b in zip(levels, levels[1:])), levels
    assert levels[-1] == level and len(levels) == min(max(level, 1), 3)


STUDY = ELLIPSOID.replace("level = 2", "level = 3").replace("run = mixdisc",
                                                           "run = minkowski symmetry operator")
HALFDISK = """
[geometry]
n = 1
omega0 = 0.0

[norm]
family = isotropic

[mesh]
level = 3

[seeds]
seeds = 1 2
"""


def _study_table(out):
    lines = out.strip().splitlines()
    assert lines[0] == "level,value,residual,ratio"
    return {int(row.split(",")[0]): float(row.split(",")[1]) for row in lines[1:]}


@pytest.mark.parametrize("check", ["minkowski", "symmetry", "kernel", "divergence",
                                   "area", "operator_adjoint"])
def test_study_converge_every_check(tmp_path, capsys, check):
    path = write(tmp_path, ELLIPSOID)
    out = tmp_path / "study"
    assert main(["study", "converge", "--config", path, "--check", check,
                 "--levels", "2..3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    table = (out / f"study-{check}.csv").read_text()
    assert printed.startswith(table)
    values = _study_table(table)
    assert sorted(values) == [2, 3]
    assert all(np.isfinite(v) and v >= 0.0 for v in values.values())


def test_study_operator_needs_two_dimensions(tmp_path, capsys):
    path = write(tmp_path, HALFDISK)
    assert main(["study", "converge", "--config", path, "--check", "operator_adjoint",
                 "--levels", "2..3"]) == 2
    assert "needs n >= 2" in capsys.readouterr().err


def test_study_values_match_verify_tables(tmp_path, capsys):
    """`study converge` and the verify decay suites share one per-level path."""
    path = write(tmp_path, STUDY.replace("symmetry operator", "symmetry operator kernel"))
    out = tmp_path / "verify"
    main(["verify", "--config", path, "--out", str(out)])
    tables = {}
    for row in (out / "convergence.csv").read_text().splitlines()[1:]:
        name, level, value = row.split(",")[:3]
        tables.setdefault(name, {})[int(level)] = float(value)
    capsys.readouterr()
    top = parse_config(path).mesh_level
    expected = {
        "minkowski": {lvl: max(tables["minkowski-k0"][lvl], tables["minkowski-k1"][lvl])
                      for lvl in tables["minkowski-k0"]},
        "symmetry": tables["symmetry-swap"],
        "operator_adjoint": tables["operator-selfadjoint"],
        "kernel": {lvl: max(tables["kernel-E1"][lvl], tables["kernel-E2"][lvl])
                   for lvl in tables["kernel-E1"]},
    }
    for check, table in expected.items():
        assert sorted(table) == [1, 2, top]
        assert main(["study", "converge", "--config", path, "--check", check,
                     "--levels", f"1..{top}"]) == 0
        assert _study_table(capsys.readouterr().out) == table, check


def test_decay_suites_rebind_each_body_once_per_level(tmp_path, monkeypatch):
    import capaf.cli as cli

    made = []
    real_rebind = cli.rebind

    def counting(body, mesh):
        out = real_rebind(body, mesh)
        if out is not body:
            made.append((body.provenance["seed"], mesh.config.mesh_level))
        return out

    monkeypatch.setattr(cli, "rebind", counting)
    cfg = parse_config(write(tmp_path, STUDY))
    cli.run_suite(cfg)
    seeds = set(cfg.seeds) | {s * 101 + j for s in cfg.seeds for j in range(cfg.n + 1)}
    assert sorted(made) == sorted((s, lvl) for s in seeds for lvl in (1, 2))


def test_generation_failure_exits_1(tmp_path, capsys, monkeypatch):
    # bumps no backtracking can shrink to convexity; at the default amplitude
    # every admissible w0 generates, as the support floor scales with the cap
    import capaf.cli as cli

    monkeypatch.setattr(cli, "random_capillary_body",
                        functools.partial(cli.random_capillary_body, amplitude=1e9))
    path = write(tmp_path, MINIMAL)
    assert main(["study", "converge", "--config", path, "--check", "symmetry",
                 "--levels", "2..3"]) == 1
    assert "generation failed: random body generation exhausted" in capsys.readouterr().err
    assert main(["body", "gen", "--config", path, "--seed", "1"]) == 1
    assert "generation failed" in capsys.readouterr().err


def test_record_wall_times_cover_every_suite(tmp_path, monkeypatch):
    # one timer per suite: each record carries an even share of its suite's
    # time, so no record reads 0 and the shares sum to the run's time; a
    # generation failure's record gets its share too
    import time

    import capaf.cli as cli

    cfg = parse_config(write(tmp_path, ELLIPSOID.replace("run = mixdisc", "run = all")))
    t0 = time.perf_counter()
    report = cli.run_suite(cfg)
    total = time.perf_counter() - t0
    times = [r.wall_time_s for r in report.records]
    assert {r.suite for r in report.records} == set(cli.SUITE_RUNNERS)
    assert min(times) > 0.0
    assert sum(times) >= 0.9 * total, (sum(times), total)

    monkeypatch.setattr(cli, "random_capillary_body",
                        functools.partial(cli.random_capillary_body, amplitude=1e9))
    cfg.suites = ["routes"]
    (failure,) = cli.run_suite(cfg).records
    assert failure.name == "generation-failure" and failure.wall_time_s > 0.0


# -- shipped configs --------------------------------------------------------------

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED_CHECKS = {"ellipsoid.ini": 76, "perturbed.ini": 70,
                  "isotropic_hemisphere.ini": 76, "halfdisk_n1.ini": 45}


def test_every_shipped_config_is_covered():
    assert sorted(f for f in os.listdir(CONFIGS) if f.endswith(".ini")) == sorted(SHIPPED_CHECKS)


@pytest.mark.parametrize("name", sorted(SHIPPED_CHECKS))
def test_shipped_config_verifies(tmp_path, monkeypatch, name):
    """Every shipped config passes every check, and every derivative its
    run takes is closed form: capaf.fd's differences are made to raise.
    The radii are closed form too, so the routes that compare volumes
    through tau agree to round-off, at `routes_analytic` on every family."""
    import capaf.fd as fd

    def refuse(*args, **kwargs):
        raise AssertionError("finite differences at run time")

    for fd_name in ("central_gradient", "central_hessian"):
        monkeypatch.setattr(fd, fd_name, refuse)
    out = tmp_path / "out"
    assert main(["verify", "--config", os.path.join(CONFIGS, name), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    summary = report["summary"]
    assert summary["total"] == summary["passed"] == SHIPPED_CHECKS[name]
    assert summary["failed"] == 0
    routes = [r for r in report["records"] if r["suite"] == "routes"
              and r["name"].startswith(("aniso-vs-euclid.", "diagonal-consistency."))]
    assert routes
    for r in routes:
        assert abs(r["relative_gap"]) <= 1e-12, r["name"]
        assert r["tolerance"] == TOLERANCES["routes_analytic"], r["name"]


def test_chain_suite_evaluates_each_volume_of_a_family_once(tmp_path, monkeypatch):
    """On an n = 2 config with three seeds the chain suite takes 68 mixed
    discriminants, one per slot sum of a family: per seed 6 for its
    quermassintegral family [body, cap] and 7 + 6 for its two generalized
    families, then 4 and 7 for the two equality records.  Taking every
    volume's three slot sums afresh took 117 (39 volumes)."""
    import capaf.cli as cli
    import capaf.functionals as fn

    cfg = parse_config(_shipped_at_level_2(tmp_path, "ellipsoid.ini", "chain"))
    assert cfg.n == 2 and len(cfg.seeds) == 3
    calls = []
    real = fn.mixed_discriminant_batch
    monkeypatch.setattr(fn, "mixed_discriminant_batch",
                        lambda mats: calls.append(len(mats)) or real(mats))
    records, _ = cli._run_chain(cli.RunContext(cfg))
    assert len(records) == 3 * (3 + 1 + 4) + 2
    assert calls == [2] * (3 * (6 + 7 + 6) + 4 + 7)


def _shipped_at_level_2(tmp_path, name, suites="all"):
    text = open(os.path.join(CONFIGS, name), encoding="utf-8").read()
    return write(tmp_path, text.replace("level = 4", "level = 2")
                 .replace("run = all", f"run = {suites}"), name)


def _convergence_levels(out):
    tables = {}
    for row in (out / "convergence.csv").read_text().splitlines()[1:]:
        name, level = row.split(",")[:2]
        tables.setdefault(name, []).append(int(level))
    return tables


def test_halfdisk_verifies_at_level_2(tmp_path):
    # L1 -> L2 is the one decay pair; the old schedule [1, 2, 2] read a 1.0 ratio
    out = tmp_path / "out"
    assert main(["verify", "--config", _shipped_at_level_2(tmp_path, "halfdisk_n1.ini"),
                 "--out", str(out)]) == 0
    assert set(map(tuple, _convergence_levels(out).values())) == {(1, 2)}


def test_ellipsoid_at_level_2_studies_levels_1_and_2(tmp_path):
    out = tmp_path / "out"
    main(["verify", "--config", _shipped_at_level_2(
        tmp_path, "ellipsoid.ini", "minkowski symmetry kernel operator"), "--out", str(out)])
    tables = _convergence_levels(out)
    assert len(tables) == 6 and set(map(tuple, tables.values())) == {(1, 2)}


def _fresh_process(*argv):
    """Run `python argv...` in a new interpreter on this checkout's src/."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=300)


def _fresh_python(script):
    """Run `script` in a new interpreter; its last line of output."""
    proc = _fresh_process("-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_module_entry_point_exits_with_the_status_of_main(tmp_path):
    """`python -m capaf.cli` exits with main()'s code, and its reports are
    those of an in-process run, whole."""
    path = write(tmp_path, ELLIPSOID.replace("run = mixdisc", "run = mixdisc routes"))
    proc = _fresh_process("-m", "capaf.cli", "verify", "--config", path,
                          "--out", str(tmp_path / "child"))
    assert proc.returncode == 0, proc.stderr
    assert main(["verify", "--config", path, "--out", str(tmp_path / "here")]) == 0
    for name in ("records.csv", "gaps.csv", "convergence.csv"):
        assert ((tmp_path / "child" / name).read_bytes()
                == (tmp_path / "here" / name).read_bytes()), name
    proc = _fresh_process("-m", "capaf.cli", "verify", "--config", str(tmp_path / "none.ini"),
                          "--out", str(tmp_path / "o"))
    assert proc.returncode == 2 and proc.stderr.startswith("config error:"), proc.stderr


def _console_script_target():
    """The `module:function` that [project.scripts] capaf names."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, encoding="utf-8") as fh:
        return re.search(r'(?m)^capaf\s*=\s*"([^"]+)"$', fh.read()).group(1)


@pytest.mark.parametrize("launch", [
    # what the console-script wrapper of [project.scripts] capaf runs
    "from {module} import {name}\nsys.exit({name}())",
    # what `python -m capaf.cli` runs
    "import runpy\nrunpy.run_module('capaf.cli', run_name='__main__', alter_sys=True)",
], ids=["console-script", "module"])
def test_both_entry_points_exit_through_entry_and_freeze(tmp_path, launch):
    """The `capaf` script and `python -m capaf.cli` share one exit path,
    cli.entry: main()'s status, with the heap frozen before the
    interpreter's collection at exit."""
    assert _console_script_target() == "capaf.cli:entry"
    module, name = _console_script_target().split(":")
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
             + launch.format(module=module, name=name))
    for config, status in ((write(tmp_path, ELLIPSOID), 0), (str(tmp_path / "none.ini"), 2)):
        proc = _fresh_process("-c", probe, "verify", "--config", config,
                              "--out", str(tmp_path / "out"))
        assert proc.returncode == status, proc.stderr
        assert proc.stdout.splitlines()[-1] == "frozen True"


def test_main_leaves_the_collector_on_and_freezes_nothing(tmp_path):
    """Only cli.entry freezes; tests and library callers of main() keep
    collecting."""
    import gc

    frozen = gc.get_freeze_count()
    path = write(tmp_path, ELLIPSOID)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert gc.isenabled() and gc.get_freeze_count() == frozen


def test_import_loads_fd_module():
    """No capaf path differences F any more, but the traced benchmark's
    install() (perfbench/layers.py) looks up sys.modules["capaf.fd"] after
    `import capaf.cli`; ROADMAP item F removes both that lookup and the
    import that keeps it working.  So fd is the one submodule that
    `import capaf` loads eagerly; every export resolves on first use."""
    assert _fresh_python("import sys\nimport capaf.cli\nprint('capaf.fd' in sys.modules)") == "True"


def test_setup_path_loads_only_its_layers():
    """The benchmark's set-up probe (import capaf, parse a config, build its
    mesh) loads the layers the mesh needs and no other: every module it
    imports is compiled in each benchmark child."""
    script = "\n".join([
        "import json, sys",
        "import capaf",
        "from capaf.capgeom import build_cap_mesh",
        "from capaf.config import parse_config",
        f"build_cap_mesh(parse_config({os.path.join(CONFIGS, 'ellipsoid.ini')!r}).cap_config())",
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'capaf')))",
    ])
    assert set(json.loads(_fresh_python(script))) == {
        "capaf", "capaf.fd", "capaf.errors", "capaf.norms", "capaf.capgeom", "capaf.config"}


def test_every_export_resolves_to_its_owner():
    """Each name of the package's export table is its owning module's own
    object, __all__ is the table, dir() lists it, `from capaf import *`
    binds it, and an unknown name is an AttributeError that names it."""
    import importlib

    import capaf

    for name, owner in capaf._EXPORTS.items():
        module = importlib.import_module(f"capaf.{owner}")
        assert getattr(capaf, name) is vars(module)[name], name
        assert getattr(capaf, owner) is module
    assert capaf.__version__ is importlib.import_module("capaf.report").TOOL_VERSION
    assert sorted(capaf.__all__) == sorted(capaf._EXPORTS)
    assert {*capaf.__all__, *capaf._EXPORTS.values(), "fd", "__version__"} <= set(dir(capaf))
    namespace = {}
    exec("from capaf import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(capaf.__all__)
    with pytest.raises(AttributeError, match="'no_such_export'"):
        capaf.no_such_export


def test_submodule_resolves_without_an_import():
    """`capaf.bodies` loads bodies on first read, in a fresh interpreter
    where nothing has imported it yet."""
    script = "\n".join([
        "import sys",
        "import capaf",
        "before = 'capaf.bodies' in sys.modules",
        "print(before, capaf.bodies is sys.modules['capaf.bodies'])",
    ])
    assert _fresh_python(script) == "False True"


def test_export_table_names_module_level_definitions():
    """Each entry of the export table is a class, function or assignment at
    the top level of its owner, not a name the owner imports: a rename fails
    here, not at a user's import."""
    import ast

    import capaf

    src = os.path.dirname(capaf.__file__)

    def defined(owner):
        with open(os.path.join(src, f"{owner}.py"), encoding="utf-8") as fh:
            body = ast.parse(fh.read()).body
        names = {n.name for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
        return names | {t.id for n in body if isinstance(n, ast.Assign)
                        for t in n.targets if isinstance(t, ast.Name)}

    owners = {owner: defined(owner) for owner in set(capaf._EXPORTS.values())}
    missing = [f"{owner}.{name}" for name, owner in capaf._EXPORTS.items()
               if name not in owners[owner]]
    assert not missing, missing
    assert "TOOL_VERSION" in owners["report"]


def test_benchmark_layer_groups_name_capaf_definitions():
    """Every group the traced benchmark's metrics and hooks read
    (perfbench/layers.py) names a public function, method or property that
    its capaf module defines, or a suite runner: a rename in capaf would
    otherwise zero a benchmark metric without failing tier-1."""
    import importlib
    import importlib.util
    import inspect

    import capaf.cli

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    def defined(layer, name):
        mod = importlib.import_module(f"capaf.{layer}")
        obj = vars(mod).get(name)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            return True
        return any(isinstance(vars(cls).get(name), (property, staticmethod))
                   or inspect.isfunction(vars(cls).get(name))
                   for cls in vars(mod).values()
                   if inspect.isclass(cls) and cls.__module__ == mod.__name__)

    groups = layers.referenced_groups()
    assert "norms.metric_on_wulff" in groups and "norms.q_on_wulff" in groups
    for group in sorted(groups):
        layer, name = group.split(".", 1)
        if layer == "cli" and name.startswith("suite."):
            assert name[len("suite."):] in capaf.cli.SUITE_RUNNERS, group
        else:
            assert defined(layer, name), group


def test_no_capaf_process_imports_numpy_ma(tmp_path):
    """numpy.ma costs about 20-40 ms and 3.5 MB to import, and np.unique
    without optional outputs imports it on first use: no capaf step may."""
    text = open(os.path.join(CONFIGS, "perturbed.ini"), encoding="utf-8").read()
    path = write(tmp_path, text.replace("run = all", "run = mixdisc"), "perturbed.ini")
    script = "\n".join([
        "import sys",
        "from capaf.capgeom import build_cap_mesh",
        "from capaf.cli import main",
        "from capaf.config import parse_config",
        f"build_cap_mesh(parse_config({path!r}).cap_config())",
        f"assert main(['verify', '--config', {path!r}, '--out', {str(tmp_path)!r}]) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    assert _fresh_python(script) == "False"


class _ReadLog(dict):
    """A tolerance table that notes in `seen` every name read from it."""

    def __init__(self, table, seen):
        super().__init__(table)
        self.seen = seen

    def __getitem__(self, name):
        self.seen.add(name)
        return super().__getitem__(name)


def test_every_tolerance_has_a_reader(monkeypatch):
    """Every suite, on an analytic and on the perturbed config at level 2,
    reads each tolerance name between them: the kernel suite takes one path
    for every norm family, so kernel_max, kernel_ratio, kernel_floor and
    kernel_generator are read on both."""
    import capaf.cli as cli

    seen = set()
    monkeypatch.setattr(cli, "TOLERANCES", _ReadLog(TOLERANCES, seen))
    for name in ("ellipsoid.ini", "perturbed.ini"):
        cfg = parse_config(os.path.join(CONFIGS, name))
        cfg.mesh_level = 2
        cli.run_suite(cfg)
    assert sorted(set(TOLERANCES) - seen) == []


def test_runners_write_no_threshold():
    """Every threshold a record applies in cli.py is a `TOLERANCES[...]`
    entry: _value_record's tolerance, _decay_record's min_ratio and floor,
    the tol of InequalityReport.identity / inequality and every `tol=`."""
    import ast
    import inspect

    import capaf.cli as cli
    from capaf.functionals import InequalityReport

    thresholds = {  # callee -> (its parameter names, the thresholds among them)
        name: (list(inspect.signature(func).parameters), params)
        for name, func, params in (
            ("_value_record", cli._value_record, {"tolerance"}),
            ("_decay_record", cli._decay_record, {"min_ratio", "floor"}),
            ("identity", InequalityReport.identity, {"tol"}),
            ("inequality", InequalityReport.inequality, {"tol"}))}
    seen, offenders = set(), []
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        names, params = thresholds.get(callee, ([], set()))
        args = [(kw.arg, kw.value) for kw in node.keywords]
        args += [(name, arg) for name, arg in zip(names, node.args)]
        for name, arg in args:
            if name not in params | {"tol"}:
                continue
            seen.add(callee if name in params else "tol=")
            if not (isinstance(arg, ast.Subscript) and isinstance(arg.value, ast.Name)
                    and arg.value.id == "TOLERANCES"):
                offenders.append((arg.lineno, f"{callee} {name}={ast.unparse(arg)}"))
    assert seen == {"_value_record", "_decay_record", "identity", "tol="}
    assert not offenders, "thresholds not read from TOLERANCES:\n" + "\n".join(
        f"cli.py:{line} {text}" for line, text in sorted(offenders))


def test_package_reads_no_environment():
    """The config file and the command line alone fix a run: no module of
    the package reads os.environ or os.getenv."""
    import ast

    import capaf

    src = os.path.dirname(capaf.__file__)
    reads = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    or isinstance(node, ast.ImportFrom) and node.module == "os"
                    and {a.name for a in node.names} & {"environ", "getenv"}):
                reads.append(f"{name}:{node.lineno}")
    assert not reads, "environment read at " + ", ".join(reads)


def test_version_is_pyproject_version():
    """One version string: capaf.__version__ is report.TOOL_VERSION, which
    report.json writes, and it matches pyproject.toml."""
    import capaf
    from capaf.report import TOOL_VERSION

    pyproject = open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"),
                     encoding="utf-8").read()
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert capaf.__version__ == TOOL_VERSION
    assert re.findall(r'^version = "([^"]+)"$', project, re.M) == [TOOL_VERSION]
