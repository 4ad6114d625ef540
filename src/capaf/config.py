"""Config file parsing for the verification tool.

INI-style configuration with sections [geometry], [norm], [mesh],
[numerics], [suites], [seeds], [output]; see the repository README for the
full key reference.  Parsing is whole-file: every problem found is
collected and reported together, not just the first one.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .capgeom import DEFAULT_TOLERANCES, CapConfig, admissible_range
from .errors import InvalidConfigError
from .norms import (EllipsoidNorm, IsotropicNorm, MinkowskiNorm,
                    PerturbedNorm, PerturbTerm)

SUITE_NAMES = ("af", "chain", "minkowski", "steiner", "symmetry", "mixdisc",
               "kernel", "operator", "routes", "all")


@dataclass
class SuiteConfig:
    """Validated run configuration."""

    n: int
    omega0: float
    norm: MinkowskiNorm
    mesh_level: int
    fd_step: float
    tolerances: dict
    seeds: list
    suites: list
    out_dir: str
    amplitude: float = 0.15

    def cap_config(self, level: int | None = None) -> CapConfig:
        return CapConfig(self.n, self.omega0, self.norm,
                         self.mesh_level if level is None else level,
                         dict(self.tolerances))

    def echo(self) -> dict:
        return {
            "n": self.n,
            "omega0": self.omega0,
            "norm": self.norm.descriptor(),
            "mesh_level": self.mesh_level,
            "fd_step": self.fd_step,
            "tolerances": dict(sorted(self.tolerances.items())),
            "seeds": list(self.seeds),
            "suites": list(self.suites),
            "amplitude": self.amplitude,
        }


def _parse_floats(text: str) -> list:
    return [float(v) for v in text.replace(",", " ").split()]


def _build_norm(section, dim: int, fd_step: float, errors: list) -> MinkowskiNorm | None:
    family = section.get("family", "").strip().lower()
    if family == "isotropic":
        return IsotropicNorm(dim)
    if family == "ellipsoid":
        raw = section.get("matrix", "")
        try:
            vals = _parse_floats(raw)
            mat = np.asarray(vals, dtype=float).reshape(dim, dim)
            return EllipsoidNorm(mat)
        except Exception as exc:  # noqa: BLE001 - aggregated into error list
            errors.append(f"norm.matrix: {exc}")
            return None
    if family == "perturbed":
        base_name = section.get("base", "isotropic").strip().lower()
        if base_name == "isotropic":
            base = IsotropicNorm(dim)
        elif base_name == "ellipsoid":
            try:
                base = EllipsoidNorm(np.asarray(
                    _parse_floats(section.get("base_matrix", "")), dtype=float).reshape(dim, dim))
            except Exception as exc:  # noqa: BLE001
                errors.append(f"norm.base_matrix: {exc}")
                return None
        else:
            errors.append(f"norm.base: unknown base family {base_name!r}")
            return None
        terms = []
        for key in sorted(k for k in section if k.startswith("term")):
            parts = section[key].split()
            if len(parts) != dim + 3:
                errors.append(f"norm.{key}: expected 'kind cx ... width amplitude' "
                              f"({dim + 3} fields), got {len(parts)}")
                continue
            try:
                terms.append(PerturbTerm(parts[0],
                                         tuple(float(v) for v in parts[1:1 + dim]),
                                         float(parts[-2]), float(parts[-1])))
            except Exception as exc:  # noqa: BLE001
                errors.append(f"norm.{key}: {exc}")
        if errors:
            return None
        deriv = section.get("derivatives", "fd").strip().lower()
        try:
            return PerturbedNorm(base, terms, fd_step=fd_step, derivatives=deriv)
        except Exception as exc:  # noqa: BLE001
            errors.append(f"norm: {exc}")
            return None
    errors.append(f"norm.family: unknown family {family!r} "
                  "(expected isotropic, ellipsoid, or perturbed)")
    return None


def parse_config(path: str) -> SuiteConfig:
    """Parse and validate a config file; raises InvalidConfigError with the
    full list of problems on failure."""
    if not os.path.exists(path):
        raise InvalidConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise InvalidConfigError(f"config syntax: {exc}") from exc

    errors: list = []

    def get(section, key, default=None, cast=str):
        if section not in parser or key not in parser[section]:
            return default
        try:
            return cast(parser[section][key])
        except (TypeError, ValueError) as exc:
            errors.append(f"{section}.{key}: {exc}")
            return default

    n = get("geometry", "n", 2, int)
    omega0 = get("geometry", "omega0", 0.0, float)
    level = get("mesh", "level", 3, int)
    fd_step = get("numerics", "fd_step", 1e-4, float)
    amplitude = get("numerics", "amplitude", 0.15, float)

    if n not in (1, 2):
        errors.append(f"geometry.n: {n} unsupported (meshing restricted to n in {{1, 2}})")

    norm = None
    if "norm" not in parser:
        errors.append("norm: missing [norm] section")
    elif n in (1, 2):
        norm = _build_norm(parser["norm"], n + 1, fd_step, errors)
    else:
        family = parser["norm"].get("family", "").strip().lower()
        if family not in ("isotropic", "ellipsoid", "perturbed"):
            errors.append(f"norm.family: unknown family {family!r} "
                          "(expected isotropic, ellipsoid, or perturbed)")

    if norm is not None:
        lo, hi = admissible_range(norm)
        if not (lo < omega0 < hi):
            errors.append(
                f"geometry.omega0: {omega0} outside the admissible open interval "
                f"({lo:.6g}, {hi:.6g})")

    tolerances = dict(DEFAULT_TOLERANCES)
    if "numerics" in parser:
        for key, raw in parser["numerics"].items():
            if key.startswith("tol_"):
                name = key[4:]
                if name not in DEFAULT_TOLERANCES:
                    errors.append(f"numerics.{key}: unknown tolerance name {name!r}")
                else:
                    try:
                        tolerances[name] = float(raw)
                    except ValueError as exc:
                        errors.append(f"numerics.{key}: {exc}")

    suites_raw = get("suites", "run", "all")
    suites = [s.strip() for s in suites_raw.replace(",", " ").split() if s.strip()]
    for s in suites:
        if s not in SUITE_NAMES:
            errors.append(f"suites.run: unknown suite {s!r}; valid names: "
                          + ", ".join(SUITE_NAMES))
    if "all" in suites:
        suites = [s for s in SUITE_NAMES if s != "all"]

    seeds_raw = get("seeds", "seeds", "1 2 3")
    try:
        seeds = [int(v) for v in seeds_raw.replace(",", " ").split()]
    except ValueError as exc:
        errors.append(f"seeds.seeds: {exc}")
        seeds = []

    out_dir = os.environ.get("CAPAF_OUT") or get("output", "dir", "capaf-out")
    # CAPAF_JOBS is accepted and ignored (suites run serially), but must be an integer
    jobs_raw = os.environ.get("CAPAF_JOBS", "1")
    try:
        int(jobs_raw)
    except ValueError:
        errors.append(f"CAPAF_JOBS: expected an integer worker count, got {jobs_raw!r}")

    if not 0 <= level <= 7:
        errors.append(f"mesh.level: {level} out of range [0, 7]")

    if errors:
        raise InvalidConfigError("; ".join(errors), errors=errors)
    return SuiteConfig(n=n, omega0=omega0, norm=norm, mesh_level=level,
                       fd_step=fd_step, tolerances=tolerances, seeds=seeds,
                       suites=suites, out_dir=out_dir, amplitude=amplitude)
