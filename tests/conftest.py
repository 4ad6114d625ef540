from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from capaf.bodies import random_capillary_body
from capaf.capgeom import CapConfig, build_cap_mesh
from capaf.norms import (EllipsoidNorm, IsotropicNorm, PerturbedNorm,
                         PerturbTerm)

_MESHES = {}
_BODIES = {}
_MODELS = {}


def model_by_name(name: str):
    if name not in _MODELS:
        if name == "iso3":
            _MODELS[name] = IsotropicNorm(3)
        elif name == "iso2":
            _MODELS[name] = IsotropicNorm(2)
        elif name == "ell3":
            _MODELS[name] = EllipsoidNorm(
                np.array([[1.0, 0.0, 0.2], [0.0, 1.2, 0.0], [0.2, 0.0, 0.9]]))
        elif name == "ell3diag":
            _MODELS[name] = EllipsoidNorm(np.diag([1.0, 1.0, 4.0]))
        elif name == "ell2":
            _MODELS[name] = EllipsoidNorm(np.array([[1.0, 0.15], [0.15, 0.8]]))
        elif name == "pert3":
            _MODELS[name] = PerturbedNorm(IsotropicNorm(3), [
                PerturbTerm("bump", (0.3, 0.2, 0.93), 0.3, 0.05),
                PerturbTerm("bump", (-0.4, 0.1, -0.9), 0.35, -0.04),
                PerturbTerm("quadratic", (0.0, 0.0, 1.0), 0.0, 0.08),
            ])
        elif name == "pert2":
            _MODELS[name] = PerturbedNorm(IsotropicNorm(2), [
                PerturbTerm("bump", (0.4, 0.92), 0.3, 0.05),
                PerturbTerm("quadratic", (0.0, 1.0), 0.0, 0.06),
            ])
        else:
            raise KeyError(name)
    return _MODELS[name]


def mesh_for(name: str, omega0: float, level: int):
    key = (name, omega0, level)
    if key not in _MESHES:
        _MESHES[key] = build_cap_mesh(CapConfig(model_by_name(name), omega0, level))
    return _MESHES[key]


def body_for(name: str, omega0: float, level: int, seed: int):
    key = (name, omega0, level, seed)
    if key not in _BODIES:
        _BODIES[key] = random_capillary_body(mesh_for(name, omega0, level), seed)
    return _BODIES[key]


@pytest.fixture(scope="session")
def mesh_factory():
    return mesh_for


@pytest.fixture(scope="session")
def body_factory():
    return body_for


@pytest.fixture(scope="session")
def model_factory():
    return model_by_name


def peak_bytes(make):
    """Traced (tracemalloc) peak of the bytes allocated while make() runs."""
    tracemalloc.start()
    try:
        make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    return peak_bytes
