import json
import math

import pytest

from kgbohm import FourVector, PlaneWaveMode, Superposition, counterexample
from support import to_dict

ORIGIN = FourVector(0.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="session")
def cx():
    """The three-wave example that is ill-defined at the origin."""
    return counterexample(1.0)


@pytest.fixture(scope="session")
def two_mode():
    """Smooth two-mode case with unequal amplitudes (well-defined a.e.)."""
    return Superposition(
        mass=1.0,
        modes=(
            PlaneWaveMode(k=FourVector(1.0, 0.0, 0.0, 0.0), c=complex(2.0, 0.0)),
            PlaneWaveMode(
                k=FourVector(math.sqrt(2.0), 1.0, 0.0, 0.0), c=complex(1.0, 0.0)
            ),
        ),
    )


@pytest.fixture(scope="session")
def degenerate_field():
    """Two modes with equal amplitudes: the two gradients are orthogonal at
    every event (p.s vanishes identically on the mass shell), so the angle
    between them is undefined everywhere while p itself stays nonzero."""
    return Superposition(
        mass=1.0,
        modes=(
            PlaneWaveMode(k=FourVector(1.0, 0.0, 0.0, 0.0), c=complex(1.0, 0.0)),
            PlaneWaveMode(
                k=FourVector(math.sqrt(2.0), 1.0, 0.0, 0.0), c=complex(1.0, 0.0)
            ),
        ),
    )


@pytest.fixture(scope="session")
def null_field():
    """Two identical modes with opposite coefficients: psi vanishes everywhere."""
    k = FourVector(1.0, 0.0, 0.0, 0.0)
    return Superposition(
        mass=1.0,
        modes=(
            PlaneWaveMode(k=k, c=complex(1.0, 0.0)),
            PlaneWaveMode(k=k, c=complex(-1.0, 0.0)),
        ),
    )


@pytest.fixture
def config_file(tmp_path):
    """Write a superposition to a JSON config file and return its path."""

    def write(sup, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(to_dict(sup)))
        return path

    return write
