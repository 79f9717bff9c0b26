import numpy as np
import pytest
from hypothesis import settings

from confocal_billiards import Ellipsoid, minimal_atlas, spectral, verify_trajectory

# property tests replay the same examples on every run and keep no
# example database; each test sets its own max_examples
settings.register_profile("repo", deadline=None, derandomize=True, database=None)
settings.load_profile("repo")


@pytest.fixture(autouse=True)
def no_cached_scan():
    """Each test starts and ends without a kept inversion scan.

    Tests that count or patch ``spectral._omega_rows`` must see the scan
    computed, and a patched scan must not reach later tests.
    """
    spectral._LAST_SCAN = None
    yield
    spectral._LAST_SCAN = None


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def ell2d():
    return Ellipsoid((0.16, 1.0))


@pytest.fixture(scope="session")
def ell_unit2d():
    return Ellipsoid((1.0, 2.0))


@pytest.fixture(scope="session")
def ell_flat():
    return Ellipsoid((0.05, 0.95, 1.0))


@pytest.fixture(scope="session")
def ell_mid():
    return Ellipsoid((0.13, 0.8, 1.0))


@pytest.fixture(scope="session")
def ell_thin():
    return Ellipsoid((0.13, 0.45, 1.0))


@pytest.fixture(scope="session")
def atlas():
    """The full 12 + 112 class atlas; built once, reused by many tests."""
    return minimal_atlas()


@pytest.fixture(scope="session")
def atlas_reports(atlas):
    return [(t, verify_trajectory(t)) for t in atlas.trajectories]


def random_phase_point(ell, rng):
    """Uniform-ish random outward phase point on the ellipsoid."""
    q = ell.surface_point(rng.normal(size=ell.dim))
    p = rng.normal(size=ell.dim)
    p /= np.linalg.norm(p)
    if float(ell.normal(q) @ p) < 0.0:
        p = -p
    return q, p
