import numpy as np
import pytest


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_generator(rng, dim, n_channels=2):
    from decolab.lindblad import LindbladGenerator

    channels = []
    for _ in range(n_channels):
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        channels.append((float(rng.uniform(0.1, 2.0)), op))
    return LindbladGenerator(random_hermitian(rng, dim), tuple(channels))


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)


# The five `pointer` parameter sets of perfbench's `statevector` workload
# (perfbench/jobs.py POINTER_POOL): 256-point grids and one 512-point grid,
# each over 20 sigma_0 from a Gaussian of width 2 sigma_0.
POINTER_POOL = (
    {"mass": 1.0, "gamma": 1.0, "temperature": 1.0, "t_max": 0.3},
    {"mass": 2.0, "gamma": 0.5, "temperature": 1.5, "t_max": 0.3},
    {"mass": 0.5, "gamma": 2.0, "temperature": 0.5, "t_max": 0.25},
    {"mass": 1.5, "gamma": 0.8, "temperature": 2.0, "t_max": 0.2},
    {"mass": 1.0, "gamma": 1.0, "temperature": 1.0, "t_max": 0.03,
     "grid_points": 512},
)
