import hypothesis
import numpy as np
import pytest

from flsched.model import Population, SystemConfig

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")

# 1 GHz client with the reference radio numbers: G(h2=1e-10) ~ 6.658e7 bit/s
EXAMPLE_CLIENT = dict(cpu_freq=1e9, cycles_per_bit=10.0, capacitance=1e-28, tx_power=0.1,
                      model_size=2.4e5, data_size=1.2e6, energy_budget=1.5, local_iters=5)


def population(k: int = 1, **params) -> Population:
    """k clients with the example client's parameters, each keyword replacing one.

    A keyword's value is a scalar for every client or a length-k sequence.
    """
    return Population(**{name: np.full(k, value)
                         for name, value in {**EXAMPLE_CLIENT, **params}.items()})


@pytest.fixture
def example_config():
    return SystemConfig(num_clients=2, num_rounds=300, frame_len=30, num_frames=10,
                        bandwidth=1e7, min_ratio=0.01, noise_power=1e-13,
                        accuracy_coeff=1.7e-8)


@pytest.fixture
def twin_population():
    return population(2)
