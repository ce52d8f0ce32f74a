"""A fixed computation, independent of quditcorr, timed between operations
to follow the host's speed during a run.

On a shared host the same operation can take 1.7x longer for minutes at a
time.  The probe does the same kinds of work as the workloads (Python
objects, JSON, small and medium numpy calls), so its median time over a
run moves with the host's speed, and a rate multiplied by it does not.
"""

import json
from time import perf_counter

import numpy as np


class HostProbe:
    every_s = 0.5  # busy operation seconds between two probes

    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((8, 8))
        self._small = small + small.T
        self._big = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self._rho = self._big @ self._big.conj().T
        self._doc = {str(i): [i, i * 0.5, "x" * 8] for i in range(1500)}
        self.seconds: list[float] = []

    def run(self) -> None:
        start = perf_counter()
        json.loads(json.dumps(self._doc, sort_keys=True))
        total = 0
        for i in range(15000):
            total += i * i % 7
        for _ in range(120):
            np.linalg.eigvalsh(self._small)
        np.einsum("ij,jk,ik->i", self._big, self._rho, self._big.conj())
        self.seconds.append(perf_counter() - start)
