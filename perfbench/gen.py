"""Input generators for the design_sweep and analysis workloads.

Every plant is admissible by construction: the closed loop at a known
gain L0 is drawn first with the required sign structure and stability
margin, and the plant is reassembled from it.  Stability comes from
diagonal dominance (continuous) or row sums below one (discrete), never
from a spectral check, so the generators do not lean on the certificate
code they feed.  ``feasible_loop`` is the generator the test suite uses
(``random_feasible_loop``), copied so the benchmark does not import
from ``tests/``.

The plant and loop pools are drawn from fixed generator seeds, so every
benchmark seed runs the same instances and the layer counts (LP pivots,
solves) repeat exactly; the benchmark seed only orders the pool and, in
the analysis workload, draws the output weightings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLASSES = ("continuous", "relaxed", "delay", "discrete")

# (n, classes, draws per class); each size draws from default_rng(n), in
# class order.  n=14 takes the first 4 of the 8 standard continuous
# plants (p=2, r=3, seed 14) of ROADMAP's failure measurement; the first
# hits the iteration cap, as 3 of the 8 do, and each such failure costs
# about 4.5 s.  Delay plants stop at n=8: a failing delay solve costs
# 9-20 s from n=12 on.
DESIGN_POOL = (
    (4, CLASSES, 10),
    (8, CLASSES, 10),
    (12, ("continuous", "relaxed", "discrete"), 6),
    (14, ("continuous",), 4),
)
DESIGN_P, DESIGN_R = 2, 3

ANALYSIS_SEED = 1511
ANALYSIS_SIZES = tuple(range(3, 11))
ANALYSIS_PER_SIZE = 25
ANALYSIS_P, ANALYSIS_R = 2, 2
ANALYSIS_Q = 2  # rows of each random output weighting
ANALYSIS_K = 10  # weightings per loop, the first being (1^T, 0)


def metzler_hurwitz(rng, n):
    """Metzler matrix with a strictly dominant negative diagonal."""
    A = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(A, 0.0)
    A[np.diag_indices(n)] = -A.sum(axis=1) - rng.uniform(0.2, 1.5, size=n)
    return A


def schur(rng, n):
    """Nonnegative matrix whose row sums stay strictly below one."""
    Z = rng.uniform(0.0, 1.0, size=(n, n))
    total = max(float(Z.sum(axis=1).max()), 1e-3)
    return Z * (rng.uniform(0.3, 0.9) / total)


def feasible_loop(rng, n, p, r):
    """(A, E, C, F, L0) with L0 an admissible standard-form gain."""
    Acl = metzler_hurwitz(rng, n)
    Bcl = rng.uniform(0.0, 1.0, size=(n, p))
    C = rng.uniform(0.0, 1.0, size=(r, n))
    F = rng.uniform(0.0, 0.5, size=(r, p))
    L0 = rng.uniform(-0.5, 0.5, size=(n, r))
    return Acl + L0 @ C, Bcl + L0 @ F, C, F, L0


@dataclass
class Plant:
    """One design input: its class, the matrices its system constructor
    takes (in order), and the gain L0 it was built around."""

    id: str
    klass: str
    matrices: tuple
    L0: np.ndarray

    @property
    def n(self) -> int:
        return self.L0.shape[0]


def plant(rng, klass: str, n: int, p: int, r: int, id: str) -> Plant:
    if klass in ("continuous", "relaxed"):
        A, E, C, F, L0 = feasible_loop(rng, n, p, r)
        return Plant(id, klass, (A, E, C, F), L0)
    if klass == "delay":
        # Split a Metzler-Hurwitz aggregate into an undelayed Metzler
        # part and a nonnegative delayed part; their sum stays Hurwitz.
        S = metzler_hurwitz(rng, n)
        off = S - np.diag(np.diag(S))
        Ah_cl = rng.uniform(0.1, 0.5) * off + np.diag(rng.uniform(0.0, 0.2, size=n))
        Bcl = rng.uniform(0.0, 1.0, size=(n, p))
        C = rng.uniform(0.0, 1.0, size=(r, n))
        C_h = rng.uniform(0.0, 0.5, size=(r, n))
        F = rng.uniform(0.0, 0.5, size=(r, p))
        L0 = rng.uniform(-0.5, 0.5, size=(n, r))
        A, A_h, E = (S - Ah_cl) + L0 @ C, Ah_cl + L0 @ C_h, Bcl + L0 @ F
        return Plant(id, klass, (A, A_h, E, C, C_h, F, 1.0), L0)
    if klass == "discrete":
        Acl = schur(rng, n)
        Bcl = rng.uniform(0.0, 1.0, size=(n, p))
        C = rng.uniform(0.0, 1.0, size=(r, n))
        F = rng.uniform(0.0, 0.5, size=(r, p))
        L0 = rng.uniform(-0.5, 0.5, size=(n, r))
        return Plant(id, klass, (Acl + L0 @ C, Bcl + L0 @ F, C, F), L0)
    raise ValueError(f"unknown plant class {klass!r}")


def design_plants(tiny: bool = False) -> list[Plant]:
    """The pool; ``tiny`` keeps its first n=4 plant of each class."""
    plants = []
    for n, classes, draws in DESIGN_POOL:
        rng = np.random.default_rng(n)
        for klass in classes:
            for i in range(draws):
                plants.append(plant(rng, klass, n, DESIGN_P, DESIGN_R, f"n{n}-{klass}-{i}"))
    if tiny:
        return [p for p in plants if p.n == 4 and p.id.endswith("-0")]
    return plants


@dataclass
class Loop:
    """One analysis input: an admissible loop and its output weightings."""

    id: str
    A: np.ndarray
    E: np.ndarray
    C: np.ndarray
    F: np.ndarray
    L0: np.ndarray
    weightings: list  # [(M, N)], the first being (1^T, 0)


def analysis_loops(seed: int, tiny: bool = False) -> list[Loop]:
    """Loops from the fixed pool; weightings from the benchmark seed."""
    pool = np.random.default_rng(ANALYSIS_SEED)
    weights = np.random.default_rng(seed)
    sizes, per_size, k = ((3, 4), 1, 3) if tiny else (ANALYSIS_SIZES, ANALYSIS_PER_SIZE, ANALYSIS_K)
    loops = []
    for n in sizes:
        for i in range(per_size):
            A, E, C, F, L0 = feasible_loop(pool, n, ANALYSIS_P, ANALYSIS_R)
            ws = [(np.ones((1, n)), np.zeros((1, ANALYSIS_P)))]
            for _ in range(k - 1):
                M = weights.uniform(0.0, 1.0, size=(ANALYSIS_Q, n))
                N = weights.uniform(0.0, 0.5, size=(ANALYSIS_Q, ANALYSIS_P))
                ws.append((M, N))
            loops.append(Loop(f"n{n}-{i}", A, E, C, F, L0, ws))
    return loops
