"""Exact panel-allocation search for the three beam-design objectives.

The candidates are every integer allocation q >= 0 with sum(q) = N_p and at
least one panel on the LoS path. Outage and mean RSNR depend only
on q_1 and the multiset of the NLoS counts, so the search runs over profiles:
q_1 plus a nondecreasing NLoS tail, i.e. a partition of N_p - q_1 into at most
L - 1 parts (Knuth, TAOCP 4A, 7.2.1.4). ``profile_array`` lists them as one
(P, L) integer array in lexicographic order, ``analytic.score_allocations``
scores it at once, for a whole grid of target SEs if asked, and each design
picks its row with one ``np.lexsort`` on (outage, -mean, allocation). The
ascending-tail member is the lexicographically smallest allocation of its
profile, so the pick is the allocation exhaustive search over all
compositions (``allocation_array``) would make, ties included. The mean-RSNR
maximizer needs no search at any (n_p, L): it is LoS concentration when
kappa (L - 1) > 1, and otherwise the better of two scored endpoint allocations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analytic import score_allocations
from .beamforming import PanelAllocation, los_concentration
from .config import SystemConfig
from .errors import CapacityError, ConfigurationError

MAX_PATTERNS = 10**8


@dataclass
class AllocationReport:
    """Optimizer output: the chosen allocation and the table it was chosen from.

    ``allocations`` is the (P, L) profile array that was searched, one row per
    profile with ascending NLoS entries (see ``profile_array``); ``outages``
    and ``avg_rsnrs`` hold each row's outage probability and mean RSNR.
    """

    chosen: PanelAllocation
    outage: float
    avg_rsnr: float
    g_los: float
    allocations: np.ndarray
    outages: np.ndarray
    avg_rsnrs: np.ndarray

    @cached_property
    def candidates(self) -> list[tuple[PanelAllocation, float, float]]:
        """The table as (allocation, outage, mean RSNR) rows, built when first read."""
        rows = zip(self.allocations.tolist(), self.outages.tolist(), self.avg_rsnrs.tolist())
        return [(PanelAllocation(tuple(q)), outage, avg) for q, outage, avg in rows]


def pattern_count(n_p: int, num_paths: int) -> int:
    """Number of candidate allocations, in closed form.

    The candidates are the compositions with q_1 >= 1: by the hockey-stick
    identity, sum_{q_1=1}^{N_p} C(N_p + L - q_1 - 2, L - 2) = C(N_p + L - 2, L - 1).
    """
    if n_p < 1 or num_paths < 2:
        raise ConfigurationError(f"need n_p >= 1 and num_paths >= 2, got {n_p}, {num_paths}")
    return math.comb(n_p + num_paths - 2, num_paths - 1)


def _check_capacity(n_p: int, num_paths: int) -> int:
    count = pattern_count(n_p, num_paths)
    if count > MAX_PATTERNS:
        raise CapacityError(
            f"{count} allocation patterns for n_p={n_p}, num_paths={num_paths} "
            f"exceed the {MAX_PATTERNS} limit"
        )
    return count


def _extend(q, left, low, high) -> tuple[np.ndarray, np.ndarray]:
    """Each row of q repeated once per value low..high of its next entry, and the panels left."""
    choices = high - low + 1
    entry = np.arange(choices.sum()) - np.repeat(np.cumsum(choices) - choices - low, choices)
    return np.column_stack((np.repeat(q, choices, axis=0), entry)), np.repeat(left, choices) - entry


def allocation_array(n_p: int, num_paths: int) -> np.ndarray:
    """All candidate allocations as a (C, L) integer array in lexicographic order.

    Raises CapacityError before generating anything if the closed-form count
    exceeds MAX_PATTERNS. Each prefix is repeated once per value its next
    entry can take (0 up to the panels left); the last entry takes the rest.
    """
    count = _check_capacity(n_p, num_paths)
    q = np.arange(1, n_p + 1)[:, None]
    left = n_p - q[:, 0]
    for _ in range(num_paths - 2):
        q, left = _extend(q, left, 0, left)
    assert q.shape[0] == count
    return np.column_stack((q, left))


def profile_array(n_p: int, num_paths: int) -> np.ndarray:
    """One allocation per profile, as a (P, L) integer array in lexicographic order.

    A profile is q_1 plus the multiset of the NLoS counts; its row is the
    member with a nondecreasing NLoS tail. Built like ``allocation_array``,
    except that each NLoS entry runs from the previous one up to
    left // slots, the panels left shared evenly over the entries still to
    fill; the last entry takes the rest. The MAX_PATTERNS guard on the
    composition count applies here too.
    """
    _check_capacity(n_p, num_paths)
    q = np.arange(1, n_p + 1)[:, None]
    left, low = n_p - q[:, 0], 0
    for slots in range(num_paths - 1, 1, -1):
        q, left = _extend(q, left, low, left // slots)
        low = q[:, -1]
    return np.column_stack((q, left))


def g_los(alloc: PanelAllocation) -> float:
    """Normalized LoS beam gain q_1 / N_p."""
    return alloc.q[0] / alloc.num_panels


def _first(*keys: np.ndarray) -> int:
    # keys most significant first; lexsort is stable and profile_array rows are
    # lexicographic, so ties go to the smallest allocation (7x cheaper than q as keys)
    return int(np.lexsort(keys[::-1])[0])


def _report(q: np.ndarray, outages: np.ndarray, avgs: np.ndarray, best: int) -> AllocationReport:
    chosen = PanelAllocation(tuple(q[best].tolist()))
    outage, avg = float(outages[best]), float(avgs[best])
    return AllocationReport(chosen, outage, avg, g_los(chosen), q, outages, avgs)


def maximize_average_se(config: SystemConfig) -> PanelAllocation:
    """Allocation maximizing the mean RSNR (equivalently the Jensen SE bound), in closed form.

    The mean RSNR is a nonnegative multiple of kappa (L-1) q_1^2 + q_2^2 + ... + q_L^2, at most
    kappa (L-1) q_1^2 + (N_p - q_1)^2 (every NLoS panel on one path), a bound convex in q_1. So
    the spread (1, 0, ..., 0, N_p - 1) or LoS concentration maximizes it, only the latter when
    kappa (L-1) > 1, where it is returned unscored. Otherwise a warning is emitted and the two
    are scored; LoS concentration wins only with a strictly higher mean, so ties and p_blk = 1
    give the spread, the lexicographically smallest.
    """
    los = los_concentration(config)
    dominance = config.rician_k * (config.num_paths - 1)
    if dominance > 1.0:
        return los
    warnings.warn(
        f"kappa (L-1) = {dominance:.4g} <= 1: LoS concentration is not guaranteed "
        "to maximize the mean RSNR; returning the better of the two endpoint allocations, "
        "LoS concentration and the spread (1, 0, ..., 0, N_p - 1)",
        stacklevel=2,
    )
    spread = PanelAllocation((1,) + (0,) * (config.num_paths - 2) + (config.n_p - 1,))
    means = score_allocations(np.array([spread.q, los.q]), config, 0.0)[1]
    return los if means[1] > means[0] else spread


def outmin_reports(
    config: SystemConfig, target_ses: np.ndarray, epsilons: list[float]
) -> list[list[AllocationReport]]:
    """Reports of ``optimize_outmin_ase`` for every epsilon and target SE, from one table.

    ``reports[i][j]`` is the report at epsilons[i] and target_ses[j]; epsilon 0
    is ``optimize_outmin``. The profiles are enumerated and scored once for the
    whole grid, and every report shares that table.
    """
    for epsilon in epsilons:
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
    q = profile_array(config.n_p, config.num_paths)
    outages, avgs = score_allocations(q, config, np.asarray(target_ses, dtype=float))
    outages = outages.T.copy()  # one contiguous row per target SE
    minima, neg_avgs = outages.min(axis=1), -avgs
    # rows within epsilon of the minimum outage are feasible; the highest mean
    # RSNR among them wins. With epsilon = 0 the feasible rows are exactly the
    # minimum-outage ones, so this is also the outage minimizer.
    return [
        [
            _report(q, outage, avgs, _first(outage > minimum + epsilon, neg_avgs))
            for outage, minimum in zip(outages, minima)
        ]
        for epsilon in epsilons
    ]


def optimize_outmin(config: SystemConfig, target_se: float) -> AllocationReport:
    """Minimize the outage probability at the target SE by exhaustive search.

    Ties are broken by higher mean RSNR, then by lexicographically smallest
    allocation, so the result is deterministic.
    """
    return outmin_reports(config, [target_se], [0.0])[0][0]


def optimize_outmin_ase(config: SystemConfig, target_se: float, epsilon: float) -> AllocationReport:
    """Maximize the mean RSNR among near-optimal-outage allocations.

    Feasible candidates are those within epsilon of the minimum outage
    probability; among them the mean RSNR is maximized (ties broken
    lexicographically). The chosen outage therefore exceeds the minimum by
    at most epsilon.
    """
    return outmin_reports(config, [target_se], [epsilon])[0][0]
