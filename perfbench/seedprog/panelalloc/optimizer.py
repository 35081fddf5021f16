"""Exhaustive panel-allocation search for the three beam-design objectives.

All designs share one candidate set: every integer allocation q >= 0 with
sum(q) = N_p and (by default) at least one panel on the LoS path. The set is
small for practical array sizes, so each objective is solved by brute force
with deterministic tie-breaking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .analytic import average_rsnr, outage_probability
from .beamforming import PanelAllocation, los_concentration
from .config import SystemConfig
from .errors import CapacityError, ConfigurationError

MAX_PATTERNS = 10**8


@dataclass
class AllocationReport:
    """Optimizer output: the chosen allocation and the full candidate table."""

    chosen: PanelAllocation
    outage: float
    avg_rsnr: float
    candidates: list[tuple[PanelAllocation, float, float]]
    g_los: float


def pattern_count(n_p: int, num_paths: int, require_los: bool = True) -> int:
    """Number of candidate allocations, in closed form.

    With the LoS constraint q_1 >= 1 this is
    sum_{q_1=1}^{N_p} C(N_p + L - q_1 - 2, L - 2); without it, the full
    composition count C(N_p + L - 1, L - 1).
    """
    if n_p < 1 or num_paths < 2:
        raise ConfigurationError(f"need n_p >= 1 and num_paths >= 2, got {n_p}, {num_paths}")
    if require_los:
        return sum(
            math.comb(n_p + num_paths - q1 - 2, num_paths - 2) for q1 in range(1, n_p + 1)
        )
    return math.comb(n_p + num_paths - 1, num_paths - 1)


def _compositions(total: int, parts: int, head_min: int):
    # ascending lexicographic order
    if parts == 1:
        yield (total,)
        return
    for head in range(head_min, total + 1):
        for tail in _compositions(total - head, parts - 1, 0):
            yield (head,) + tail


def enumerate_allocations(
    n_p: int, num_paths: int, require_los: bool = True
) -> list[PanelAllocation]:
    """All candidate allocations in lexicographic order.

    Raises CapacityError before generating anything if the closed-form count
    exceeds MAX_PATTERNS.
    """
    count = pattern_count(n_p, num_paths, require_los)
    if count > MAX_PATTERNS:
        raise CapacityError(
            f"{count} allocation patterns for n_p={n_p}, num_paths={num_paths} "
            f"exceed the {MAX_PATTERNS} limit"
        )
    head_min = 1 if require_los else 0
    allocations = [PanelAllocation(q) for q in _compositions(n_p, num_paths, head_min)]
    assert len(allocations) == count
    return allocations


def g_los(alloc: PanelAllocation) -> float:
    """Normalized LoS beam gain q_1 / N_p."""
    return alloc.q[0] / alloc.num_panels


def _candidate_table(
    config: SystemConfig, target_se: float, require_los: bool = True
) -> list[tuple[PanelAllocation, float, float]]:
    allocations = enumerate_allocations(config.n_p, config.num_paths, require_los)
    return [
        (a, outage_probability(a, config, target_se), average_rsnr(a, config))
        for a in allocations
    ]


def maximize_average_se(config: SystemConfig) -> PanelAllocation:
    """Allocation maximizing the mean RSNR (equivalently the Jensen SE bound).

    When kappa (L-1) > 1 the LoS term dominates the objective and the
    maximizer is concentration of all panels on the LoS path; this is
    cross-checked against a brute-force scan. Outside that regime a warning
    is emitted and the scan argmax is returned instead.
    """
    candidates = enumerate_allocations(config.n_p, config.num_paths)
    best = min(
        ((average_rsnr(a, config), a) for a in candidates),
        key=lambda item: (-item[0], item[1].q),
    )[1]
    dominance = config.rician_k * (config.num_paths - 1)
    if dominance > 1.0:
        los = los_concentration(config)
        if best.q != los.q:
            raise AssertionError(
                f"brute-force argmax {best.q} contradicts the closed-form maximizer {los.q}"
            )
        return los
    warnings.warn(
        f"kappa (L-1) = {dominance:.4g} <= 1: LoS concentration is not guaranteed "
        "to maximize the mean RSNR; returning the brute-force argmax",
        stacklevel=2,
    )
    return best


def optimize_outmin(
    config: SystemConfig, target_se: float, require_los: bool = True
) -> AllocationReport:
    """Minimize the outage probability at the target SE by exhaustive search.

    Ties are broken by higher mean RSNR, then by lexicographically smallest
    allocation, so the result is deterministic.
    """
    table = _candidate_table(config, target_se, require_los)
    chosen, outage, avg = min(table, key=lambda row: (row[1], -row[2], row[0].q))
    return AllocationReport(
        chosen=chosen, outage=outage, avg_rsnr=avg, candidates=table, g_los=g_los(chosen)
    )


def optimize_outmin_ase(
    config: SystemConfig,
    target_se: float,
    epsilon: float,
    require_los: bool = True,
) -> AllocationReport:
    """Maximize the mean RSNR among near-optimal-outage allocations.

    Feasible candidates are those within epsilon of the minimum outage
    probability; among them the mean RSNR is maximized (ties broken
    lexicographically). The chosen outage therefore exceeds the minimum by
    at most epsilon.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
    table = _candidate_table(config, target_se, require_los)
    min_outage = min(row[1] for row in table)
    feasible = [row for row in table if row[1] <= min_outage + epsilon]
    chosen, outage, avg = min(feasible, key=lambda row: (-row[2], row[0].q))
    return AllocationReport(
        chosen=chosen, outage=outage, avg_rsnr=avg, candidates=table, g_los=g_los(chosen)
    )
