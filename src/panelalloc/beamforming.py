"""Multi-panel analog beamformers: construction, patterns, equivalent responses.

The transmit array is N_p panels of N_a elements each, half-wavelength spaced,
acting as one N_t = N_a * N_p element ULA. Each panel is steered to one path;
a panel allocation assigns how many panels serve each path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import ConfigurationError


@dataclass(frozen=True)
class PanelAllocation:
    """Number of panels steered to each path; entry 0 is the LoS path."""

    q: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.q) == 0:
            raise ConfigurationError("allocation must cover at least one path")
        if any(int(v) != v or v < 0 for v in self.q):
            raise ConfigurationError(f"allocation entries must be nonnegative integers: {self.q}")
        object.__setattr__(self, "q", tuple(int(v) for v in self.q))
        if self.n_b == 0:
            raise ConfigurationError("allocation must assign at least one panel")

    @property
    def n_b(self) -> int:
        """Number of distinct beams (nonzero allocation entries)."""
        return sum(1 for v in self.q if v > 0)

    @property
    def num_panels(self) -> int:
        return sum(self.q)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.q, dtype=int)


def validate_allocation(alloc: PanelAllocation, config: SystemConfig) -> None:
    """Raise ConfigurationError unless alloc covers config's paths with its n_p panels."""
    if len(alloc.q) != config.num_paths or alloc.num_panels != config.n_p:
        raise ConfigurationError(
            f"allocation {alloc.q} does not match n_p={config.n_p}, L={config.num_paths}"
        )


def build_beamformer(
    alloc: PanelAllocation, aods: np.ndarray, config: SystemConfig
) -> np.ndarray:
    """Stack per-panel steering vectors into one unit-norm beamformer f (N_t,).

    Panels are assigned to paths in path order: the first q_1 panels point at
    aods[0], the next q_2 at aods[1], and so on. Panel m (1-based, global
    index) contributes

        f_m = exp(j pi (m-1) N_a cos(phi_m)) / sqrt(N_t) * a(N_a, phi_m)

    so that co-aligned panels chain coherently: pointing every panel at one
    angle reproduces the full-array steering vector a(N_t, theta)/sqrt(N_t).
    """
    validate_allocation(alloc, config)
    aods = np.asarray(aods, dtype=float)
    if aods.shape != (len(alloc.q),) or not np.isfinite(aods).all():
        raise ValueError(f"expected {len(alloc.q)} finite AoDs, got {aods!r}")

    n_a, n_t = config.n_a, config.n_t
    directivities = np.repeat(aods, alloc.as_array())
    cos_phi = np.cos(directivities)
    panel_index = np.arange(config.n_p)
    psi = np.exp(1j * np.pi * panel_index * n_a * cos_phi)
    # (N_p, N_a) panel responses, scaled and flattened in panel order
    per_panel = psi[:, None] * np.exp(1j * np.pi * np.arange(n_a)[None, :] * cos_phi[:, None])
    return per_panel.reshape(n_t) / np.sqrt(n_t)


def equivalent_array_response_exact(aods: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Exact equivalent array response a_eq[l] = a(N_t, theta_l)^H f.

    a(n, theta) has entries exp(j pi k cos(theta)). With b the largest divisor of
    N_t not above sqrt(N_t), the sum over k runs as sum_m e^{-j pi m b cos theta}
    sum_i e^{-j pi i cos theta} f[m b + i] on (angles, b) and (angles, N_t / b)
    tables in numpy's own einsum loops, no BLAS: each angle and each row of a
    2-D f is summed alone, so stacking rows or splitting angles moves no bit.
    """
    aods = np.atleast_1d(np.asarray(aods, dtype=float))
    if not np.isfinite(aods).all():
        raise ValueError(f"angles must be finite, got {aods!r}")
    n_t = np.shape(f)[-1]
    b = max(d for d in range(1, math.isqrt(n_t) + 1) if n_t % d == 0)
    blocks = np.reshape(f, np.shape(f)[:-1] + (n_t // b, b))
    phase = -1j * np.pi * np.cos(aods)[:, None]
    inner = np.einsum("ai,...mi->...am", np.exp(phase * np.arange(b)), blocks)
    return np.einsum("am,...am->...a", np.exp(phase * np.arange(0, n_t, b)), inner)


def beam_pattern(f: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """|a(N_t, theta)^H f| over the given angle grid (radians), per row of a 2-D f.

    The grid is evaluated in near-equal pieces of at most 1,024 angles, so memory
    stays flat in the grid size.
    """
    grid = np.atleast_1d(grid)
    if grid.size == 0:
        raise ValueError("angle grid must be nonempty")
    pieces = np.array_split(grid, -(-grid.size // 1024))
    return np.concatenate([np.abs(equivalent_array_response_exact(g, f)) for g in pieces], axis=-1)


def equivalent_array_response_approx(
    alloc: PanelAllocation, config: SystemConfig
) -> np.ndarray:
    """Main-lobe approximation of the equivalent response: (N_a/sqrt(N_t)) q."""
    return config.n_a / np.sqrt(config.n_t) * alloc.as_array().astype(float)


def los_concentration(config: SystemConfig) -> PanelAllocation:
    """All panels on the LoS path: q = [N_p, 0, ..., 0]."""
    return PanelAllocation((config.n_p,) + (0,) * (config.num_paths - 1))


def uniform_allocation(config: SystemConfig) -> PanelAllocation:
    """Panels split across all paths as equally as possible, remainder to the first paths."""
    base, rem = divmod(config.n_p, config.num_paths)
    q = tuple(base + (1 if l < rem else 0) for l in range(config.num_paths))
    return PanelAllocation(q)
