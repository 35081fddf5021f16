"""Multi-panel analog beamformers: construction, patterns, equivalent responses.

The transmit array is N_p panels of N_a elements each, half-wavelength spaced,
acting as one N_t = N_a * N_p element ULA. Each panel is steered to one path;
a panel allocation assigns how many panels serve each path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import HPBW_COEFF_DEG
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
    if aods.shape != (len(alloc.q),):
        raise ValueError(f"expected {len(alloc.q)} AoDs, got shape {aods.shape}")

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

    a(n, theta) is the ULA response with entries exp(j pi k cos(theta)).
    """
    aods = np.atleast_1d(np.asarray(aods, dtype=float))
    steering = np.exp(1j * np.pi * np.outer(np.cos(aods), np.arange(f.size)))
    return steering.conj() @ f


def beam_pattern(f: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """|a(N_t, theta)^H f| over the given angle grid (radians)."""
    if np.size(grid) == 0:
        raise ValueError("angle grid must be nonempty")
    return np.abs(equivalent_array_response_exact(grid, f))


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


def beam_hpbw_deg(alloc: PanelAllocation, n_a: int) -> np.ndarray:
    """Half-power beamwidth of the beam serving each path: 102 deg / (q_l N_a).

    Paths with no serving beam get NaN; they have no beamwidth.
    """
    q = alloc.as_array().astype(float)
    with np.errstate(divide="ignore"):
        hpbw = np.where(q > 0, HPBW_COEFF_DEG / (q * n_a), np.nan)
    return hpbw
