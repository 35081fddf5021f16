"""Scenario parameters and the flat key-value scenario file format."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError

# Keys a scenario file must define, in canonical order.
SCENARIO_KEYS = (
    "n_a",
    "n_p",
    "num_paths",
    "rician_k_db",
    "tx_snr_db",
    "p_min",
    "p_max",
    "seed",
)

# Seeds key numpy's SeedSequence, which splits an integer into 32-bit words and
# zero-pads them, so seed 2^32 in chunk 0 would draw seed 0's chunk-1 frames.
_SEED_LIMIT = 1 << 32


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """10 log10(value); a zero power, such as the mean RSNR at p_blk = 1, is -inf dB."""
    return 10.0 * math.log10(value) if value != 0.0 else float("-inf")


@dataclass(frozen=True)
class SystemConfig:
    """Array geometry, path statistics, blockage statistics and transmit SNR.

    Ratios (``rician_k``, ``tx_snr``) are linear scale; scenario files carry
    them in dB and are converted on load.

    Defaults are the baseline evaluation scenario: 8 panels of 32 elements,
    4 paths, K = 10 dB, transmit SNR 10 dB, blockage probability U(0.2, 0.6).
    """

    n_a: int = 32
    n_p: int = 8
    num_paths: int = 4
    rician_k: float = 10.0
    tx_snr: float = 10.0
    p_min: float = 0.2
    p_max: float = 0.6

    def __post_init__(self) -> None:
        if int(self.n_a) != self.n_a or self.n_a < 1:
            raise ConfigurationError(f"n_a must be a positive integer, got {self.n_a}")
        if int(self.n_p) != self.n_p or self.n_p < 1:
            raise ConfigurationError(f"n_p must be a positive integer, got {self.n_p}")
        if int(self.num_paths) != self.num_paths or self.num_paths < 2:
            raise ConfigurationError(
                f"num_paths must be >= 2 (one LoS plus at least one NLoS), got {self.num_paths}"
            )
        if not 0.0 <= self.rician_k < math.inf:
            raise ConfigurationError(f"rician_k must be finite and >= 0, got {self.rician_k}")
        # tx_snr * n_a^2 * n_p bounds every RSNR scale and every step of computing one
        if not 0.0 < float(self.tx_snr) * self.n_a**2 * self.n_p < math.inf:
            raise ConfigurationError(
                f"tx_snr must be positive, with tx_snr * n_a^2 * n_p finite, got {self.tx_snr}"
            )
        if not (0.0 <= self.p_min <= self.p_max <= 1.0):
            raise ConfigurationError(
                f"need 0 <= p_min <= p_max <= 1, got p_min={self.p_min}, p_max={self.p_max}"
            )

    @property
    def n_t(self) -> int:
        """Total number of antenna elements across all panels."""
        return self.n_a * self.n_p

    @property
    def p_blk(self) -> float:
        """Average per-path blockage probability, (p_min + p_max) / 2."""
        return (self.p_min + self.p_max) / 2.0

    def summary(self) -> str:
        """One-line key=value dump used in CSV header comments."""
        return (
            f"n_a={self.n_a} n_p={self.n_p} num_paths={self.num_paths}"
            f" rician_k={self.rician_k:.6g} tx_snr={self.tx_snr:.6g}"
            f" p_min={self.p_min:.6g} p_max={self.p_max:.6g} p_blk={self.p_blk:.6g}"
        )


def load_scenario(path: str | Path) -> tuple[SystemConfig, int]:
    """Parse a flat key-value scenario file into a config and a seed.

    Each non-comment line is ``key = value`` (``=`` optional). All keys in
    SCENARIO_KEYS must appear exactly once; dB entries are converted to
    linear scale.
    """
    raw: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split("=", 1) if "=" in stripped else stripped.split(None, 1)
        if len(parts) != 2:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = parts[0].strip(), parts[1].strip()
        if key not in SCENARIO_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown scenario key {key!r}")
        if key in raw:
            raise ConfigurationError(f"{path}:{lineno}: duplicate scenario key {key!r}")
        raw[key] = value
    missing = [k for k in SCENARIO_KEYS if k not in raw]
    if missing:
        raise ConfigurationError(f"{path}: missing scenario keys: {', '.join(missing)}")

    try:
        config = SystemConfig(
            n_a=int(raw["n_a"]),
            n_p=int(raw["n_p"]),
            num_paths=int(raw["num_paths"]),
            rician_k=db_to_linear(float(raw["rician_k_db"])),
            tx_snr=db_to_linear(float(raw["tx_snr_db"])),
            p_min=float(raw["p_min"]),
            p_max=float(raw["p_max"]),
        )
        seed = int(raw["seed"])
    except OverflowError as exc:
        raise ConfigurationError(f"{path}: a dB value overflows its linear value") from exc
    except ValueError as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"{path}: malformed scenario value: {exc}") from exc
    if not 0 <= seed < _SEED_LIMIT:
        raise ConfigurationError(f"{path}: seed must be in [0, 2^32), got {seed}")
    return config, seed
