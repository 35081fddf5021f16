"""Output checks that do not trust the code under test.

Seed-independent columns are compared with values recorded at a fixed commit
(``reference.json``, written by ``record_reference.py``). Monte Carlo columns
are checked statistically against an independent implementation of the
analytic mixture model: idealized CDFs within a Dvoretzky-Kiefer-Wolfowitz
band, mean SE within six standard errors of the exact mean. Every check
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
# A false alarm rate of 1e-6 per band keeps seed-commit runs clean over
# thousands of checks; the band at 1e5 trials is still only 0.0085 wide.
DKW_ALPHA = 1e-6
MEAN_Z = 6.0
KS_LIMIT = 0.005
KS_AGREEMENT = 1e-9
# model CDF points evaluated at once; bounds the (points x components) matrix
SE_CDF_CHUNK = 1 << 15


def dkw_epsilon(n: int) -> float:
    """Half-width of the DKW band holding the empirical CDF with prob. 1 - DKW_ALPHA."""
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * n))


@dataclass(frozen=True)
class Scenario:
    n_a: int
    n_p: int
    num_paths: int
    kappa: float
    tx_snr: float
    p_min: float
    p_max: float

    @property
    def p_blk(self) -> float:
        return (self.p_min + self.p_max) / 2.0


def read_scenario(path) -> Scenario:
    """Parse a ``key = value`` scenario file without the program's parser."""
    raw = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = float(value)
    return Scenario(
        n_a=int(raw["n_a"]),
        n_p=int(raw["n_p"]),
        num_paths=int(raw["num_paths"]),
        kappa=10.0 ** (raw["rician_k_db"] / 10.0),
        tx_snr=10.0 ** (raw["tx_snr_db"] / 10.0),
        p_min=raw["p_min"],
        p_max=raw["p_max"],
    )


@dataclass(frozen=True)
class Mixture:
    """RSNR law: atom at zero plus exponentials with the given scales."""

    zero: float
    weights: np.ndarray
    scales: np.ndarray


def mixture(q, scenario: Scenario, tx_snr: float | None = None) -> Mixture:
    """Idealized-mode RSNR law of allocation ``q``, built by subset enumeration.

    Each served path survives blockage independently with prob. 1 - p_blk and
    then adds an exponential RSNR term of variance sigma_l^2 q_l^2 scaled by
    the array gain N_a^2 / N_t and the transmit SNR.
    """
    L, kappa, p = scenario.num_paths, scenario.kappa, scenario.p_blk
    sigma2 = [kappa / (kappa + 1.0)] + [1.0 / ((kappa + 1.0) * (L - 1))] * (L - 1)
    gain = (scenario.tx_snr if tx_snr is None else tx_snr) * scenario.n_a**2
    gain /= scenario.n_a * scenario.n_p
    served = [l for l in range(L) if q[l] > 0]
    zero, weights, scales = p ** len(served), [], []
    for size in range(1, len(served) + 1):
        for subset in itertools.combinations(served, size):
            weight = (1.0 - p) ** size * p ** (len(served) - size)
            variance = sum(sigma2[l] * q[l] ** 2 for l in subset)
            if variance > 0.0:
                weights.append(weight)
                scales.append(gain * variance)
            else:
                zero += weight
    return Mixture(zero, np.asarray(weights), np.asarray(scales))


def se_cdf(mix: Mixture, se) -> np.ndarray:
    """P(log2(1 + gamma) <= se), evaluated in chunks to bound memory."""
    se = np.atleast_1d(np.asarray(se, dtype=float))
    out = np.empty(se.size)
    for start in range(0, se.size, SE_CDF_CHUNK):
        gamma = np.exp2(se[start : start + SE_CDF_CHUNK]) - 1.0
        tail = np.exp(-gamma[:, None] / mix.scales[None, :]) @ mix.weights
        out[start : start + SE_CDF_CHUNK] = 1.0 - tail
    return out


def se_moments(mix: Mixture) -> tuple[float, float]:
    """Exact mean and standard deviation of log2(1 + gamma) by quadrature.

    For f(0) = 0, E[f(gamma)] = integral of f'(x) P(gamma > x) dx; the
    integral runs over a log-spaced grid wide enough for every scale.
    """
    hi = math.log(float(mix.scales.max()) * 60.0 + 1.0) if mix.scales.size else 0.0
    u = np.linspace(-40.0, hi, 20001)
    x = np.exp(u)
    survival = np.exp(-x[:, None] / mix.scales[None, :]) @ mix.weights
    log2 = np.log2(1.0 + x)
    dfirst = 1.0 / ((1.0 + x) * math.log(2.0))
    mean = np.trapezoid(dfirst * survival * x, u)
    second = np.trapezoid(2.0 * log2 * dfirst * survival * x, u)
    return float(mean), math.sqrt(max(second - mean**2, 0.0))


def rsnr_moments(mix: Mixture) -> tuple[float, float]:
    """Exact mean and standard deviation of gamma."""
    mean = float(mix.weights @ mix.scales)
    second = float(mix.weights @ (2.0 * mix.scales**2))
    return mean, math.sqrt(max(second - mean**2, 0.0))


def ks_distance(sorted_samples: np.ndarray, mix: Mixture) -> float:
    """KS distance of samples to the mixture SE law, atom at zero included."""
    xs, counts = np.unique(sorted_samples, return_counts=True)
    n = sorted_samples.size
    upper = np.cumsum(counts) / n
    lower = upper - counts / n
    model = se_cdf(mix, xs)
    model_left = model.copy()
    if xs.size and xs[0] == 0.0:
        model_left[0] = 0.0
    return float(max(np.max(upper - model), np.max(model_left - lower), 0.0))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a program CSV (first line is a '#' comment)."""
    with open(path, newline="", encoding="utf-8") as handle:
        comment = handle.readline()
        if not comment.startswith("#"):
            raise ValueError(f"{path}: missing '#' comment line")
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def column(header, rows, name) -> np.ndarray:
    index = header.index(name)
    return np.asarray([float(row[index]) for row in rows])


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def program_sha256(root: Path) -> str:
    """Digest of the ``panelalloc`` sources under ``root`` (names and contents)."""
    digest = hashlib.sha256()
    for path in sorted((Path(root) / "panelalloc").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def compare_reference(label: str, got: np.ndarray, want) -> list[str]:
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: {got.size} values, reference has {want.size}"]
    close = np.isclose(got, want, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL) | (got == want)
    if not np.all(close):
        i = int(np.flatnonzero(~close)[0])
        return [f"{label}[{i}] = {float(got[i])!r}, reference {float(want[i])!r}"]
    return []


class Checker:
    """Checks one workload's outputs against the reference and the model."""

    def __init__(self, reference: dict, scenario: Scenario) -> None:
        self.reference = reference
        self.scenario = scenario
        self._moments = {}

    def moments(self, q, tx_snr_db: float) -> tuple[float, float, float, float]:
        key = (tuple(q), tx_snr_db)
        if key not in self._moments:
            mix = mixture(q, self.scenario, 10.0 ** (tx_snr_db / 10.0))
            self._moments[key] = se_moments(mix) + rsnr_moments(mix)
        return self._moments[key]

    def csv_file(self, root: Path, name: str, trials: int, seed: int) -> list[str]:
        """Check every column of one output file; unknown columns fail."""
        path = root / name
        if not path.is_file():
            return [f"{name}: missing"]
        header, rows = read_csv(path)
        known = self.reference["files"].get(name)
        if known is None:
            return [f"{name}: not in the reference"]
        if "q" in known:
            return self.summary(name, header, rows, known, trials, seed)
        if len(rows) != known["rows"] or header != known["header"]:
            return [f"{name}: {len(rows)} rows of {header}, reference has "
                    f"{known['rows']} of {known['header']}"]
        failures = []
        mc = known.get("mc", {})
        for col in header:
            if col in known["columns"]:
                failures += compare_reference(f"{name}:{col}", column(header, rows, col),
                                              known["columns"][col])
            elif col in mc:
                failures += self.mean_se_column(f"{name}:{col}", column(header, rows, col),
                                                mc[col], trials)
            elif col == "cdf_mc_idealized":
                failures += self.dkw(f"{name}:{col}", column(header, rows, col),
                                     known["columns"]["cdf_analytic"], trials)
            elif col == "cdf_mc_realistic":
                failures += valid_cdf(f"{name}:{col}", column(header, rows, col))
            elif col == "gain_abs":
                gain = column(header, rows, col)
                limit = math.sqrt(self.scenario.n_a * self.scenario.n_p) * (1 + 1e-9)
                if not np.all((gain >= 0.0) & (gain <= limit)):
                    failures.append(f"{name}:{col}: outside [0, sqrt(N_t)]")
            else:
                failures.append(f"{name}:{col}: no check covers this column")
        return failures

    def mean_se_column(self, label, values, inputs, trials) -> list[str]:
        failures = []
        for i, (value, entry) in enumerate(zip(values, inputs)):
            mean, sd, _, _ = self.moments(entry["q"], entry["tx_snr_db"])
            if not abs(value - mean) <= MEAN_Z * sd / math.sqrt(trials):
                failures.append(f"{label}[{i}] = {value!r}, exact mean {mean!r}")
        return failures

    def dkw(self, label, values, analytic, trials) -> list[str]:
        gap = np.max(np.abs(values - np.asarray(analytic)))
        if not gap <= dkw_epsilon(trials):
            return [f"{label}: {gap:.5f} from the analytic CDF, DKW band {dkw_epsilon(trials):.5f}"]
        return []

    def summary(self, name, header, rows, known, trials, seed) -> list[str]:
        failures = []
        if header != ["mode", "trials", "seed", "mean_se", "mean_rsnr_db"]:
            return [f"{name}: header {header}"]
        if [row[0] for row in rows] != ["idealized", "realistic"]:
            return [f"{name}: modes {[row[0] for row in rows]}"]
        for row in rows:
            if int(row[1]) != trials or int(row[2]) != seed:
                failures.append(f"{name}: trials/seed {row[1]}/{row[2]}")
        values = [float(v) for v in rows[0][3:5]] + [float(v) for v in rows[1][3:5]]
        if not all(math.isfinite(v) for v in values):
            return failures + [f"{name}: non-finite summary values"]
        mean, sd, rsnr_mean, rsnr_sd = self.moments(known["q"], known["tx_snr_db"])
        if not abs(values[0] - mean) <= MEAN_Z * sd / math.sqrt(trials):
            failures.append(f"{name}: idealized mean SE {values[0]!r}, exact {mean!r}")
        rsnr = 10.0 ** (values[1] / 10.0)
        if not abs(rsnr - rsnr_mean) <= MEAN_Z * rsnr_sd / math.sqrt(trials):
            failures.append(f"{name}: idealized mean RSNR {rsnr!r}, exact {rsnr_mean!r}")
        if not values[2] > 0.0:
            failures.append(f"{name}: realistic mean SE {values[2]!r}")
        return failures

    def allocate_row(self, path: Path, design: str, target: float) -> list[str]:
        """One (design, target SE) query of an ``allocate`` table."""
        if not path.is_file():
            return [f"{path.name}: missing"]
        header, rows = read_csv(path)
        found = [row for row in rows if float(row[0]) == target]
        if header[0] != "xi_th" or len(found) != 1:
            return [f"{path.name}: no single row for xi_th = {target}"]
        want = self.reference["targets"][repr(target)][design]
        row = dict(zip(header, (float(v) for v in found[0])))
        label = f"{design}@{target}"
        q = [row[f"q_{l + 1}_{design}"] for l in range(len(want["q"]))]
        failures = compare_reference(f"{label}:q", np.asarray(q), want["q"])
        for name in ("outage", "avg_rsnr_db", "g_los"):
            failures += compare_reference(f"{label}:{name}", np.asarray([row[f"{name}_{design}"]]),
                                          [want[name]])
        return failures

    def oracle(self, design, q, runs, ks, outages, trials, target_se) -> list[str]:
        """Library outputs of one oracle design, recomputed from the samples.

        ``runs`` holds (mode, trials, path of the saved samples) for the
        idealized and the realistic run, in that order.
        """
        want = self.reference["designs"][design]
        if list(q) != want["q"]:
            return [f"{design}: allocation {list(q)}, reference {want['q']}"]
        failures = []
        mix = mixture(q, self.scenario)
        failures += compare_reference(f"{design}: model outage",
                                      se_cdf(mix, target_se), [want["outage"]])
        for (mode, run_trials, path), outage, expected in zip(
                runs, outages, ("idealized", "realistic")):
            samples = np.sort(np.load(path).astype(float))
            label = f"{design}/{expected}"
            if mode != expected:
                failures.append(f"{label}: result has mode {mode!r}")
                continue
            if run_trials != trials or samples.size != trials:
                failures.append(f"{label}: {samples.size} samples for {trials} trials")
                continue
            if not (np.all(np.isfinite(samples)) and samples[0] >= 0.0):
                failures.append(f"{label}: samples not finite and nonnegative")
                continue
            count = np.searchsorted(samples, target_se, side="left") / trials
            if outage != count:
                failures.append(f"{label}: empirical_outage {outage!r}, samples give {count!r}")
            if mode == "idealized":
                own = ks_distance(samples, mix)
                if not own < KS_LIMIT:
                    failures.append(f"{label}: KS {own:.5f} >= {KS_LIMIT}")
                if not abs(own - ks) <= KS_AGREEMENT:
                    failures.append(f"{label}: ks_distance {ks!r}, recomputed {own!r}")
                if not abs(outage - want["outage"]) <= dkw_epsilon(trials):
                    failures.append(f"{label}: outage {outage!r} outside the DKW band")
        return failures


def valid_cdf(label, values) -> list[str]:
    if values.size and np.all(np.diff(values) >= 0) and values[0] >= 0 and values[-1] <= 1:
        return []
    return [f"{label}: not a nondecreasing CDF in [0, 1]"]
