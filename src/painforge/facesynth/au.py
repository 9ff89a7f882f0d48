"""Action-unit vectors, the PSPI pain score, and score-conditioned sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..rng import STREAM_AU, keyed_rng

AU_NAMES = ("au4", "au6", "au7", "au9", "au10", "au43")
AU_MAX = np.array([5.0, 5.0, 5.0, 5.0, 5.0, 1.0])

PSPI_MIN = 0
PSPI_MAX = 16
NUM_PSPI_CLASSES = PSPI_MAX - PSPI_MIN + 1


@dataclass(frozen=True)
class AUVector:
    """Intensities of the six pain-relevant action units.

    The five graded units run over [0, 5]; eye closure (au43) is binary.
    """

    au4: float = 0.0
    au6: float = 0.0
    au7: float = 0.0
    au9: float = 0.0
    au10: float = 0.0
    au43: int = 0

    def __post_init__(self):
        for name, limit in zip(AU_NAMES, AU_MAX):
            value = getattr(self, name)
            if not np.isfinite(value) or not 0.0 <= value <= limit:
                raise ParameterError(
                    f"{name} must lie in [0, {limit:g}], got {value!r}")
        if self.au43 not in (0, 1):
            raise ParameterError(f"au43 must be 0 or 1, got {self.au43!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.au4, self.au6, self.au7, self.au9, self.au10,
                         float(self.au43)])

    @classmethod
    def from_array(cls, values) -> "AUVector":
        values = np.asarray(values, dtype=float)
        if values.shape != (6,):
            raise ParameterError(f"expected 6 action-unit values, got shape {values.shape}")
        return cls(au4=float(values[0]), au6=float(values[1]), au7=float(values[2]),
                   au9=float(values[3]), au10=float(values[4]),
                   au43=int(round(values[5])))


def _round_half_up(x: float) -> int:
    # Consistent labeling for continuous intensities; avoids bankers' rounding.
    return int(np.floor(x + 0.5))


def pspi_score(au: AUVector) -> int:
    """Pain intensity from action units: brow lowering plus the stronger of
    cheek-raise/lid-tighten, plus the stronger of nose-wrinkle/lip-raise,
    plus eye closure. Intensities are rounded to integer codes first."""
    r4 = _round_half_up(au.au4)
    r6 = _round_half_up(au.au6)
    r7 = _round_half_up(au.au7)
    r9 = _round_half_up(au.au9)
    r10 = _round_half_up(au.au10)
    return r4 + max(r6, r7) + max(r9, r10) + int(au.au43)


def _pairs_with_max(m: int) -> int:
    # Number of (a, b) pairs in {0..5}^2 with max(a, b) == m.
    return 2 * m + 1


def _sample_pair_with_max(m: int, rng: np.random.Generator) -> tuple[int, int]:
    j = int(rng.integers(0, 2 * m + 1)) if m > 0 else 0
    if j <= m:
        return m, j
    return j - m - 1, m


def sample_au_config(target_pspi: int, seed: int) -> AUVector:
    """Draw an integer AU configuration uniformly among all configurations
    whose PSPI score equals ``target_pspi``."""
    if not PSPI_MIN <= target_pspi <= PSPI_MAX:
        raise ParameterError(
            f"target PSPI must lie in [{PSPI_MIN}, {PSPI_MAX}], got {target_pspi}")
    rng = keyed_rng(seed, STREAM_AU)

    # Enumerate (au4, max67, max910, au43) quadruples that hit the target,
    # weighting each by how many concrete configurations realize it.
    quads = []
    weights = []
    for a in range(6):
        for b in range(6):
            for c in range(6):
                for d in (0, 1):
                    if a + b + c + d == target_pspi:
                        quads.append((a, b, c, d))
                        weights.append(_pairs_with_max(b) * _pairs_with_max(c))
    weights = np.array(weights, dtype=float)
    idx = int(rng.choice(len(quads), p=weights / weights.sum()))
    a, b, c, d = quads[idx]
    au6, au7 = _sample_pair_with_max(b, rng)
    au9, au10 = _sample_pair_with_max(c, rng)
    return AUVector(au4=float(a), au6=float(au6), au7=float(au7),
                    au9=float(au9), au10=float(au10), au43=d)
