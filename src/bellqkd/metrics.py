"""CHSH maximization, QBER/key-rate formulas, and region classification.

Everything here is driven by the singular spectrum of the 3x3
correlation block T: the single-copy CHSH optimum is
``2*sqrt(lambda1^2 + lambda2^2)``, the symmetric-attack QBER for 2 or 3
mutually unbiased key bases is an affine function of the top singular
values, and the (violation, usability) plane splits into three regions
along ``lambda1^2 + lambda2^2 = 1`` and ``lambda1 + lambda2 = sqrt(2)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .states import TwoQubitState, _frozen_array, to_mueller

__all__ = [
    "CorrelationSpectrum",
    "ChshSettings",
    "KeyMetrics",
    "Region",
    "correlation_spectrum",
    "chsh_max",
    "optimal_chsh_settings",
    "qber",
    "key_rate_symmetric",
    "q_crit",
    "q_crit_symmetric",
    "classify",
]

# |norm - 1| above which a measurement direction is not a unit vector:
# directions built from a 3x3 SVD are unit to a few ulp, and a caller's
# direction given to 10 digits still passes
_UNIT_TOL = 1e-10


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Singular data of the correlation block.

    ``lambdas`` are non-negative, sorted descending. ``alice_dirs[i]`` /
    ``bob_dirs[i]`` are the aligned singular direction pairs (rows), and
    ``signs[i]`` restores the signed correlation:
    ``alice_dirs[i] . T . bob_dirs[i] = signs[i] * lambdas[i]``.
    """

    lambdas: np.ndarray
    alice_dirs: np.ndarray  # 3x3, row i = direction for lambda_i
    bob_dirs: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        for name in ("lambdas", "alice_dirs", "bob_dirs", "signs"):
            object.__setattr__(self, name,
                               _frozen_array(getattr(self, name), float))


@dataclass(frozen=True)
class ChshSettings:
    """Bloch measurement directions (a0, a1) for Alice and (b0, b1) for Bob."""

    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray

    def __post_init__(self):
        for name in ("a0", "a1", "b0", "b1"):
            a = _frozen_array(getattr(self, name), float).reshape(3)
            if not abs(np.linalg.norm(a) - 1.0) <= _UNIT_TOL:  # NaN fails
                raise ValueError(f"{name} must be a unit vector")
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class KeyMetrics:
    q: float
    r_min: float
    distillable: bool


class Region(enum.Enum):
    """Where a state sits in the (CHSH violation, key usability) plane."""

    NONVIOLATING_UNUSABLE = "NonviolatingUnusable"
    VIOLATING_UNUSABLE = "ViolatingUnusable"
    VIOLATING_USABLE = "ViolatingUsable"


def correlation_spectrum(state: TwoQubitState) -> CorrelationSpectrum:
    """SVD of the correlation block with a deterministic sign/order convention.

    Singular values are stored non-negative; the sign of each correlation
    moves into ``signs``. Near-equal singular values (within 1e-12, in units
    of the largest where it is above 1) are ordered by comparing Alice's
    canonicalized directions lexicographically.
    """
    spectra = _spectra(to_mueller(state).m[None])
    return CorrelationSpectrum(*(x[0] for x in spectra))


# singular values equal at this many decimals are ties, which
# correlation_spectrum orders by their directions
_TIE_DECIMALS = 12


def _tie_key(s: np.ndarray) -> np.ndarray:
    # descending values s (N, 3) rounded to _TIE_DECIMALS in units of the
    # largest where it is above 1, which cannot overflow; rows at or below 1
    # keep the plain rounding bit for bit
    return np.round(s / np.maximum(s[:, :1], 1.0), _TIE_DECIMALS)


def _spectra(M: np.ndarray):
    # correlation_spectrum over a stack of Mueller matrices: lambdas,
    # alice_dirs, bob_dirs and signs, each stacked
    U, s, Vt = np.linalg.svd(M[:, 1:, 1:])
    # rows 0-2: Alice's directions of s[:, i], rows 3-5 Bob's; each flipped
    # so that its first component above 1e-12 in size is positive
    d = np.concatenate([U.swapaxes(-1, -2), Vt], axis=-2)
    big = np.abs(d) > 1e-12
    first = big & (big.cumsum(axis=-1) == 1)
    flip = np.where((d * first).sum(axis=-1) < 0, -1.0, 1.0)
    d = d * flip[..., None]
    out = s, d[:, :3], d[:, 3:], flip[:, :3] * flip[:, 3:]
    rs = _tie_key(s)
    if (rs[:, 1:] < rs[:, :-1]).all():  # no ties: the SVD order stands
        return out
    a = out[1]
    order = np.lexsort((a[..., 2], a[..., 1], a[..., 0], -rs))
    rows = np.arange(len(s))[:, None]
    return tuple(x[rows, order] for x in out)


# LAPACK's gesdd scales a matrix whose largest |entry| is below
# sqrt(tiny) / eps, or above its inverse, before the SVD and back after it,
# which can change the last bit of the values
_SVD_SMALL = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
# entries of a 3x3 block off its diagonal, in T.reshape(-1, 9)
_OFF_DIAGONAL_3 = np.array([1, 2, 3, 5, 6, 7])


def _lambdas(M: np.ndarray) -> np.ndarray:
    # _spectra(M)[0], bit for bit, without the singular directions. A
    # diagonal block with nonzero entries and its largest |entry| in
    # gesdd's unscaled range has the values -sort(-|diagonal|), as gesdd
    # leaves them: its Householder steps are the identity and dbdsqr only
    # takes the signs off and sorts, so only the other rows run the SVD.
    # The lexsort of _spectra can move a value only among ties that differ
    # in their bits, so only rows with such ties go through _spectra
    T = M[:, 1:, 1:]
    d = np.abs(np.diagonal(T, axis1=-2, axis2=-1))
    top = d.max(axis=-1)
    diagonal = (~T.reshape(-1, 9)[:, _OFF_DIAGONAL_3].any(axis=-1)
                & d.all(axis=-1) & (top >= _SVD_SMALL)
                & (top <= 1.0 / _SVD_SMALL))
    s = -np.sort(-d, axis=-1)
    if not diagonal.all():
        s[~diagonal] = np.linalg.svd(T[~diagonal])[1]
    rs = _tie_key(s)
    moved = (~(rs[:, 1:] < rs[:, :-1]) & (s[:, 1:] != s[:, :-1])).any(axis=-1)
    if moved.any():
        s[moved] = _spectra(M[moved])[0]
    return s


def chsh_max(spec: CorrelationSpectrum) -> float:
    """Single-copy CHSH optimum 2*sqrt(lambda1^2 + lambda2^2)."""
    l1, l2 = spec.lambdas[0], spec.lambdas[1]
    return float(2.0 * np.sqrt(l1 * l1 + l2 * l2))


def optimal_chsh_settings(spec: CorrelationSpectrum) -> ChshSettings:
    """Settings that attain :func:`chsh_max`.

    Alice measures along the two leading singular directions (sign-folded);
    Bob measures the two rotations of his leading pair by +-theta with
    cos(theta) = lambda1 / sqrt(lambda1^2 + lambda2^2).
    """
    l1, l2 = spec.lambdas[0], spec.lambdas[1]
    norm = np.sqrt(l1 * l1 + l2 * l2)
    if norm <= 1e-15:
        raise ValueError("no correlations")
    ct, st = l1 / norm, l2 / norm
    a0 = spec.alice_dirs[0] * spec.signs[0]
    a1 = spec.alice_dirs[1] * spec.signs[1]
    b0 = ct * spec.bob_dirs[0] + st * spec.bob_dirs[1]
    b1 = ct * spec.bob_dirs[0] - st * spec.bob_dirs[1]
    return ChshSettings(a0=a0, a1=a1, b0=b0, b1=b1)


def _chsh(T: np.ndarray, settings: ChshSettings) -> float:
    # Bell-operator expectation a0.T(b0+b1) + a1.T(b0-b1) of the state with
    # correlation block T; ChshSettings holds unit vectors
    return float(settings.a0 @ T @ (settings.b0 + settings.b1)
                 + settings.a1 @ T @ (settings.b0 - settings.b1))


def qber(spec: CorrelationSpectrum, num_bases: int) -> float:
    """Symmetric QBER for 2 or 3 mutually unbiased key bases.

    2 bases: (2 - l1 - l2)/4. 3 bases: (3 - l1 - l2 - l3)/6. Output is
    clamped to [0, 1] to absorb round-off at the boundary.
    """
    if num_bases not in (2, 3):
        raise ValueError(f"num_bases must be 2 or 3, got {num_bases!r}")
    return _qber(spec.lambdas, num_bases)


def _qber(lam: np.ndarray, num_bases: int):
    # qber of one spectrum lam (3,), as a float, or of a stack of them (N, 3)
    one = lam.ndim == 1
    l1, l2, l3 = lam.tolist() if one else lam.T
    if num_bases == 2:
        q = (2.0 - l1 - l2) / 4.0
    else:
        q = (3.0 - l1 - l2 - l3) / 6.0
    if one:
        return min(max(q, 0.0), 1.0)
    return np.minimum(np.maximum(q, 0.0), 1.0)


def key_rate_symmetric(q: float) -> KeyMetrics:
    """Key rate against symmetric attacks: r_min = 1 - 2*h(q) in entropy form.

    Written out, r_min = 1 + 2(1-q)log2(1-q) + 2q log2(q) with the
    0*log(0) = 0 convention. May be negative; ``distillable`` flags
    r_min > 0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q out of range: {q!r}")
    r_min = float(_r_min(float(q)))
    return KeyMetrics(q=float(q), r_min=r_min, distillable=bool(r_min > 0))


def _r_min(q: np.ndarray) -> np.ndarray:
    # key_rate_symmetric's r_min over an array of q in [0, 1]; a term whose
    # factor is 0 takes log2(1) = 0, as 0 log2(0) = 0
    r = 1.0 + 2.0 * q * np.log2(q + (q == 0.0))
    return r + 2.0 * (1.0 - q) * np.log2(1.0 - q + (q == 1.0))


def q_crit() -> float:
    """Error rate of the minimal-error CHSH-saturating states: (2 - sqrt(2))/4."""
    return (2.0 - np.sqrt(2.0)) / 4.0


def q_crit_symmetric() -> float:
    """Unique root of the symmetric key rate in (0, 1/2), by Newton's method.

    r_min(q) = 1 - 2 h(q) has the derivative 2 log2(q / (1 - q)); from 0.11
    the steps reach their fixed point in two.
    """
    q, last = 0.11, None
    while q != last:
        last = q
        q = q - _r_min(q) / (2.0 * np.log2(q / (1.0 - q)))
    return float(q)


def classify(spec: CorrelationSpectrum) -> Region:
    """Region in the violation/usability plane from the top two singular values."""
    return _REGIONS[_region_index(spec.lambdas)]


_REGIONS = np.array(list(Region), dtype=object)
_SQRT2 = float(np.sqrt(2.0))


def _region_index(lam: np.ndarray):
    # index into _REGIONS of one spectrum lam (3,), as an int, or of a stack
    # (N, 3); written with <= so that NaN counts as violating and usable
    l1, l2 = lam[:2].tolist() if lam.ndim == 1 else lam.T[:2]
    return (1 - (l1 * l1 + l2 * l2 <= 1.0)) * (2 - (l1 + l2 <= _SQRT2))
