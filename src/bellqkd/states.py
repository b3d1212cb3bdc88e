"""Two-qubit states: construction, validation, and representation changes.

A state lives in three equivalent forms:

* density matrix ``rho`` (4x4 complex, Hermitian, unit trace, PSD),
* Pauli form ``(r, s, T)`` -- local Bloch vectors plus the 3x3
  correlation block,
* Mueller matrix ``M`` -- the full 4x4 table of Pauli expectation
  values M_ij = Tr[rho (sigma_i x sigma_j)], with sigma_0 = identity.

Conventions fixed here and inherited by every other module: Pauli order
(1, sx, sy, sz), qubit order Alice (x) Bob, M row 0 = (1, s), column 0 =
(1, r)^T.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "PAULI",
    "InvalidStateError",
    "StateFileError",
    "TwoQubitState",
    "MuellerMatrix",
    "FamilySpec",
    "ValidityReport",
    "from_pauli",
    "validate",
    "to_mueller",
    "from_mueller",
    "make_family",
    "depolarize",
    "bell_state",
    "load_state_file",
    "parse_state_spec",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Pauli basis (identity, x, y, z); index convention used everywhere.
PAULI = (np.eye(2, dtype=complex), _SX, _SY, _SZ)

# KRON[i, j] = sigma_i x sigma_j, precomputed for the Mueller conversions
_KRON = np.array([[np.kron(a, b) for b in PAULI] for a in PAULI])
# _RHO_TO_M[4b + a, 4i + j] = KRON[i, j, a, b], so rho flattened times it is
# M flattened; over a stack it gives each state's M bit for bit
_RHO_TO_M = _KRON.transpose(3, 2, 0, 1).reshape(16, 16)

# tolerances for physical-state validation
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = -1e-9


class InvalidStateError(ValueError):
    """Raised when a matrix fails the physical-state invariants."""


class StateFileError(ValueError):
    """Raised on malformed state-file input (bad JSON, schema, or ranges)."""


def _frozen_array(x, dtype) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TwoQubitState:
    """A two-qubit density matrix. ``rho`` is read-only after construction."""

    rho: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.rho, complex)
        if a.shape != (4, 4):
            raise InvalidStateError(f"rho must be 4x4, got {a.shape}")
        object.__setattr__(self, "rho", a)


@dataclass(frozen=True)
class MuellerMatrix:
    """4x4 real matrix of Pauli expectation values; m[0][0] = 1 for states."""

    m: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.m, float)
        if a.shape != (4, 4):
            raise InvalidStateError(f"m must be 4x4, got {a.shape}")
        object.__setattr__(self, "m", a)


@dataclass(frozen=True)
class ValidityReport:
    hermitian: bool
    trace_dev: float
    min_eig: float
    ok: bool
    failures: tuple = ()


def _is_number(x) -> bool:
    # JSON's true and false arrive as bool, which Python counts as an int
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class FamilySpec:
    """Parametric state family: bell(label), werner(p), or gisin(alpha, mu).

    Its fields are the keys a state file's "family" object may hold; white
    noise on top comes from the file's top-level "depolarize". For the
    gisin variant the second amplitude is always derived from
    normalization, beta = sqrt(1 - alpha^2); it is intentionally not an
    input.
    """

    variant: str
    label: str | None = None
    p: float | None = None
    alpha: float | None = None
    mu: float | None = None

    def __post_init__(self):
        for name in ("p", "alpha", "mu"):
            x = getattr(self, name)
            if x is not None and not _is_number(x):
                raise StateFileError(f"{name} must be a number, got {x!r}")
        if self.variant == "bell":
            if self.label not in tuple(_BELL_KETS):  # lists are unhashable
                raise StateFileError(f"unknown bell label: {self.label!r}")
        elif self.variant == "werner":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise StateFileError(f"werner p out of range: {self.p!r}")
        elif self.variant == "gisin":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise StateFileError(f"gisin alpha out of range: {self.alpha!r}")
            if self.mu is None or not 0.0 < self.mu <= 1.0:
                raise StateFileError(f"gisin mu out of range: {self.mu!r}")
        else:
            raise StateFileError(f"unknown family variant: {self.variant!r}")


# the keys of a state file's "family" object
_FAMILY_KEYS = frozenset(f.name for f in fields(FamilySpec))


def from_pauli(r, s, T) -> TwoQubitState:
    """Assemble rho = (1/4)[1x1 + r.sigma x 1 + 1 x s.sigma + sum T_ij sigma_i x sigma_j].

    Construction is total: no physicality check is performed here, run
    :func:`validate` on the result when the inputs are untrusted.
    """
    r = np.asarray(r, dtype=float).reshape(3)
    s = np.asarray(s, dtype=float).reshape(3)
    T = np.asarray(T, dtype=float).reshape(3, 3)
    m = np.empty((4, 4))
    m[0, 0] = 1.0
    m[1:, 0] = r
    m[0, 1:] = s
    m[1:, 1:] = T
    return TwoQubitState(_pauli_rho(m))


def _pauli_rho(m: np.ndarray) -> np.ndarray:
    # rho = (1/4) sum_ij m_ij sigma_i x sigma_j, over a stack of m
    return np.einsum("...ij,ijab->...ab", m, _KRON) / 4.0


def _mueller(rho: np.ndarray) -> np.ndarray:
    # M_ij = Tr[rho (sigma_i x sigma_j)], over a stack of rho
    flat = rho.reshape(rho.shape[:-2] + (16,)) @ _RHO_TO_M
    return flat.reshape(rho.shape).real


# validate's verdicts on its deviations: dev * _SIGNS <= _BOUNDS
_SIGNS = np.array([1.0, 1.0, -1.0])
_BOUNDS = np.array([_HERM_TOL, _TRACE_TOL, -_PSD_TOL])


def _deviations(rho: np.ndarray):
    # validate's |rho - rho^H|, |tr rho - 1| and least eigenvalue (a floor
    # bounds it) and their verdicts, (..., 4, 4) to (..., 3); non-finite: NaN
    bad = ~np.isfinite(rho).all(axis=(-2, -1))
    # zeros in their place, so no NaN reaches LAPACK
    h = np.where(bad[..., None, None], 0.0, rho) if bad.any() else rho
    h_h = h.conj().swapaxes(-1, -2)
    t = h.diagonal(0, -2, -1).sum(axis=-1) - 1.0  # hypot: abs() to the bit
    dev = np.empty(bad.shape + (3,))
    dev[..., 0] = np.abs(h - h_h).max(axis=(-2, -1))
    dev[..., 1] = np.hypot(t.real, t.imag)
    # eigvalsh is only meaningful on the Hermitized matrix; halving before
    # the sum keeps it finite for entries near the largest float
    dev[..., 2] = np.linalg.eigvalsh(h / 2 + h_h / 2)[..., 0]  # ascending
    if h is not rho:
        dev[bad] = np.nan
    return dev, dev * _SIGNS <= _BOUNDS


def validate(state: TwoQubitState) -> ValidityReport:
    """Check Hermiticity, unit trace, and positivity at the module tolerances;
    a rho with a non-finite entry fails all three, with NaN deviations, and
    reports the one failure "non-finite entry"."""
    dev, ok = _deviations(state.rho)
    failures = tuple(text % d for text, d, good in zip(
        ("not Hermitian (max deviation %.3e)", "trace != 1 (deviation %.3e)",
         "negative eigenvalue (%.3e)"), dev, ok) if not good)
    if np.isnan(dev[0]):  # only a non-finite entry reads NaN
        failures = ("non-finite entry",)
    return ValidityReport(bool(ok[0]), float(dev[1]), float(dev[2]),
                          ok=not failures, failures=failures)


def to_mueller(state: TwoQubitState) -> MuellerMatrix:
    """M_ij = Tr[rho (sigma_i x sigma_j)]; imaginary residue is discarded."""
    return MuellerMatrix(_mueller(state.rho))


def from_mueller(m: MuellerMatrix) -> TwoQubitState:
    """Inverse of :func:`to_mueller`; requires m[0][0] = 1 (unit trace)."""
    if not abs(m.m[0, 0] - 1.0) <= _TRACE_TOL:  # NaN fails
        raise InvalidStateError(f"m[0][0] must be 1, got {m.m[0, 0]!r}")
    return TwoQubitState(_pauli_rho(m.m))


_BELL_KETS = {
    # (amplitudes over |00>,|01>,|10>,|11>)
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def bell_state(label: str) -> TwoQubitState:
    if label not in _BELL_KETS:
        raise StateFileError(f"unknown bell label: {label!r}")
    k = _BELL_KETS[label]
    return TwoQubitState(np.outer(k, k.conj()))


def _gisin_m(alpha, mu) -> np.ndarray:
    # Mueller matrices of gisin(alpha, mu), stacked over broadcast arrays,
    # beta from normalization; no domain check, FamilySpec holds the
    # family's domain
    alpha, mu = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                    np.asarray(mu, dtype=float))
    # float_power rounds squares as Python's ** does (C pow), which differs
    # from x * x in the last bit for about 1e-3 of inputs
    alpha2 = np.float_power(alpha, 2)
    beta = np.sqrt(1.0 - alpha2)
    rz = mu * (alpha2 - np.float_power(beta, 2))
    m = np.zeros(alpha.shape + (4, 4))
    m[..., 0, 0] = 1.0
    m[..., 3, 0], m[..., 0, 3] = rz, -rz
    m[..., 1, 1] = m[..., 2, 2] = -2.0 * mu * alpha * beta
    m[..., 3, 3] = 1.0 - 2.0 * mu
    return m


def _gisin_rho(alpha, mu) -> np.ndarray:
    # density matrices of gisin(alpha, mu), built strictly from the Pauli
    # expansion of _gisin_m
    return _pauli_rho(_gisin_m(alpha, mu))


def make_family(spec: FamilySpec) -> TwoQubitState:
    """Construct the state a :class:`FamilySpec` describes."""
    if spec.variant == "bell":
        return bell_state(spec.label)
    if spec.variant == "werner":
        return depolarize(bell_state("psi-"), spec.p)
    return TwoQubitState(_gisin_rho(spec.alpha, spec.mu))


def depolarize(state: TwoQubitState, p: float) -> TwoQubitState:
    """White noise: (1-p)/4 * identity + p * rho. p=1 is the identity map."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p out of range: {p!r}")
    rho = (1.0 - p) / 4.0 * np.eye(4) + p * state.rho
    return TwoQubitState(rho)


# ---------------------------------------------------------------------------
# state-file ingestion (JSON) -- shared by the CLI

def parse_state_spec(doc: dict) -> TwoQubitState:
    """Build a state from a parsed state-file document.

    Two shapes are accepted: {"matrix": [[[re, im] x4] x4]} row-major, or
    {"family": {"variant": ...}}. An optional top-level {"depolarize": p}
    applies white noise last. Structural problems raise
    :class:`StateFileError`; a well-formed matrix that is unphysical does
    not -- run :func:`validate` for that.
    """
    if not isinstance(doc, dict):
        raise StateFileError("state file must contain a JSON object")
    extra_top = set(doc) - {"matrix", "family", "depolarize"}
    if extra_top:
        raise StateFileError(f"unknown state-file keys: {sorted(extra_top)}")
    has_matrix = "matrix" in doc
    has_family = "family" in doc
    if has_matrix == has_family:
        raise StateFileError('state file needs exactly one of "matrix" or "family"')

    if has_matrix:
        raw = doc["matrix"]
        try:
            arr = np.asarray(raw, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise StateFileError(f"matrix entries must be [re, im] pairs: {exc}")
        if arr.shape != (4, 4, 2):
            raise StateFileError(
                f'"matrix" must be 4x4 with [re, im] entries, got shape {arr.shape}')
        if not (np.isfinite(arr).all()
                and all(map(_is_number, np.array(raw, dtype=object).flat))):
            raise StateFileError('"matrix" entries must be finite numbers')
        state = TwoQubitState(arr[..., 0] + 1j * arr[..., 1])
    else:
        fam = doc["family"]
        if not isinstance(fam, dict) or "variant" not in fam:
            raise StateFileError('"family" must be an object with a "variant"')
        extra = set(fam) - _FAMILY_KEYS
        if extra:
            raise StateFileError(f"unknown family keys: {sorted(extra)}")
        state = make_family(FamilySpec(**fam))

    if "depolarize" in doc:
        p = doc["depolarize"]
        if not _is_number(p) or not 0.0 <= p <= 1.0:
            raise StateFileError(f'"depolarize" must be a number in [0,1], got {p!r}')
        state = depolarize(state, float(p))
    return state


def load_state_file(path) -> TwoQubitState:
    """Read and parse a JSON state file; see :func:`parse_state_spec`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"cannot read state file: {exc}")
    except json.JSONDecodeError as exc:
        raise StateFileError(f"state file is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file is not UTF-8: {exc}")
    return parse_state_spec(doc)
