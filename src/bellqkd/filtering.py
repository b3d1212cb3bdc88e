"""Local filtering via the Lorentz normal form of the Mueller matrix.

A local filter f (2x2 complex, |det f| > 0) acts on the Mueller matrix as
a proper orthochronous Lorentz transformation L_f = V (f x f*) V^dag / |det f|;
this double cover is what makes single-copy entanglement concentration a
piece of Minkowski geometry. The normal form M = L1 Sigma L2^T (Sigma
diagonal for almost every state, an X-patterned matrix on a measure-zero
set; Verstraete, Dehaene and De Moor, PRA 64, 010101(R), 2001) directly
yields the optimal filters: invert L1, L2 back through the double cover
and rescale to unit operator norm.

The Diagonal form comes from one eigenspace construction. L1 e0 = u is
the time-like eigenvector of W = M G M^T G for its top eigenvalue
sigma0^2 (the most time-like unit vector of that eigenspace when it is
degenerate), L2 e0 is M^T G u normalised, the pure boosts taking both to
e0 leave sigma0 (+) T, and a proper SVD of the 3x3 block T gives the
rotations. Where u or L2 e0 does not exist, or the boosts leave M not
whitened, the state has the X pattern. Its form comes from the null
eigenvector n_A = L1 e- of W (e+- = (1, 0, 0, +-1)) and n_B = L2 e+ along
M^T G n_A: rotations taking -z to n_A and z to n_B, a rotation about z on
Bob's side and one null rotation on each side fixing e- and e+ turn M
into the pattern. That is one fixed member of the family of X forms: no
boost along either null direction, Bob carries the rotation about z, and
d <= 0. Pure product states are the X pattern (1, 1, 1, 0) outright.

Entanglement measures (Wootters concurrence, entanglement of formation)
live here too since the filtering analysis is what consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as _metrics
from .states import MuellerMatrix, TwoQubitState, from_mueller, to_mueller

__all__ = [
    "MINKOWSKI_G",
    "LorentzTransform",
    "FilterPair",
    "NormalForm",
    "FilterOutcome",
    "EntanglementReport",
    "MetricsSummary",
    "XFormError",
    "TrivialNormalFormError",
    "DIAGONAL",
    "XFORM",
    "filter_to_lorentz",
    "lorentz_to_filter",
    "normal_form",
    "optimal_filters",
    "apply_filters",
    "concurrence",
    "entanglement_of_formation",
    "entanglement_report",
    "summarize_metrics",
    "filtered_key_rate",
]

#: Minkowski metric; the invariant bilinear form of everything below.
MINKOWSKI_G = np.diag([1.0, -1.0, -1.0, -1.0])
MINKOWSKI_G.setflags(write=False)

_G = MINKOWSKI_G
_I4 = np.eye(4)

# double-cover intertwiner: rows are vec(sigma_i^T)/sqrt(2)
_V = np.array(
    [[1, 0, 0, 1],
     [0, 1, 1, 0],
     [0, 1j, -1j, 0],
     [1, 0, 0, -1]], dtype=complex) / np.sqrt(2.0)

_SY2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY2, _SY2).real  # real symmetric

DIAGONAL = "Diagonal"
XFORM = "XForm"


class TrivialNormalFormError(ValueError):
    """The maximally mixed state has no meaningful normal form."""


class XFormError(RuntimeError):
    """Raised when filter extraction meets the non-diagonal normal form.

    Carries the (a, b, c, d) parameters of the reduced matrix; d = 0
    corresponds to a separable initial state.
    """

    def __init__(self, a: float, b: float, c: float, d: float):
        self.a, self.b, self.c, self.d = float(a), float(b), float(c), float(d)
        self.separable = bool(abs(d) < 1e-9)
        msg = (f"state reduces to the non-diagonal normal form "
               f"(a={a:.6g}, b={b:.6g}, c={c:.6g}, d={d:.6g})")
        if self.separable:
            msg += "; d=0 corresponds to a separable initial state"
        super().__init__(msg)


@dataclass(frozen=True)
class LorentzTransform:
    """Proper orthochronous Lorentz matrix: LGL^T = G, det = +1, L00 >= 1."""

    l: np.ndarray

    def __post_init__(self):
        a = np.array(self.l, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "l", a)
        if a.shape != (4, 4):
            raise ValueError(f"l must be 4x4, got {a.shape}")
        dev = np.abs(a @ _G @ a.T - _G).max()
        det = np.linalg.det(a)
        if dev > 1e-9 or abs(det - 1.0) > 1e-9 or a[0, 0] < 1.0 - 1e-9:
            raise ValueError(
                f"not proper orthochronous (metric dev {dev:.3e}, det {det:.12g}, "
                f"L00 {a[0, 0]:.12g})")


@dataclass(frozen=True)
class FilterPair:
    """Alice's and Bob's filter elements; operator norm at most 1 each."""

    m1: np.ndarray
    n1: np.ndarray

    def __post_init__(self):
        for name in ("m1", "n1"):
            a = np.array(getattr(self, name), dtype=complex)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
            if a.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got {a.shape}")
            if np.linalg.norm(a, 2) > 1.0 + 1e-12:
                raise ValueError(f"{name} has operator norm > 1")


@dataclass(frozen=True)
class NormalForm:
    """Decomposition m = l1 . sigma . l2^T; xform_params only for kind=XForm."""

    kind: str
    l1: LorentzTransform
    l2: LorentzTransform
    sigma: np.ndarray
    xform_params: tuple | None = None

    def __post_init__(self):
        a = np.array(self.sigma, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "sigma", a)


@dataclass(frozen=True)
class EntanglementReport:
    concurrence: float
    eof: float


@dataclass(frozen=True)
class MetricsSummary:
    """Spectrum-derived numbers for one state (2-basis protocol QBER)."""

    spectrum: _metrics.CorrelationSpectrum
    s_max: float
    q: float
    r_min: float
    distillable: bool
    region: _metrics.Region


@dataclass(frozen=True)
class FilterOutcome:
    filtered: TwoQubitState
    p_succ: float
    before: MetricsSummary
    after: MetricsSummary
    r_filtered: float
    filters: FilterPair


# ---------------------------------------------------------------------------
# double cover

def filter_to_lorentz(f) -> LorentzTransform:
    """Lorentz image of a filter: L = V (f x f*) V^dag / |det f|."""
    f = np.asarray(f, dtype=complex).reshape(2, 2)
    det = np.linalg.det(f)
    if abs(det) <= 1e-12:
        raise ValueError("filter must be nonsingular")
    L = _V @ np.kron(f, f.conj()) @ _V.conj().T / abs(det)
    resid = np.abs(L.imag).max()
    if resid > 1e-10:
        raise ValueError(f"Lorentz image not real (residue {resid:.3e})")
    return LorentzTransform(L.real)


def lorentz_to_filter(l: LorentzTransform) -> np.ndarray:
    """Invert the double cover; unit operator norm, largest entry real positive.

    V^dag L V equals (f x f*)/|det f|, whose reshuffle K[(i,j),(k,l)] is the
    rank-1 matrix vec(f) vec(f)^dag / |det f|; the dominant eigenvector
    recovers f up to phase.
    """
    if not isinstance(l, LorentzTransform):
        l = LorentzTransform(np.asarray(l, dtype=float))
    A = _V.conj().T @ l.l.astype(complex) @ _V
    K = A.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    K = (K + K.conj().T) / 2.0
    w, vv = np.linalg.eigh(K)
    if w[-1] <= 0 or np.abs(w[:3]).max() > 1e-6 * w[-1]:
        raise ValueError("input is not the Lorentz image of any filter")
    f = vv[:, -1].reshape(2, 2)
    idx = np.unravel_index(np.argmax(np.abs(f)), f.shape)
    phase = f[idx] / abs(f[idx])
    f = f * phase.conjugate()
    return f / np.linalg.norm(f, 2)


def _lorentz_inverse(L: np.ndarray) -> np.ndarray:
    return _G @ L.T @ _G


# ---------------------------------------------------------------------------
# normal form

# Eigenvalues of W = M G M^T G within this distance, relative to
# 1 + max|eigenvalue|, span one eigenspace. Rounding splits the degenerate
# top eigenvalue of rank-2 and pure states by about 1e-15, far below it.
# Near the X pattern the top eigenvalues are split by the state itself, and
# p_succ there depends on where the bound falls: 1e-8 or 1e-6 move it by up
# to 50 % on near-X states lam |Phi+><Phi+| + (1 - lam)|00><00| + 1e-7 noise.
# 1e-7 is the bound the Diagonal route has always used.
_EIG_RTOL = 1e-7

# The boosts that whiten a Diagonal M leave its first row and column zero to
# round-off: at most 2.1e-7 of Mw[0, 0] on near-X states, below 4e-11 on the
# 200x200 Gisin grid and on random states of rank 1 to 4. On X states u and
# v are not l1 e0 and l2 e0, and it is at least 1.7e-3 (locally filtered
# X states of rank 2 and 3).
_WHITEN_RTOL = 1e-4


def _boost(u: np.ndarray) -> np.ndarray:
    # pure boost taking e0 to the future unit time-like vector u
    B = np.empty((4, 4))
    B[0], B[:, 0] = u, u
    B[1:, 1:] = np.eye(3) + np.outer(u[1:], u[1:]) / (1.0 + u[0])
    return B


def _spatial(R: np.ndarray) -> np.ndarray:
    L = _I4.copy()
    L[1:, 1:] = R
    return L


def _diagonal_form(M: np.ndarray):
    """l1, l2, sigma with M = l1 sigma l2^T and sigma diagonal, or None.

    The construction is the module docstring's: u = l1 e0 from the top
    eigenspace of W, v = l2 e0 = M^T G u normalised, whitening boosts, and
    a proper SVD. None means u or v does not exist, or the boosts do not
    whiten M: M has the X pattern.
    """
    W = M @ _G @ M.T @ _G
    evals, evecs = np.linalg.eig(W)
    if np.abs(evals.imag).max() > 1e-8 * max(np.linalg.norm(W), 1e-30):
        return None  # complex eigenvalues
    lam = evals.real
    top = lam >= lam.max() - _EIG_RTOL * (1.0 + np.abs(lam).max())
    # real orthonormal basis of the top eigenspace (complex pairs split)
    V = evecs[:, top]
    B, sv, _ = np.linalg.svd(np.hstack([V.real, V.imag]),
                             full_matrices=False)
    if np.count_nonzero(sv > 1e-8 * sv[0]) != np.count_nonzero(top):
        return None  # defective top eigenspace
    B = B[:, :np.count_nonzero(top)]
    w, Q = np.linalg.eigh(B.T @ _G @ B)
    if w[-1] < 1e-10:
        return None  # no time-like direction
    u = B @ Q[:, -1] / np.sqrt(w[-1])
    u = u if u[0] > 0 else -u
    v = M.T @ _G @ u
    nv = float(v @ _G @ v)
    if nv < 1e-12 or v[0] <= 0:
        return None  # v not time-like
    v = v / np.sqrt(nv)
    # _boost(G u) is the inverse of _boost(u); boosts are symmetric
    Mw = _boost(_G @ u) @ M @ _boost(_G @ v)
    off = max(np.abs(Mw[0, 1:]).max(), np.abs(Mw[1:, 0]).max())
    if off > _WHITEN_RTOL * Mw[0, 0]:
        return None  # not whitened: M has the X pattern
    R1, s, R2t = np.linalg.svd(Mw[1:, 1:])
    R2 = R2t.T
    # singular values equal to _EIG_RTOL sigma0 in the order of the axes
    # their directions lie along, so Gisin-type states keep diagonal filters
    tie = np.concatenate([[0], np.cumsum(-np.diff(s) > _EIG_RTOL * Mw[0, 0])])
    order = np.lexsort((np.abs(R1).argmax(axis=0), tie))
    R1, s, R2 = R1[:, order], s[order], R2[:, order]
    for R in (R1, R2):  # proper rotations; a reflection signs the last value
        if np.linalg.det(R) < 0:
            R[:, 2] = -R[:, 2]
            s[2] = -s[2]
    return (_boost(u) @ _spatial(R1), _boost(v) @ _spatial(R2),
            np.diag([Mw[0, 0], *s]))


def _rotation_to(r: np.ndarray) -> LorentzTransform:
    # rotation taking z to the direction of r (a fixed one for r = 0): the
    # unitary whose first column is the pure state with Bloch vector along
    # r, through the double cover
    rho = np.array([[1.0 + r[2], r[0] - 1j * r[1]],
                    [r[0] + 1j * r[1], 1.0 - r[2]]])
    a, b = np.linalg.eigh(rho)[1][:, 1]
    return filter_to_lorentz([[a, -b.conjugate()], [b, a.conjugate()]])


# Rank-2 X states have d^2 = (a + c)(a - b) exactly, which makes the system
# for the null rotations in _x_form singular: rounding leaves its smallest
# singular value at most 1e-13 of the largest (4,000 locally filtered rank-2
# X states). Rank-3 X states, d^2 < (a + c)(a - b), gave 2.8e-5 and above.
_X_RCOND = 1e-10

# light-cone basis: columns e+ = (1, 0, 0, 1), x, y, e- = (1, 0, 0, -1)
_LC = np.array([[1.0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]])
_LC_INV = np.linalg.inv(_LC)
_E_PLUS, _E_MINUS = _LC[:, 0], _LC[:, 3]


def _null_rotation(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    # Lorentz map fixing the null vector k (e+ or e-) and taking x, y to
    # x + a[0] k, y + a[1] k; G k is the other null vector of the basis
    a = np.array([0.0, a[0], a[1], 0.0])
    return _I4 + np.outer(a + 0.5 * (a @ a) * k, _G @ k) + np.outer(k, a)


def _x_form(M: np.ndarray):
    """l1, l2, sigma with M = l1 sigma l2^T and sigma X-patterned.

    For sigma = [[a,0,0,b],[0,d,0,0],[0,0,-d,0],[c,0,0,a+c-b]], e- is the
    null eigenvector of sigma G sigma^T G and sigma^T G e- = (a + c) e+, so
    n_A = l1 e- is the null eigenvector of W = M G M^T G and M^T G n_A is
    along n_B = l2 e+. Rotations R_A (-z to n_A) and R_B (z to n_B) leave
    K = R_A^T M G R_B, in the light-cone basis, with corners p = a + c and
    r = a - b and an x-y block |d| times a reflection. A rotation about z
    on Bob's side makes that block diag(-d, d), d <= 0, and the null
    rotations N_A(al) fixing e- and N_B(be) fixing e+ clear K's x, y
    entries g (last column) and h (last row): per axis
    [[2p, -2 d_i], [d_i, -r]] (al_i, be_i) = (g_i, h_i), solved least
    squares with minimum norm. l1 = R_A N_A, l2 = R_B R_z N_B: no boost
    along either null direction. When a + c = 0, M^T G n_A vanishes, and
    N_B clears h whatever R_B is.
    """
    # Rounding splits the Jordan block of n_A into eigenvectors
    # n_A +- sqrt(eps) t, or a complex pair with real part n_A: the two
    # most time-like real eigenvectors, summed with a common sign, cancel
    # the sqrt(eps) term.
    V = np.linalg.eig(M @ _G @ M.T @ _G)[1].real
    V = V / np.linalg.norm(V, axis=0)
    i, j = np.argsort(np.sum(V * (_G @ V), axis=0))[-2:]
    n = V[:, j] + np.copysign(1.0, V[:, i] @ V[:, j]) * V[:, i]
    RA = _rotation_to(-n[1:] if n[0] >= 0 else n[1:]).l
    RB = _rotation_to((M.T @ _G @ RA @ _E_MINUS)[1:]).l
    K = _LC_INV @ RA.T @ M @ _G @ RB @ _LC
    phi = np.arctan2(K[1, 2] + K[2, 1], K[1, 1] - K[2, 2])
    Rz = _spatial([[np.cos(phi), -np.sin(phi), 0.0],
                   [np.sin(phi), np.cos(phi), 0.0], [0.0, 0.0, 1.0]])
    K = K @ Rz
    p, r, dl = K[0, 3], K[3, 0], np.diag(K)[1:3]
    A = np.block([[2.0 * p * np.eye(2), -2.0 * np.diag(dl)],
                  [np.diag(dl), -r * np.eye(2)]])
    x = np.linalg.lstsq(A, np.concatenate([K[1:3, 3], K[3, 1:3]]),
                        rcond=_X_RCOND)[0]
    L1 = RA @ _null_rotation(x[:2], _E_MINUS)
    L2 = RB @ Rz @ _null_rotation(x[2:], _E_PLUS)
    return L1, L2, _G @ L1.T @ _G @ M @ _G @ L2 @ _G


def normal_form(m: MuellerMatrix) -> NormalForm:
    """Decompose m = l1 . sigma . l2^T under proper orthochronous transforms.

    Almost every state yields kind=Diagonal. States that no pair of boosts
    whitens (a measure-zero set, pure product states among them) yield
    kind=XForm with the (a, b, c, d) pattern parameters of the fixed member
    the module docstring names. The maximally mixed state is rejected.
    """
    M = np.asarray(m.m, dtype=float)
    if np.abs(M - np.diag([1.0, 0.0, 0.0, 0.0])).max() < 1e-12:
        raise TrivialNormalFormError("normal form undefined/trivial")
    ident = LorentzTransform(_I4)
    if np.abs(M - np.diag(np.diag(M))).max() < 1e-12:
        # already Bell-diagonal
        return NormalForm(kind=DIAGONAL, l1=ident, l2=ident, sigma=M.copy())
    if (np.abs(M - np.outer(M[:, 0], M[0])).max() < 1e-12
            and np.sum(M * M) > 4.0 - 1e-12):
        # pure product state: M = (1, r)(1, s)^T with unit r and s, which is
        # the X pattern (1, 1, 1, 0) turned by the rotations taking z to r, s
        return NormalForm(kind=XFORM, l1=_rotation_to(M[1:, 0]),
                          l2=_rotation_to(M[0, 1:]),
                          sigma=np.outer(_E_PLUS, _E_PLUS),
                          xform_params=(1.0, 1.0, 1.0, 0.0))
    diag = _diagonal_form(M)
    if diag is not None:
        L1, L2, Sigma = diag
        return NormalForm(kind=DIAGONAL, l1=LorentzTransform(L1),
                          l2=LorentzTransform(L2), sigma=Sigma)
    L1, L2, Sigma = _x_form(M)
    params = tuple(float(Sigma[i, j]) + 0.0
                   for i, j in ((0, 0), (0, 3), (3, 0), (1, 1)))
    return NormalForm(kind=XFORM, l1=LorentzTransform(L1),
                      l2=LorentzTransform(L2), sigma=Sigma,
                      xform_params=params)


# ---------------------------------------------------------------------------
# filters

def optimal_filters(state: TwoQubitState) -> FilterPair:
    """Filters that map the state onto its (Bell-diagonal) normal form.

    The filtered state's Mueller matrix is sigma / sigma[0][0]; each filter
    is rescaled to unit operator norm, which maximizes the success
    probability without changing the filtered state. Bell-diagonal inputs
    get exact identity filters. Raises :class:`XFormError` when the state
    reduces to the X pattern instead.
    """
    nf = normal_form(to_mueller(state))
    if nf.kind == XFORM:
        a, b, c, d = nf.xform_params
        raise XFormError(a, b, c, d)
    eye = np.eye(2, dtype=complex)
    m1 = eye if np.abs(nf.l1.l - _I4).max() < 1e-12 else \
        lorentz_to_filter(LorentzTransform(_lorentz_inverse(nf.l1.l)))
    n1 = eye if np.abs(nf.l2.l - _I4).max() < 1e-12 else \
        lorentz_to_filter(LorentzTransform(_lorentz_inverse(nf.l2.l)))
    return FilterPair(m1=m1, n1=n1)


def apply_filters(state: TwoQubitState, pair: FilterPair):
    """Post-selected state (M1 x N1) rho (M1 x N1)^dag / p and its p_succ."""
    K = np.kron(pair.m1, pair.n1)
    out = K @ state.rho @ K.conj().T
    p = float(np.trace(out).real)
    if p <= 1e-12:
        raise ValueError("vanishing success probability")
    return TwoQubitState(out / p), p


# ---------------------------------------------------------------------------
# entanglement measures

def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence C = max(0, mu1 - mu2 - mu3 - mu4).

    The mu_i are the descending square roots of the eigenvalues of
    rho.rho~ with rho~ = (sy x sy) rho* (sy x sy); computed through the
    Hermitian product sqrt(rho) rho~ sqrt(rho) for accuracy near
    degeneracies. Eigenvalues below 1e-12 of the largest are round-off of
    zeros (rank-deficient states): their square roots, about 1e-8 of the
    largest mu, would be subtracted from C, so they are set to zero.
    """
    rho = state.rho
    rho_t = _YY @ rho.conj() @ _YY
    w, U = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    sq = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T
    herm = sq @ rho_t @ sq
    ev = np.linalg.eigvalsh((herm + herm.conj().T) / 2.0)
    ev[ev < 1e-12 * ev[-1]] = 0.0
    mu = np.sqrt(ev)[::-1]
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def entanglement_of_formation(c: float) -> float:
    """E(C) = h((1 + sqrt(1 - C^2))/2) with h the binary entropy."""
    if not 0.0 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence out of range: {c!r}")
    c = min(float(c), 1.0)
    x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    h = 0.0
    if 0.0 < x < 1.0:
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return float(h)


def entanglement_report(state: TwoQubitState) -> EntanglementReport:
    c = concurrence(state)
    return EntanglementReport(concurrence=c, eof=entanglement_of_formation(c))


# ---------------------------------------------------------------------------
# the full pipeline

def summarize_metrics(state: TwoQubitState) -> MetricsSummary:
    """Spectrum, CHSH optimum, 2-basis QBER, key rate, and region."""
    spec = _metrics.correlation_spectrum(state)
    q = _metrics.qber(spec, 2)
    km = _metrics.key_rate_symmetric(q)
    return MetricsSummary(
        spectrum=spec,
        s_max=_metrics.chsh_max(spec),
        q=q,
        r_min=km.r_min,
        distillable=km.distillable,
        region=_metrics.classify(spec),
    )


def filtered_key_rate(state: TwoQubitState) -> FilterOutcome:
    """Optimal filtering pipeline: filters, filtered state, rate r = p * r_min.

    r_filtered = p_succ * max(0, r_min(after)); X-form states raise
    :class:`XFormError`, the maximally mixed state raises
    :class:`TrivialNormalFormError`.
    """
    before = summarize_metrics(state)
    pair = optimal_filters(state)
    filtered, p = apply_filters(state, pair)
    after = summarize_metrics(filtered)
    return FilterOutcome(
        filtered=filtered,
        p_succ=p,
        before=before,
        after=after,
        r_filtered=float(p * max(0.0, after.r_min)),
        filters=pair,
    )
