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
rotations. Where u or L2 e0 does not exist the state has the X pattern,
and a separate reduction finds its (a, b, c, d); pure product states are
the X pattern (1, 1, 1, 0) outright.

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


def _polish(L: np.ndarray) -> np.ndarray:
    # Newton step toward exact G-orthogonality; quadratic convergence
    for _ in range(2):
        L = L - 0.5 * (L @ _G @ L.T @ _G - _I4) @ L
    return L


def _complete_column(cols: list) -> np.ndarray:
    # G-orthogonal unit space-like completion of the given columns
    for seed in np.eye(4)[::-1]:
        w = seed.copy()
        for c in cols:
            if c is None:
                continue
            w = w - (w @ _G @ c) / (c @ _G @ c) * c
        n = float(w @ _G @ w)
        if n < -1e-8:
            return w / np.sqrt(-n)
    raise RuntimeError("normal-form reduction failed: cannot complete a "
                       "Lorentz basis")


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
    a proper SVD. None means u or v does not exist: M has the X pattern.
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
    # rotation taking z to the unit vector r: the unitary whose first column
    # is the pure state with Bloch vector r, through the double cover
    rho = np.array([[1.0 + r[2], r[0] - 1j * r[1]],
                    [r[0] + 1j * r[1], 1.0 - r[2]]])
    a, b = np.linalg.eigh(rho)[1][:, 1]
    return filter_to_lorentz([[a, -b.conjugate()], [b, a.conjugate()]])


def _parity_flip_sets(det_negative: bool):
    # spatial-column subsets whose flip count has the parity fixing det to +1
    if det_negative:
        return [{1}, {2}, {3}, {1, 2, 3}]
    return [set(), {1, 2}, {1, 3}, {2, 3}]


def _x_reduction(M: np.ndarray):
    """Reduce to the X pattern [[a,0,0,b],[0,d,0,0],[0,0,-d,0],[c,0,0,a+c-b]].

    After the geometric reduction, a sign-flip search over spatial columns
    of L1 and L2 (restricted to det = +1 parities) lands the reduced matrix
    on the exact pattern branch; one of the four (row3, col3) flip classes
    always matches because the degeneracy condition factors into the four
    corresponding sign branches.
    """
    W = M @ _G @ M.T @ _G
    evals, evecs = np.linalg.eig(W)
    # middle pair: the two most space-like directions available, G-orthogonal
    cand = []
    for i in range(4):
        v = evecs[:, i]
        v = v.real if np.abs(v.real).max() >= np.abs(v.imag).max() else v.imag
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            continue
        v = v / nv
        cand.append((float(v @ _G @ v), v))
    cand.sort(key=lambda t: t[0])
    mids: list[np.ndarray] = []
    for n, v in cand:
        if n < -1e-6 and all(abs(v @ _G @ m) < 1e-6 for m in mids):
            mids.append(v)
        if len(mids) == 2:
            break
    if len(mids) < 2:
        raise RuntimeError(
            "normal-form reduction failed: no space-like eigenvector pair")
    m1 = mids[0] / np.sqrt(-(mids[0] @ _G @ mids[0]))
    m2 = mids[1] - (mids[1] @ _G @ m1) / (m1 @ _G @ m1) * m1
    m2 = m2 / np.sqrt(-(m2 @ _G @ m2))

    # invariant (t, z)-like plane = G-orthogonal complement of the pair
    P = _I4 + np.outer(m1, m1 @ _G) + np.outer(m2, m2 @ _G)
    basis: list[np.ndarray] = []
    for seed in np.eye(4):
        w = P @ seed
        for b in basis:
            w = w - (w @ b) * b
        if np.linalg.norm(w) > 1e-8:
            basis.append(w / np.linalg.norm(w))
        if len(basis) == 2:
            break
    B = np.column_stack(basis)
    ww, Q = np.linalg.eigh(B.T @ _G @ B)
    if ww[0] > -1e-12 or ww[1] < 1e-12:
        raise RuntimeError("normal-form reduction failed: degenerate plane")
    u_s = B @ Q[:, 0] / np.sqrt(-ww[0])
    u_t = B @ Q[:, 1] / np.sqrt(ww[1])
    if u_t[0] < 0:
        u_t = -u_t
    L1 = _polish(np.column_stack([u_t, m1, m2, u_s]))

    N = _G @ L1.T @ _G @ M
    cols: list = [None, None, None, None]
    d1 = float(-(N[1] @ _G @ N[1]))
    d2 = float(-(N[2] @ _G @ N[2]))
    if d1 > 1e-18:
        cols[1] = N[1] / np.sqrt(d1)
    if d2 > 1e-18:
        cols[2] = N[2] / np.sqrt(d2)
    # corner columns from the rows spanning the plane
    n0, n3 = N[0], N[3]
    Sp = np.array([[n0 @ _G @ n0, n0 @ _G @ n3],
                   [n3 @ _G @ n0, n3 @ _G @ n3]])
    ww2, Q2 = np.linalg.eigh(Sp)
    if ww2[1] <= 1e-12:
        # rows 0 and 3 light-like and parallel (pure product marginals);
        # null frame with c0 + c3 along the light direction fits the pattern
        ell = n0 if np.linalg.norm(n0) >= np.linalg.norm(n3) else n3
        if (abs(float(ell @ _G @ ell)) > 1e-8 * float(ell @ ell)
                or ell[0] <= 1e-12):
            raise RuntimeError(
                "normal-form reduction failed: no time-like row mix")
        ell = ell / ell[0]
        cols[0] = np.array([1.0, 0.0, 0.0, 0.0])
        cols[3] = ell - cols[0]
    else:
        c_t = (Q2[0, 1] * n0 + Q2[1, 1] * n3) / np.sqrt(ww2[1])
        if c_t[0] < 0:
            c_t = -c_t
        cols[0] = c_t
        if ww2[0] < -1e-12:
            cols[3] = (Q2[0, 0] * n0 + Q2[1, 0] * n3) / np.sqrt(-ww2[0])
    for i in (1, 2, 3):
        if cols[i] is None:
            cols[i] = _complete_column(cols)
    L2 = _polish(np.column_stack(cols))

    Sigma = _G @ L1.T @ _G @ M @ _G @ L2 @ _G
    best = None
    for Fr in _parity_flip_sets(np.linalg.det(L1) < 0):
        rs = np.array([1.0] + [-1.0 if i in Fr else 1.0 for i in (1, 2, 3)])
        for Fc in _parity_flip_sets(np.linalg.det(L2) < 0):
            cs = np.array([1.0] + [-1.0 if j in Fc else 1.0 for j in (1, 2, 3)])
            Sf = Sigma * np.outer(rs, cs)
            resid = (abs(Sf[1, 1] + Sf[2, 2])
                     + abs(Sf[3, 3] - (Sf[0, 0] + Sf[3, 0] - Sf[0, 3])))
            if best is None or resid < best[0]:
                best = (resid, rs, cs, Sf)
    resid, rs, cs, Sigma = best
    L1 = L1 * rs[None, :]
    L2 = L2 * cs[None, :]

    params = (float(Sigma[0, 0]) + 0.0, float(Sigma[0, 3]) + 0.0,
              float(Sigma[3, 0]) + 0.0, float(Sigma[1, 1]) + 0.0)
    a, b, c, d = params
    pattern = np.array([[a, 0, 0, b], [0, d, 0, 0], [0, 0, -d, 0],
                        [c, 0, 0, a + c - b]])
    if np.abs(Sigma - pattern).max() > 1e-6:
        raise RuntimeError(
            "normal-form reduction failed: reduced matrix does not fit the "
            f"X pattern (residual {np.abs(Sigma - pattern).max():.3e})")
    if np.abs(L1 @ Sigma @ L2.T - M).max() > 1e-8:
        raise RuntimeError("normal-form reduction failed: reconstruction error")
    return L1, L2, Sigma, params


def normal_form(m: MuellerMatrix) -> NormalForm:
    """Decompose m = l1 . sigma . l2^T under proper orthochronous transforms.

    Almost every state yields kind=Diagonal. States whose MGM^TG has no
    time-like eigenvector for its top eigenvalue (a measure-zero set, pure
    product states among them) yield kind=XForm with the (a, b, c, d)
    pattern parameters. The maximally mixed state is rejected.
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
        e = np.array([1.0, 0.0, 0.0, 1.0])
        return NormalForm(kind=XFORM, l1=_rotation_to(M[1:, 0]),
                          l2=_rotation_to(M[0, 1:]), sigma=np.outer(e, e),
                          xform_params=(1.0, 1.0, 1.0, 0.0))
    diag = _diagonal_form(M)
    if diag is not None:
        L1, L2, Sigma = diag
        return NormalForm(kind=DIAGONAL, l1=LorentzTransform(L1),
                          l2=LorentzTransform(L2), sigma=Sigma)
    L1, L2, Sigma, params = _x_reduction(M)
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
    degeneracies.
    """
    rho = state.rho
    rho_t = _YY @ rho.conj() @ _YY
    w, U = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    sq = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T
    herm = sq @ rho_t @ sq
    mu = np.sqrt(np.clip(np.linalg.eigvalsh((herm + herm.conj().T) / 2.0),
                         0.0, None))[::-1]
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
