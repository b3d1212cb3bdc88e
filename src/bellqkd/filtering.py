"""Local filtering via the Lorentz normal form of the Mueller matrix.

A local filter f (2x2 complex, |det f| > 0) acts on the Mueller matrix as
a proper orthochronous Lorentz transformation L_f = V (f x f*) V^dag / |det f|;
this double cover is what makes single-copy entanglement concentration a
piece of Minkowski geometry. The normal form M = L1 Sigma L2^T (Sigma
diagonal for almost every state, an X-patterned matrix on a measure-zero
set; Verstraete, Dehaene and De Moor, PRA 64, 010101(R), 2001) directly
yields the optimal filters. L1 = boost(u) R_A is a pure boost after a
rotation, so the filter of its inverse is U(R_A)^dag H(G u) in closed form:
U(R) is the SU(2) element of R, and H(w), the positive filter of boost(w),
has operator norm sqrt(w0 + |w|), which the filter is divided by.

The Diagonal form comes from one eigenspace construction. L1 e0 = u is
the time-like eigenvector of W = M G M^T G for its top eigenvalue
sigma0^2 (the most time-like unit vector of that eigenspace when it is
degenerate), L2 e0 is M^T G u normalised, the pure boosts taking both to
e0 leave sigma0 (+) T, and a proper SVD of the 3x3 block T gives the
rotations. Where the boosts leave M not whitened, which is what a Diagonal
form means, the state has the X pattern. Its form comes from the null
eigenvector n_A = L1 e- of W (e+- = (1, 0, 0, +-1)) and n_B = L2 e+ along
M^T G n_A: rotations taking -z to n_A and z to n_B, a rotation about z on
Bob's side and one null rotation on each side fixing e- and e+ turn M
into the pattern. That is one fixed member of the family of X forms: no
boost along either null direction, Bob carries the rotation about z, and
d <= 0. Pure product states are the X pattern (1, 1, 1, 0) outright.

Axial states, whose M is zero outside its (t, z) and (x, y) blocks (X
states in the computational basis, Gisin and Werner states among them),
need only boosts along z and rotations about z (Yu & Eberly, QIC 7, 459,
2007). The light-cone entries e_a^T M e_b of the (t, z) block are four
times the state's populations, and where all four are above a round-off
floor (_AXIAL_FLOOR m00) they give u, v, sigma0 and sigma3 in closed form;
a closed-form 2x2 SVD of the (x, y) block gives the rest. Pure axial
states, and rank-2 ones on span{|00>, |11>} or span{|01>, |10>}, have one
opposite pair of zero populations and take the closed forms too; X-pattern
ones have one zero, or two that are not such a pair, and keep the
eigenspace route. Both give u, v, sigma0 and sigma's other entries up to
order and sign; one step orders and signs them and builds the rotations.

One function, _forms, decides the route of every state, over a stack:
normal_form, the one-state filter path and filtered_key_rate_batch read it,
and no state of a batch goes through filtered_key_rate. None applies the
filters: the filtered state's Mueller matrix is sigma / sigma0, |det f| =
1 / (w0 + |w|) makes p_succ = sigma0 / ((u0 + |u|)(v0 + |v|)), and the
batch, which builds no rotation, sorts |values| / sigma0 for its lambdas.

Entanglement measures (Wootters concurrence, entanglement of formation)
live here too since the filtering analysis is what consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as _metrics
from . import states as _states
from .states import MuellerMatrix, TwoQubitState, _frozen_array, to_mueller

__all__ = [
    "MINKOWSKI_G",
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
    "normal_form",
    "apply_filters",
    "concurrence",
    "entanglement_of_formation",
    "entanglement_report",
    "summarize_metrics",
    "filtered_key_rate",
    "BatchOutcome",
    "filtered_key_rate_batch",
]

#: Minkowski metric; the invariant bilinear form of everything below.
MINKOWSKI_G = np.diag([1.0, -1.0, -1.0, -1.0])
MINKOWSKI_G.setflags(write=False)

_G = MINKOWSKI_G
_GD = np.diag(_G)
_I4 = np.eye(4)

# rows: vec(sigma_i), i = 0..3, with sigma_0 the identity
_PAULI = np.reshape(_states.PAULI, (4, 4))
# double-cover intertwiner: rows are vec(sigma_i^T)/sqrt(2)
_V = _PAULI.conj() / np.sqrt(2.0)
# U = q0 I - i q.sigma for the unit quaternion q
_QUAT = _PAULI * np.array([1, -1j, -1j, -1j])[:, None]
_YY = _states._KRON[2, 2].real

DIAGONAL = "Diagonal"
XFORM = "XForm"

# Bounds of the checks; the one-state path and the batch share _P_FLOOR.
# operator norm of a filter above 1: the closed forms leave 1e-15
_NORM_TOL = 1e-12
# success probability below which a filter pair's output is undefined
_P_FLOOR = 1e-12
# most |M_ij| = |tr rho (sigma_i x sigma_j)| <= sum |lambda_k| of a state
# that validate accepts: trace within _TRACE_TOL of 1, and at most three
# eigenvalues below 0, none below _PSD_TOL
_M_BOUND = 1.0 + _states._TRACE_TOL + 6.0 * abs(_states._PSD_TOL)


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
class FilterPair:
    """Alice's and Bob's filter elements; operator norm at most 1 each."""

    m1: np.ndarray
    n1: np.ndarray

    def __post_init__(self):
        for name in ("m1", "n1"):
            a = _frozen_array(getattr(self, name), complex)
            object.__setattr__(self, name, a)
            if a.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got {a.shape}")
            if not _norm_ok(a):
                raise ValueError(f"{name} has operator norm > 1")


def _norm_ok(f: np.ndarray) -> np.ndarray:
    """Operator norm at most 1 + _NORM_TOL, for a 2x2 filter; a filter
    with a NaN entry fails.

    The norm squared is the top eigenvalue of h = f^dag f, in closed form;
    unlike the one from |f|_F and |det f|, it keeps the unitaries' 1 to
    1e-15."""
    a = np.abs(f[..., 0, 0]) ** 2 + np.abs(f[..., 1, 0]) ** 2
    d = np.abs(f[..., 0, 1]) ** 2 + np.abs(f[..., 1, 1]) ** 2
    h01 = (f[..., 0, 0].conj() * f[..., 0, 1]
           + f[..., 1, 0].conj() * f[..., 1, 1])
    top = (a + d) / 2.0 + np.hypot((a - d) / 2.0, np.abs(h01))
    return top <= (1.0 + _NORM_TOL) ** 2


@dataclass(frozen=True)
class NormalForm:
    """m = l1 . sigma . l2^T with l1, l2 proper orthochronous, all three
    read-only 4x4 arrays; xform_params only for kind=XForm."""

    kind: str
    l1: np.ndarray
    l2: np.ndarray
    sigma: np.ndarray
    xform_params: tuple | None = None

    def __post_init__(self):
        for name in ("l1", "l2", "sigma"):
            object.__setattr__(self, name,
                               _frozen_array(getattr(self, name), float))


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
    p_succ: float
    before: MetricsSummary
    after: MetricsSummary
    r_filtered: float
    filters: FilterPair


# ---------------------------------------------------------------------------
# double cover

def filter_to_lorentz(f) -> np.ndarray:
    """Lorentz image of a filter: L = V (f x f*) V^dag / |det f|."""
    f = np.asarray(f, dtype=complex).reshape(2, 2)
    det = np.linalg.det(f)
    if not abs(det) > 1e-12:  # NaN fails
        raise ValueError("filter must be nonsingular")
    L = _V @ np.kron(f, f.conj()) @ _V.conj().T / abs(det)
    resid = np.abs(L.imag).max()
    if not resid <= 1e-10:
        raise ValueError(f"Lorentz image not real (residue {resid:.3e})")
    return L.real


def _boost_filter(w: np.ndarray) -> np.ndarray:
    # H(w) / sqrt(w0 + |w|) for future unit time-like vectors w[n]: unit
    # operator norm, Lorentz image boost(w), |det| = 1 / (w0 + |w|). H(w) =
    # ((w0 + 1) I + w.sigma) / sqrt(2 (w0 + 1)) is the positive filter of
    # boost(w).
    w0 = w[:, 0, None, None]
    h = ((w + _I4[0]) @ _PAULI).reshape(-1, 2, 2)
    return h / np.sqrt(2.0 * (w0 + 1.0) * (
        w0 + np.linalg.norm(w[:, 1:], axis=-1)[:, None, None]))


def _rotation_filter(R: np.ndarray) -> np.ndarray:
    # SU(2) elements U(R) with Lorentz image the rotations R[n]: the
    # quaternion q is read off Q = 4 q q^T, which is linear in R, as the
    # column of its largest diagonal entry (q0 = 0 for rotations by pi),
    # normalised, which keeps U unitary to an ulp (the scale 2 sqrt(Q_kk)
    # left unitary filter pairs with p_succ 3 ulp above 1)
    tr = np.trace(R, axis1=-2, axis2=-1)
    Q = np.empty((len(R), 4, 4))
    Q[:, 0, 0] = 1.0 + tr
    Q[:, 0, 1:] = Q[:, 1:, 0] = (R[:, [2, 0, 1], [1, 2, 0]]
                                 - R[:, [1, 2, 0], [2, 0, 1]])
    Q[:, 1:, 1:] = (R + R.swapaxes(-1, -2)
                    + (1.0 - tr)[:, None, None] * _I4[1:, 1:])
    q = Q[np.arange(len(R)), np.diagonal(Q, axis1=-2, axis2=-1).argmax(-1)]
    q /= np.linalg.norm(q, axis=-1)[:, None]
    return (q @ _QUAT).reshape(-1, 2, 2)


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
# round-off, relative to Mw[0, 0]: below 4e-12 on random states of rank 1 to
# 4, filtered or not, 3.4e-7 on filtered, nearly product pure states, and
# up to 1.3e-6 (7.7e-6 filtered) on near-X states
# lam |Phi+><Phi+| + (1 - lam)|00><00| + 1e-7 noise. On X states u and v are
# not l1 e0 and l2 e0, and it is at least 2.8e-4 (random X states with a
# zero population, under filters). On filtered, weakly mixed Gisin states,
# whose top eigenvalues of W nearly meet, it spreads across the bound.
_WHITEN_RTOL = 1e-4


def _boost(u: np.ndarray) -> np.ndarray:
    # pure boosts taking e0 to the future unit time-like vectors u[n]
    B = np.empty(u.shape + (4,))
    B[:, 0], B[:, :, 0] = u, u
    B[:, 1:, 1:] = _I4[1:, 1:] + (u[:, 1:, None] * u[:, None, 1:]
                                  / (1.0 + u[:, 0, None, None]))
    return B


# B * _INVERT is the inverse G B G of a pure boost B, which is _boost(G u)
_INVERT = np.outer(_GD, _GD)


def _spatial(R: np.ndarray) -> np.ndarray:
    # rotations R[..., 3, 3] as Lorentz matrices
    L = np.zeros(np.shape(R)[:-2] + (4, 4))
    L[..., 0, 0] = 1.0
    L[..., 1:, 1:] = R
    return L


def _time_like(V: np.ndarray):
    # the most time-like unit vector of the span of each V[n] (4 x k), and
    # the mask of spans where it is time-like, w > 0: an exact guard that
    # keeps the normalisation finite (the form's test is the whitening)
    k = V.shape[-1]
    # real orthonormal basis of the span (complex pairs split)
    B = np.linalg.svd(np.concatenate([V.real, V.imag], axis=-1),
                      full_matrices=False)[0][..., :k]
    BGB = B.swapaxes(-1, -2) @ _G @ B
    if k == 1:  # the eigh of a 1 x 1 matrix is its entry, eigenvector 1
        w, u = BGB[:, 0, 0], B[..., 0]
    else:
        w, Q = np.linalg.eigh(BGB)
        w, u = w[:, -1], (B @ Q[..., -1:])[..., 0]
    ok = w > 0
    return u / np.sqrt(np.where(ok, w, 1.0))[:, None], ok


# Entries of M outside its (t, z) and (x, y) blocks, in M.reshape(-1, 16):
# an axial M, the Mueller matrix of an X state, has them all exactly zero.
_OFF_AXIAL = np.array([1, 2, 4, 7, 8, 11, 13, 14])

# A light-cone entry of an axial row is a population when it is above this
# fraction of m00, and zero when it is not. On states with a zero
# population (X mixtures, filtered along z or not, pure Gisin states and
# random X states, with M from _mueller, to_mueller or _gisin_m) the entry
# that is zero comes out at most 2.2e-16 m00, one ulp of the O(1) entries it
# is summed from. The smallest entry of the gisin(1e-6, mu) cells is 4 mu
# 1e-12, 4e-14 at mu = 0.01. Rows with one zero, or two that are not an
# opposite pair (++ and --, or +- and -+), have the X pattern and keep the
# eigenspace route.
_AXIAL_FLOOR = 1e-14


def _axial(M: np.ndarray):
    # the light-cone entries e_a^T M e_b, a, b = +- (e+- = (1, 0, 0, +-1)),
    # in the order ++, --, +-, -+, those at zero set to 0, and the mask of
    # rows that take the closed forms. Of an axial M they are four times
    # the populations of |00>, |11>, |01>, |10>. m00 is summed with m33 and
    # m03 with m30 before the outer sum: on gisin(alpha, mu), where the +-
    # entry 4 mu alpha^2 is a difference of O(1) entries, the sum in index
    # order (m00 - m03 + m30 - m33) was off by 8.0e-4 at alpha = 1e-6 and
    # 2.2e-5 at 1e-5, against 5.0e-4 and 4.9e-6 for this grouping. A stack
    # with no axial row (every general state) returns b = None after the
    # zero test alone.
    ax = ~M.reshape(-1, 16)[:, _OFF_AXIAL].any(axis=-1)
    if not ax.any():
        return None, ax
    m00, m03, m30, m33 = M[:, 0, 0], M[:, 0, 3], M[:, 3, 0], M[:, 3, 3]
    t, z = m00 + m33, m00 - m33
    tz, zt = m03 + m30, m03 - m30
    b = np.array([t + tz, t - tz, z - zt, z + zt])
    pos = b > _AXIAL_FLOOR * np.abs(m00)
    # each pair populated or at zero, and one of them populated
    ax &= (pos[0] == pos[1]) & (pos[2] == pos[3]) & (pos[0] | pos[2])
    return np.where(pos, b, 0.0), ax


# LAPACK's dbdsqr takes a superdiagonal entry for zero below TOL = eps^-1/8
# eps (its eps is 2^-53) times its estimate of the smallest singular value
_GESDD_TOL = (np.finfo(float).eps / 2.0) ** 0.875
_TINY = np.finfo(float).tiny


def _rot2(x: np.ndarray) -> np.ndarray:
    # plane rotations by the angles x[n]
    c, s = np.cos(x), np.sin(x)
    return np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)


def _axial_form(M: np.ndarray, b: np.ndarray):
    """_eigen_form's values for axial M (N, 4, 4) in closed form, from the
    light-cone entries b of _axial: all positive, or one opposite pair 0.

    A boost along z by rapidity eta scales e+- by exp(+-eta). So M =
    B(eta1) Sigma B(eta2)^T has b++ = exp(eta1 + eta2)(sigma0 + sigma3),
    b-- = exp(-eta1 - eta2)(sigma0 + sigma3), b+- = exp(eta1 - eta2)(sigma0
    - sigma3) and b-+ = exp(eta2 - eta1)(sigma0 - sigma3), which give u =
    (cosh eta1, 0, 0, sinh eta1), v likewise, sigma0 and sigma3. Where one
    pair is 0 (sigma3 = +-sigma0: pure X states, and rank-2 ones on
    span{|00>, |11>} or span{|01>, |10>}) the other pair fixes only eta1 +
    eta2 or eta2 - eta1, the top eigenspace of W is degenerate, and the
    member taken is eta1 = 0: exp(eta2) = sqrt(b++ / b--) or sqrt(b-+ /
    b+-). That is the member _time_like picks on these states (u within a
    few ulp of e0, and e0 exactly on the pure Gisin states); if its choice
    on degenerate eigenspaces changes, this one must follow it. Boosts
    along z leave M's (x, y) block A as it is: the other values are those
    of A (+) sigma3, in no order, and _axial_rotations takes the pieces.
    """
    pp, mm, pm, mp = b
    # exp(eta1), exp(eta2); a pair row's entries of 1 give eta1 = 0, then
    # its eta2 (a pair row has (pp + mp) / (mm + pm) = pp / mm or mp / pm)
    pair = (pp == 0.0) | (pm == 0.0)
    q = np.where(pair, 1.0, b)
    x = np.sqrt(np.sqrt(np.array([q[0] * q[2] / (q[1] * q[3]),
                                  q[0] * q[3] / (q[1] * q[2])])))
    x[1, pair] = np.sqrt((pp[pair] + mp[pair]) / (mm[pair] + pm[pair]))
    uv = np.zeros((2, len(M), 4))
    uv[..., 0], uv[..., 3] = (x + 1.0 / x) / 2.0, (x - 1.0 / x) / 2.0
    plus, minus = np.sqrt(pp * mm), np.sqrt(pm * mp)
    s3 = (plus - minus) / 2.0
    axx, axy, ayx, ayy = M[:, 1, 1], M[:, 1, 2], M[:, 2, 1], M[:, 2, 2]
    # the reflection H = [[axx, ayx], [ayx, -axx]] / f takes A's first
    # column to (f, 0) and A to the triangle [[f, g], [0, h]]; none where
    # ayx = 0
    refl = ayx != 0.0
    f = np.where(refl, -np.copysign(np.hypot(axx, ayx), axx), axx)
    fr = np.where(refl, f, 1.0)
    g = np.where(refl, (axx * axy + ayx * ayy) / fr, axy)
    h = np.where(refl, (ayx * axy - axx * ayy) / fr, ayy)
    fa, ha = np.abs(f), np.abs(h)
    # the triangle's values q +- r, or |f| and |h| where |g| is below
    # dbdsqr's bound; its smallest-value estimate runs over the 3x3 block's
    # diagonal f, h, sigma3 and superdiagonal g, 0
    q, r = np.hypot(f + h, g) / 2.0, np.hypot(f - h, g) / 2.0
    low = np.minimum(np.minimum(
        fa, ha * fa / np.maximum(fa + np.abs(g), _TINY)), np.abs(s3))
    split = np.abs(g) <= _GESDD_TOL * low / np.sqrt(3.0)
    d = np.stack([(plus + minus) / 2.0, np.where(split, fa, q + r),
                  np.where(split, ha, np.abs(q - r)), np.abs(s3)], axis=-1)
    return (uv.reshape(-1, 4), d), (axx, ayx, f, g, h, q, r, s3, split)


def _axial_rotations(axx, ayx, f, g, h, q, r, s3, split):
    """U, Vt of the SVD of A (+) sigma3 from _axial_form's pieces, in the
    order of its values, as LAPACK's gesdd (np.linalg.svd on the eigenspace
    route) leaves them: it reflects A's first column onto x (Householder),
    then turns the triangle [[f, g], [0, h]] this leaves by the rotation of
    dlasv2, whose column of the larger value has a positive x entry (y when
    h is the larger), or by none where dbdsqr splits the triangle as
    diagonal, and makes each value nonnegative by a sign on the right. So
    the rotations are that route's wherever its whitened block is exactly
    axial and A's values are apart.
    """
    # the triangle is rot(phi) diag(q + r, q - r) rot(th), or diagonal
    a1, a2 = np.arctan2(g, f - h), np.arctan2(-g, f + h)
    phi = np.where(split, 0.0, (a2 + a1) / 2.0)
    th = np.where(split, 0.0, (a2 - a1) / 2.0)
    lead = np.where(np.abs(h) > np.abs(f), np.sin(phi), np.cos(phi))
    sign = np.where(~split & (lead < 0.0), -1.0, 1.0)
    right = np.stack([np.where(split & (f < 0.0), -sign, sign),
                      np.where(np.where(split, h < 0.0, q < r), -sign, sign)],
                     axis=-1)
    U, Vt = np.zeros((2, len(f), 3, 3))
    U[:, :2, :2] = _rot2(phi) * sign[:, None, None]
    refl = ayx != 0.0
    if refl.any():
        H = np.stack([axx, ayx, ayx, -axx], axis=-1)[refl].reshape(-1, 2, 2)
        U[refl, :2, :2] = H / f[refl, None, None] @ U[refl, :2, :2]
    Vt[:, :2, :2] = _rot2(th) * right[:, :, None]
    U[:, 2, 2] = 1.0
    Vt[:, 2, 2] = np.where(s3 < 0.0, -1.0, 1.0)
    return U, Vt


def _eigen_form(M: np.ndarray):
    """uv = (u, v) (2N rows, u = l1 e0 first, v = l2 e0), d = (sigma0, s)
    with s the singular values of the whitened 3x3 block, its rotations
    (R1, R2t), and the mask of rows whose boosts whiten M (the one test of
    a Diagonal form; w > 0, nv > 0 and v0 > 0 only keep the arithmetic
    finite, with e0 for a u or v that fails them), over a stack M (N, 4, 4),
    from the top eigenspace of W."""
    n = len(M)
    e0 = _I4[0]
    W = M @ _G @ M.swapaxes(-1, -2) @ _G
    evals, evecs = np.linalg.eig(W)
    lam = evals.real
    top = lam >= (lam.max(axis=-1)
                  - _EIG_RTOL * (1.0 + np.abs(lam).max(axis=-1)))[:, None]
    dims = top.sum(axis=-1)
    u, ok = np.empty((n, 4)), np.empty(n, dtype=bool)
    for k in set(dims.tolist()):  # the top eigenspace has k dimensions
        rows = dims == k
        V = evecs[rows].swapaxes(-1, -2)[top[rows]]
        u[rows], ok[rows] = _time_like(V.reshape(-1, k, 4).swapaxes(-1, -2))
    u[~ok] = e0
    u *= np.where(u[:, :1] > 0, 1.0, -1.0)
    v = (M.swapaxes(-1, -2) @ _G @ u[..., None])[..., 0]
    nv = ((v @ _G)[:, None] @ v[..., None])[:, 0, 0]
    ok &= (nv > 0) & (v[:, 0] > 0)
    v = v / np.sqrt(np.where(ok, nv, 1.0))[:, None]
    v[~ok] = e0
    uv = np.concatenate([u, v])
    B = _boost(uv)
    Mw = (B[:n] * _INVERT) @ M @ (B[n:] * _INVERT)
    off = np.abs(np.concatenate([Mw[:, 0, 1:], Mw[:, 1:, 0]], axis=-1))
    ok &= off.max(axis=-1) <= _WHITEN_RTOL * Mw[:, 0, 0]  # else the X pattern
    R1, s, R2t = np.linalg.svd(Mw[:, 1:, 1:])
    return (uv, np.column_stack([Mw[:, 0, 0], s])), (R1, R2t), ok


def _diagonal_form(M: np.ndarray):
    """The values of M = l1 sigma l2^T with sigma diagonal, over a stack.

    M has shape (N, 4, 4). Axial rows (M exactly zero outside its (t, z)
    and (x, y) blocks) whose light-cone entries are all above _AXIAL_FLOOR
    m00, or all but one opposite pair, take _axial_form's closed forms;
    every other row, X-pattern axial rows among them, takes _eigen_form.
    Returns their uv and d, the mask, and the pieces that _rotations takes.
    The mask is False where the boosts do not whiten M: M has the X
    pattern. Those rows hold finite values of no meaning.
    """
    b, ax = _axial(M)
    if not ax.any():
        (uv, d), eigen, ok = _eigen_form(M)
        return uv, d, ok, (ax, None, eigen)
    # every row through the closed forms, on light-cone entries of 1 where M
    # is not axial, then those rows' values from _eigen_form
    (uv, d), tri = _axial_form(M, np.where(ax, b, 1.0))
    ok, eigen = np.ones(len(M), dtype=bool), None
    if not ax.all():
        (uv[np.tile(~ax, 2)], d[~ax]), eigen, ok[~ax] = _eigen_form(M[~ax])
    return uv, d, ok, (ax, tri, eigen)


def _rotations(d: np.ndarray, ax, tri, eigen):
    """rot (2N rows, Alice's first) and sigma (N, 4, 4) of _diagonal_form's
    values d and pieces, with l = boost(uv) rot and sigma diagonal."""
    n = len(d)
    R1, R2t = eigen if tri is None else _axial_rotations(*tri)
    if tri is not None and eigen is not None:  # eigen: the rows off ax
        R1[~ax], R2t[~ax] = eigen
    # values descending, as gesdd leaves them, then those equal to _EIG_RTOL
    # sigma0 in the order of the axes their directions lie along, so
    # Gisin-type states keep diagonal filters
    rows = np.arange(n)[:, None]
    first = np.argsort(-d[:, 1:], axis=-1, kind="stable")
    s = d[rows, 1 + first]
    key = np.abs(R1).argmax(axis=-2)[rows, first]
    key[:, 1:] += 3 * (s[:, :-1] - s[:, 1:] > _EIG_RTOL * d[:, :1]).cumsum(-1)
    order = first[rows, key.argsort(kind="stable")]
    s = d[rows, 1 + order]
    # row i: the directions of s[i]
    R = np.array([R1.swapaxes(-1, -2), R2t])[:, rows, order]
    # proper rotations; each reflection signs the last value
    sign = np.where(np.linalg.det(R) < 0, -1.0, 1.0)
    R[:, :, 2] *= sign[..., None]
    s[:, 2] *= sign[0] * sign[1]
    sigma = np.zeros((n, 4, 4))
    sigma[:, 0, 0] = d[:, 0]
    sigma.reshape(n, 16)[:, 5::5] = s
    return R.swapaxes(-1, -2).reshape(-1, 3, 3), sigma


def _rotation_to(r: np.ndarray) -> np.ndarray:
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
    RA = _rotation_to(-n[1:] if n[0] >= 0 else n[1:])
    RB = _rotation_to((M.T @ _G @ RA @ _E_MINUS)[1:])
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


# route codes of _forms: _DIAG and _BELL rows are filterable
_DIAG, _BELL, _XF, _PRODUCT, _TRIVIAL = range(5)
# entry by entry, how close M is to diagonal, to the maximally mixed state's
# or to a pure product (1, r)(1, s)^T, |M|_F^2 = 4, to take that route
_ROUTE_TOL = 1e-12
_OFF_DIAGONAL = 1.0 - _I4.ravel()
_MIXED = np.diag(_I4[0])


def _forms(M: np.ndarray):
    """Route codes of a stack M (N, 4, 4) and _diagonal_form's uv, d and
    pieces on its N rows (pieces None where no row is _DIAG-bound). Other
    rows enter _diagonal_form as the maximally mixed state, whose closed
    form is u = v = e0 exactly, and carry d = the diagonal of M, so a
    Bell-diagonal M is its own Diagonal form; _XF rows hold finite values
    of no meaning, which a caller masks."""
    m = M.reshape(-1, 16)
    bell = np.abs(m * _OFF_DIAGONAL).max(axis=-1) < _ROUTE_TOL
    route = np.where(bell, _BELL, _DIAG)
    route[bell & (np.abs(m[:, ::5] - _I4[0]).max(axis=-1)
                  < _ROUTE_TOL)] = _TRIVIAL
    # the product test only on the pure rows, |M|_F^2 = 4
    product = (m * m).sum(-1) > 4.0 - _ROUTE_TOL
    if product.any():
        P = M[product]
        product[product] = (np.abs(P - P[:, :, :1] * P[:, :1, :])
                            .max(axis=(-2, -1)) < _ROUTE_TOL)
    route[product] = _PRODUCT
    other = route != _DIAG
    if other.all():  # _diagonal_form on no rows costs about 130 us
        return route, np.repeat(_I4[:1], 2 * len(M), 0), m[:, ::5].copy(), None
    Mx = M.copy()
    Mx[other] = _MIXED
    uv, d, ok, pieces = _diagonal_form(Mx)
    d[other] = m[other, ::5]
    route[~(other | ok)] = _XF
    return route, uv, d, pieces


# the X pattern of every pure product state
_PRODUCT_PARAMS = (1.0, 1.0, 1.0, 0.0)


def _x_params(sigma: np.ndarray) -> tuple:
    # the (a, b, c, d) of an X-patterned sigma
    return tuple(float(sigma[i, j]) + 0.0
                 for i, j in ((0, 0), (0, 3), (3, 0), (1, 1)))


def normal_form(m: MuellerMatrix) -> NormalForm:
    """Decompose m = l1 . sigma . l2^T under proper orthochronous transforms.

    Almost every state yields kind=Diagonal. States that no pair of boosts
    whitens (a measure-zero set, pure product states among them) yield
    kind=XForm with the (a, b, c, d) pattern parameters of the fixed member
    the module docstring names. The maximally mixed state is rejected.
    """
    M = np.asarray(m.m, dtype=float)
    route, uv, d, pieces = _forms(M[None])
    if route[0] == _BELL:
        return NormalForm(kind=DIAGONAL, l1=_I4, l2=_I4, sigma=M)
    if route[0] == _DIAG:
        rot, sigma = _rotations(d, *pieces)
        L = _boost(uv) @ _spatial(rot)
        return NormalForm(kind=DIAGONAL, l1=L[0], l2=L[1], sigma=sigma[0])
    if route[0] == _TRIVIAL:
        raise TrivialNormalFormError("normal form undefined/trivial")
    if route[0] == _PRODUCT:
        # M = (1, r)(1, s)^T with unit r and s, which is the X pattern
        # (1, 1, 1, 0) turned by the rotations taking z to r, s
        return NormalForm(kind=XFORM, l1=_rotation_to(M[1:, 0]),
                          l2=_rotation_to(M[0, 1:]),
                          sigma=np.outer(_E_PLUS, _E_PLUS),
                          xform_params=_PRODUCT_PARAMS)
    L1, L2, sigma = _x_form(M)
    return NormalForm(kind=XFORM, l1=L1, l2=L2, sigma=sigma,
                      xform_params=_x_params(sigma))


# ---------------------------------------------------------------------------
# filters

def _filter_pair(parts) -> FilterPair:
    # the filters of _filtered_state's uv, rot, which map the state onto its
    # Diagonal form: l = boost(w) R has the inverse R^T boost(G w), whose
    # filter is U(R^T) H(G w) / sqrt(w0 + |w|). Each has unit operator norm,
    # which maximizes p_succ without changing the filtered state.
    if parts is None:
        return FilterPair(m1=np.eye(2), n1=np.eye(2))
    uv, rot = parts
    f = _rotation_filter(rot.swapaxes(-1, -2)) @ _boost_filter(uv * _GD)
    return FilterPair(m1=f[0], n1=f[1])


def _filtered_state(m: MuellerMatrix):
    # p_succ of the optimal filters of Mueller matrix m (raising at or below
    # _P_FLOOR), the filtered state's Mueller matrix sigma / sigma0, its
    # correlation_spectrum, and the uv, rot of the filters (None: identities)
    M = m.m
    route, uv, d, pieces = _forms(M[None])
    if route[0] == _TRIVIAL:
        raise TrivialNormalFormError("normal form undefined/trivial")
    if route[0] == _PRODUCT:
        raise XFormError(*_PRODUCT_PARAMS)
    if route[0] == _XF:
        raise XFormError(*_x_params(_x_form(M)[2]))
    if route[0] == _BELL:  # uv = e0 and d = diag M: p = min(M00, 1)
        sigma, parts = M, None
    else:
        rot, sigma = _rotations(d, *pieces)
        sigma, parts = sigma[0], (uv, rot)
    p = _p_succ(uv, d)[0]
    if not p > _P_FLOOR:
        raise ValueError("vanishing success probability")
    d = sigma.diagonal()[1:] / sigma[0, 0]
    axes = np.argsort(-np.abs(d), kind="stable")  # ties in axis order
    d, dirs = d[axes], _I4[1:, 1:][axes]
    spec = _metrics.CorrelationSpectrum(np.abs(d), dirs, dirs,
                                        np.where(d < 0.0, -1.0, 1.0))
    return float(p), sigma / sigma[0, 0], spec, parts


def _p_succ(uv: np.ndarray, d: np.ndarray) -> np.ndarray:
    # p_succ of the filters of _forms' uv and d, over a stack: each has |det
    # f| = 1 / (w0 + |w|); p <= 1, but round-off can put it an ulp above
    w = uv[:, 0] + np.linalg.norm(uv[:, 1:], axis=-1)
    n = len(d)
    return np.minimum(d[:, 0] / (w[:n] * w[n:]), 1.0)


def apply_filters(state: TwoQubitState, pair: FilterPair):
    """Post-selected state (M1 x N1) rho (M1 x N1)^dag / p and its p_succ."""
    K = np.kron(pair.m1, pair.n1)
    out = K @ state.rho @ K.conj().T
    # p <= 1 for filters of norm <= 1; round-off can put it an ulp above
    p = min(float(np.trace(out).real), 1.0)
    if not p > _P_FLOOR:
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
    return _summary(_metrics.correlation_spectrum(state))


def _summary(spec: _metrics.CorrelationSpectrum) -> MetricsSummary:
    km = _metrics.key_rate_symmetric(_metrics.qber(spec, 2))
    return MetricsSummary(spectrum=spec, s_max=_metrics.chsh_max(spec),
                          q=km.q, r_min=km.r_min, distillable=km.distillable,
                          region=_metrics.classify(spec))


def filtered_key_rate(state: TwoQubitState) -> FilterOutcome:
    """Optimal filtering pipeline: filters, filtered spectrum, r = p * r_min.

    r_filtered = p_succ * max(0, r_min(after)), both read off the normal
    form; X-form states raise :class:`XFormError`, the maximally mixed
    state raises :class:`TrivialNormalFormError`.
    """
    before = summarize_metrics(state)
    p, _, spec, parts = _filtered_state(to_mueller(state))
    after = _summary(spec)
    return FilterOutcome(p_succ=p, before=before, after=after,
                         r_filtered=float(p * max(0.0, after.r_min)),
                         filters=_filter_pair(parts))


@dataclass(frozen=True)
class BatchOutcome:
    """:func:`filtered_key_rate` over a stack of N states, as arrays.

    ``lambdas_before`` and ``lambdas_after`` (N, 3) are the
    ``correlation_spectrum`` lambdas before and after filtering;
    ``region_before`` holds :class:`metrics.Region` members. Where
    ``filterable`` is False (the X form, the maximally mixed state),
    ``p_succ`` and ``lambdas_after`` are NaN and ``r_filtered`` is 0.
    """

    lambdas_before: np.ndarray
    region_before: np.ndarray
    filterable: np.ndarray
    p_succ: np.ndarray
    lambdas_after: np.ndarray
    r_filtered: np.ndarray


def filtered_key_rate_batch(rhos) -> BatchOutcome:
    """:func:`filtered_key_rate` over density matrices rhos of shape (N, 4, 4).

    All N states take the route dispatch of :func:`filtered_key_rate` at
    once, for the normal form's values only: verdicts and numbers are its
    own to the bit, the X form and the maximally mixed state are not
    filterable, and a p_succ at or below the p floor raises ValueError. So
    do a trace off 1 by more than validate allows and an entry of M above
    the bound it allows, NaN included: the route tests are absolute bounds,
    for states. Temporaries grow with N, so ``sweep`` passes its cells 256
    at a time.
    """
    M = _states._mueller(np.asarray(rhos, dtype=complex).reshape(-1, 4, 4))
    bad = np.flatnonzero(~(np.abs(M[:, 0, 0] - 1.0) <= _states._TRACE_TOL))
    if len(bad):
        raise ValueError(f"trace != 1 in row {bad[0]}")
    bad = np.flatnonzero(~(np.abs(M).max(axis=(-2, -1)) <= _M_BOUND))
    if len(bad):
        raise ValueError(f"|M| entry above 1 in row {bad[0]}")
    return _batch(M)


def _batch(M: np.ndarray) -> BatchOutcome:
    # filtered_key_rate_batch over Mueller matrices M (N, 4, 4)
    lam = _metrics._lambdas(M)
    route, uv, d, _ = _forms(M)
    ok = route <= _BELL
    p = np.where(ok, _p_succ(uv, d), np.nan)
    if not (p[ok] > _P_FLOOR).all():
        raise ValueError("vanishing success probability")
    # sigma / sigma0 holds the values d[1:] / sigma0 up to order and sign
    lam_after = np.full((len(M), 3), np.nan)
    lam_after[ok] = np.sort(np.abs(d[ok, 1:]) / d[ok, :1], axis=-1)[:, ::-1]
    r = np.where(ok, p * np.maximum(
        0.0, _metrics._r_min(_metrics._qber(lam_after, 2))), 0.0)
    region = _metrics._REGIONS[_metrics._region_index(lam)]
    return BatchOutcome(lam, region, ok, p, lam_after, r)

