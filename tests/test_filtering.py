import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bellqkd import filtering, metrics, states

from conftest import (apply_filters, filtered,
                      filtered_nearly_product_pure_states, haar_su2,
                      lorentz_filter, normal_form, random_density_matrix,
                      random_filter, random_pair_state, random_x_state,
                      sl2c_filters, x_mixture)

G = np.diag([1.0, -1.0, -1.0, -1.0])

GISIN = states.make_family(
    states.FamilySpec(variant="gisin", alpha=0.9, mu=0.85))

# 0.75 phi+ plus 0.25 |01><01| reduces to the non-diagonal pattern
RHO_X = np.array([[0.375, 0, 0, 0.375],
                  [0, 0.25, 0, 0],
                  [0, 0, 0, 0],
                  [0.375, 0, 0, 0.375]], dtype=complex)


def assert_lorentz(L, tol=1e-9):
    """L is proper orthochronous: round-off of L G L^T grows entry by entry
    with |L| |L|^T, that of det L with L00^2, and det > 0 rejects det = -1
    at any L00. The Diagonal l1, l2 stay within 1.5e-15 of these bounds on
    the 200x200 Gisin grid (L00 up to 250) and on filtered pure, nearly
    product states (L00 up to 1.3e4)."""
    A = np.abs(L)
    assert (np.abs(L @ G @ L.T - G) <= tol * np.maximum(1.0, A @ A.T)).all()
    det = np.linalg.det(L)
    assert det > 0.0
    assert abs(det - 1.0) <= tol * max(1.0, L[0, 0] ** 2)
    assert L[0, 0] >= 1.0 - tol


def checked_normal_form(m):
    # normal_form, with its l1 and l2 asserted proper orthochronous
    nf = normal_form(m)
    assert_lorentz(nf.l1)
    assert_lorentz(nf.l2)
    return nf


def assert_filters_work(st):
    # whitened marginals, a probability, and no loss of concurrence
    out, p = apply_filters(st, filtering.filtered_key_rate(st).filters)
    mo = states.to_mueller(out).m
    assert max(np.abs(mo[0, 1:]).max(), np.abs(mo[1:, 0]).max()) < 1e-9
    assert 0.0 < p <= 1.0
    assert filtering.concurrence(out) >= filtering.concurrence(st) - 1e-9


# ---------------------------------------------------------------------------
# double cover

def test_filter_to_lorentz_identity():
    L = filtering._lorentz(np.eye(2))
    assert np.abs(L - np.eye(4)).max() < 1e-12


def test_filter_to_lorentz_z_boost():
    L = filtering._lorentz(np.diag([1.0, 0.5]))
    expect = np.array([[1.25, 0, 0, 0.75],
                       [0, 1, 0, 0],
                       [0, 0, 1, 0],
                       [0.75, 0, 0, 1.25]])
    assert np.abs(L - expect).max() < 1e-12
    # scaling the filter changes nothing: the map is det-normalized
    L2 = filtering._lorentz(np.diag([1.0, 0.5]) * 3.7j)
    assert np.abs(L2 - expect).max() < 1e-12


def test_lorentz_to_filter_z_boost():
    f = lorentz_filter(np.array(
        [[1.25, 0, 0, 0.75], [0, 1, 0, 0], [0, 0, 1, 0], [0.75, 0, 0, 1.25]]))
    assert np.abs(np.abs(f) - np.diag([1.0, 0.5])).max() < 1e-10
    assert abs(np.linalg.norm(f, 2) - 1.0) < 1e-12


def _rotation(axis, angle) -> np.ndarray:
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * K @ K


def _boost_along(axis, l00) -> np.ndarray:
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    B = np.eye(4)
    B[0, 0] = l00
    B[0, 1:] = B[1:, 0] = np.sqrt(l00 * l00 - 1.0) * n
    B[1:, 1:] += (l00 - 1.0) * np.outer(n, n)
    return B


def test_lorentz_to_filter_rotations_by_pi_and_boosts():
    """_filter_pair's closed form holds where the quaternion has q0 = 0
    (trace R = -1) and for boosts after rotations up to L00 = 250."""
    rng = np.random.default_rng(41)
    axes = [[1, 0, 0], [0, 1, 0], [0, 0, 1], rng.normal(size=3)]
    rotations = [_rotation(a, np.pi) for a in axes]
    rotations += [_rotation(rng.normal(size=3), rng.uniform(0, 2 * np.pi))
                  for _ in range(20)]
    cases = []
    for R in rotations:
        for l00 in (1.0, 1.5, 30.0, 250.0):
            S = np.eye(4)
            S[1:, 1:] = R
            cases.append(_boost_along(rng.normal(size=3), l00) @ S)
    for L in cases:
        assert_lorentz(L)
        f = lorentz_filter(L)
        assert abs(np.linalg.norm(f, 2) - 1.0) < 1e-12
        back = filtering._lorentz(f)
        assert np.abs(back - L).max() < 1e-12 * L[0, 0] ** 2


def test_double_cover_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(200):
        f = random_filter(rng, min_det=0.05)
        L = filtering._lorentz(f)
        assert_lorentz(L)
        g = lorentz_filter(L)
        # proportional up to phase
        overlap = abs(np.vdot(g, f)) / (np.linalg.norm(g) * np.linalg.norm(f))
        assert overlap > 1 - 1e-8


def test_double_cover_group_law():
    rng = np.random.default_rng(37)
    for _ in range(100):
        f, g = random_filter(rng), random_filter(rng)
        lhs = filtering._lorentz(f @ g)
        rhs = filtering._lorentz(f) @ filtering._lorentz(g)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_filter_pair_norm_bound():
    with pytest.raises(ValueError):
        filtering.FilterPair(m1=np.eye(2) * 1.5, n1=np.eye(2))
    pair = filtering.FilterPair(m1=np.eye(2), n1=np.eye(2) * 0.5)
    assert np.abs(pair.n1 - np.eye(2) * 0.5).max() == 0


def test_norm_check_closed_form():
    """The closed-form norm check passes unitaries, stacked and through
    FilterPair, fails a norm of 1 + 1e-9 and NaN entries, and puts the
    bound where the SVD's top singular value puts it, to 1e-14 relative."""
    rng = np.random.default_rng(23)
    u = np.array([haar_su2(rng) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(2000)])
    assert filtering._norm_ok(u).all()
    for a, b in zip(u[:100], u[100:200]):
        filtering.FilterPair(m1=a, n1=b)
    over = u * (1.0 + 1e-9)
    assert not filtering._norm_ok(over).any()
    with pytest.raises(ValueError):
        filtering.FilterPair(m1=u[0], n1=over[1])
    assert not filtering._norm_ok(np.full((2, 2), np.nan))
    f = rng.normal(size=(2000, 2, 2)) + 1j * rng.normal(size=(2000, 2, 2))
    f /= np.linalg.svd(f, compute_uv=False)[:, 0, None, None]
    bound = 1.0 + filtering._NORM_TOL
    assert filtering._norm_ok(f * (bound * (1.0 - 1e-14))).all()
    assert not filtering._norm_ok(f * (bound * (1.0 + 1e-14))).any()


# ---------------------------------------------------------------------------
# normal form

def test_normal_form_bell_diagonal_is_trivial_decomposition():
    m = states.to_mueller(states.make_family(
        states.FamilySpec(variant="werner", p=0.9)))
    nf = checked_normal_form(m)
    assert nf.kind == "Diagonal"
    assert np.abs(nf.l1 - np.eye(4)).max() < 1e-12
    assert np.abs(nf.l2 - np.eye(4)).max() < 1e-12
    assert np.abs(nf.sigma - m.m).max() < 1e-12
    assert nf.xform_params is None


def test_normal_form_gisin_reference():
    m = states.to_mueller(GISIN)
    nf = checked_normal_form(m)
    assert nf.kind == "Diagonal"
    assert np.abs(nf.l1 @ nf.sigma @ nf.l2.T - m.m).max() < 1e-8
    diag = np.diag(nf.sigma)
    assert np.abs(nf.sigma - np.diag(diag)).max() < 1e-8
    assert diag[0] > 0
    lam = np.sort(np.abs(diag[1:]) / diag[0])[::-1]
    assert abs(lam[0] + lam[1] - 1.632763174576239) < 1e-9
    assert abs(lam[0] ** 2 + lam[1] ** 2 - 1.3329577921261389) < 1e-9


def test_normal_form_construct_invert():
    """Random filters applied to a random Bell-diagonal state are undone."""
    rng = np.random.default_rng(41)
    for _ in range(150):
        lam = np.sort(rng.uniform(0.05, 1.0, size=3))[::-1]
        t = lam * rng.choice([-1.0, 1.0], size=3)
        st = states.from_mueller(states.MuellerMatrix(np.diag([1.0, *t])))
        pair = filtering.FilterPair(m1=random_filter(rng),
                                    n1=random_filter(rng))
        out, _ = apply_filters(st, pair)
        nf = checked_normal_form(states.to_mueller(out))
        assert nf.kind == "Diagonal"
        got = np.sort(np.abs(np.diag(nf.sigma)[1:] / nf.sigma[0, 0]))[::-1]
        assert np.abs(got - lam).max() < 1e-7


def test_normal_form_maximally_mixed_rejected():
    mixed = states.TwoQubitState(np.eye(4, dtype=complex) / 4)
    with pytest.raises(filtering.TrivialNormalFormError,
                       match="normal form undefined/trivial"):
        normal_form(states.to_mueller(mixed))


def test_normal_form_x_pattern():
    """RHO_X's own Mueller matrix, turned by pi on each side, is the form.

    A boost along z on each side keeps the X pattern, so (a, b, c) are one
    member of a family; the construction fixes the member with no boost
    along either null direction. Every member shares d and d^2 = (a+c)(a-b).
    """
    m = states.to_mueller(states.TwoQubitState(RHO_X))
    nf = checked_normal_form(m)
    assert nf.kind == "XForm"
    a, b, c, d = nf.xform_params
    assert abs(a - 1.0) < 1e-9
    assert abs(b - 0.25) < 1e-9
    assert abs(c - (-0.25)) < 1e-9
    assert abs(d - (-0.75)) < 1e-9
    assert abs((a + c) * (a - b) - 0.5625) < 1e-9
    assert np.abs(nf.l1 - np.diag([1.0, -1.0, 1.0, -1.0])).max() < 1e-9
    assert np.abs(nf.l2 - np.diag([1.0, 1.0, -1.0, -1.0])).max() < 1e-9
    S = nf.sigma
    pattern = np.array([[a, 0, 0, b],
                        [0, d, 0, 0],
                        [0, 0, -d, 0],
                        [c, 0, 0, a + c - b]])
    assert np.abs(S - pattern).max() < 1e-8
    assert np.abs(nf.l1 @ S @ nf.l2.T - m.m).max() < 1e-8


def test_x_pattern_pure_product_degenerate():
    v = np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2)
    st = states.TwoQubitState(np.outer(v, v).astype(complex))
    nf = checked_normal_form(states.to_mueller(st))
    assert nf.kind == "XForm"
    assert abs(nf.xform_params[3]) < 1e-12  # d = 0 flags separability


def test_normal_form_pure_products_are_x_pattern():
    """Random complex pure products reduce to the X pattern (1, 1, 1, 0)."""
    rng = np.random.default_rng(59)
    e = np.array([1.0, 0.0, 0.0, 1.0])
    for _ in range(300):
        a, b = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in "ab")
        v = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        m = states.to_mueller(states.TwoQubitState(np.outer(v, v.conj())))
        nf = checked_normal_form(m)
        assert nf.kind == "XForm"
        assert nf.xform_params == (1.0, 1.0, 1.0, 0.0)
        assert np.abs(nf.sigma - np.outer(e, e)).max() == 0
        assert np.abs(nf.l1 @ nf.sigma @ nf.l2.T - m.m).max() < 1e-8


def test_normal_form_pure_times_mixed_products_are_x_pattern():
    """A pure marginal stays pure under filtering: separable X forms."""
    rng = np.random.default_rng(79)
    for k in range(300):
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pure = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
        mixed = x @ x.conj().T / np.trace(x @ x.conj().T).real
        rho = np.kron(pure, mixed) if k % 2 else np.kron(mixed, pure)
        m = states.to_mueller(states.TwoQubitState(rho))
        nf = checked_normal_form(m)
        assert nf.kind == "XForm", k
        a, b, c, d = nf.xform_params
        assert abs(d) < 1e-9
        pattern = np.array([[a, 0, 0, b], [0, 0, 0, 0], [0, 0, 0, 0],
                            [c, 0, 0, a + c - b]])
        assert np.abs(nf.sigma - pattern).max() < 1e-6, k
        assert np.abs(nf.l1 @ nf.sigma @ nf.l2.T - m.m).max() < 1e-8


def test_normal_form_properties_rank_1_to_4():
    """Every Diagonal result is a valid decomposition whose filters work."""
    rng = np.random.default_rng(61)
    for k in range(400):
        st = states.TwoQubitState(random_density_matrix(rng, rank=k % 4 + 1))
        m = states.to_mueller(st)
        nf = checked_normal_form(m)
        assert nf.kind == "Diagonal", k
        assert np.abs(nf.l1 @ nf.sigma @ nf.l2.T - m.m).max() < 1e-8
        sig = np.diag(nf.sigma)
        assert np.abs(nf.sigma - np.diag(sig)).max() == 0
        # magnitudes descending (ties in any order), only the last signed
        assert sig[0] > 0 and sig[1] >= 0 and sig[2] >= 0
        assert np.diff(np.abs(sig[1:])).max() < 1e-12
        assert_filters_work(st)


_PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


# Werner p below 1e-12 is the maximally mixed state to normal_form, which
# rejects it; near the pure-product corner of the Gisin family, filters
# stronger than these leave marginals above 1e-9 (CHANGES.md, FOUND).
@_PROPERTY
@given(p=hst.floats(1e-9, 1.0), f=sl2c_filters(), g=sl2c_filters())
def test_filtered_werner_is_diagonal(p, f, g):
    rho = states.make_family(states.FamilySpec(variant="werner", p=p)).rho
    st = states.TwoQubitState(filtered(rho, f, g))
    assert checked_normal_form(states.to_mueller(st)).kind == "Diagonal"
    assert_filters_work(st)


@_PROPERTY
@given(alpha=hst.floats(0.01, 0.99), mu=hst.floats(0.01, 1.0),
       f=sl2c_filters(), g=sl2c_filters())
def test_filtered_gisin_is_diagonal(alpha, mu, f, g):
    rho = states.make_family(
        states.FamilySpec(variant="gisin", alpha=alpha, mu=mu)).rho
    st = states.TwoQubitState(filtered(rho, f, g))
    assert checked_normal_form(states.to_mueller(st)).kind == "Diagonal"
    assert_filters_work(st)


@_PROPERTY
@given(lam=hst.floats(0.05, 0.95), slot=hst.sampled_from([1, 2]),
       f=sl2c_filters(), g=sl2c_filters())
def test_filtered_x_mixture_is_xform(lam, slot, f, g):
    st = states.TwoQubitState(filtered(x_mixture(lam, slot), f, g))
    assert checked_normal_form(states.to_mueller(st)).kind == "XForm"


def test_normal_form_x_mixtures_filtered_and_not():
    """Local filtering keeps a state X-patterned; every one reduces to it."""
    rng = np.random.default_rng(71)
    for k in range(1000):
        rho = x_mixture(rng.uniform(0.05, 0.95), 1 + k % 2)
        pair = (random_filter(rng, 0.05), random_filter(rng, 0.05))
        for r in (rho, filtered(rho, *pair)):
            m = states.to_mueller(states.TwoQubitState(r))
            nf = checked_normal_form(m)
            assert nf.kind == "XForm", k
            assert np.abs(nf.l1 @ nf.sigma @ nf.l2.T - m.m).max() < 1e-8
            a, b, c, d = nf.xform_params
            pattern = np.array([[a, 0, 0, b], [0, d, 0, 0], [0, 0, -d, 0],
                                [c, 0, 0, a + c - b]])
            assert np.abs(nf.sigma - pattern).max() < 1e-6, k
            assert abs(d * d - (a + c) * (a - b)) <= 1e-9 * d * d, k


# ---------------------------------------------------------------------------
# optimal filtering

def test_optimal_filters_gisin():
    pair = filtering.filtered_key_rate(GISIN).filters
    for f in (pair.m1, pair.n1):
        assert abs(np.linalg.norm(f, 2) - 1.0) < 1e-12
        assert abs(np.linalg.det(f)) > 1e-12
    # diagonal filters that squeeze the dominant amplitude on each side
    t = 0.6959325433541509
    assert np.abs(np.abs(pair.m1) - np.diag([t, 1.0])).max() < 1e-9
    assert np.abs(np.abs(pair.n1) - np.diag([1.0, t])).max() < 1e-9


def test_optimal_filters_bell_diagonal_identity():
    w = states.make_family(states.FamilySpec(variant="werner", p=0.9))
    pair = filtering.filtered_key_rate(w).filters
    assert np.abs(pair.m1 - np.eye(2)).max() == 0
    assert np.abs(pair.n1 - np.eye(2)).max() == 0


def test_optimal_filters_xform_error_carries_params():
    with pytest.raises(filtering.XFormError) as exc:
        filtering.filtered_key_rate(states.TwoQubitState(RHO_X))
    e = exc.value
    assert abs(e.a - 1.0) < 1e-9
    assert abs(e.b - 0.25) < 1e-9
    assert abs(e.c - (-0.25)) < 1e-9
    assert abs(e.d - (-0.75)) < 1e-9
    assert abs((e.a + e.c) * (e.a - e.b) - e.d ** 2) < 1e-9
    assert not e.separable
    assert "separable" not in str(e)


def test_xform_error_separable_note_when_d_zero():
    v = np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2)
    st = states.TwoQubitState(np.outer(v, v).astype(complex))
    with pytest.raises(filtering.XFormError) as exc:
        filtering.filtered_key_rate(st)
    assert exc.value.separable
    assert "d=0 corresponds to a separable initial state" in str(exc.value)


def test_optimal_filters_xform_error_matches_normal_form():
    """The filter path raises without a second normal form: its XFormError
    carries the fields and message normal_form's xform_params give, on X
    states of rank 2 and 3, filtered and not, and on pure products."""
    rng = np.random.default_rng(83)
    rhos = [RHO_X]
    for k in range(40):
        lam, slot = rng.uniform(0.05, 0.95), 1 + k % 2
        # part of the |01> or |10> weight moved onto |00>: rank 3
        rank3 = x_mixture(lam, slot)
        shift = rng.uniform(0.05, 0.5) * (1.0 - lam)
        rank3[0, 0] += shift
        rank3[slot, slot] -= shift
        for r in (x_mixture(lam, slot), rank3):
            rhos += [r, filtered(r, random_filter(rng, 0.05),
                                 random_filter(rng, 0.05))]
        a, b = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in "ab")
        v = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        rhos.append(np.outer(v, v.conj()))
    ranks = set()
    for rho in rhos:
        st = states.TwoQubitState(rho)
        ranks.add(int(np.linalg.matrix_rank(rho, tol=1e-9)))
        want = filtering.XFormError(
            *checked_normal_form(states.to_mueller(st)).xform_params)
        with pytest.raises(filtering.XFormError) as exc:
            filtering.filtered_key_rate(st)
        e = exc.value
        assert (e.a, e.b, e.c, e.d, e.separable, str(e)) == (
            want.a, want.b, want.c, want.d, want.separable, str(want))
    assert ranks == {1, 2, 3}
    mixed = states.TwoQubitState(np.eye(4, dtype=complex) / 4)
    with pytest.raises(filtering.TrivialNormalFormError,
                       match="normal form undefined/trivial"):
        filtering.filtered_key_rate(mixed)


def test_full_rank_product_state_stays_unentangled():
    rho = np.kron(np.diag([0.6, 0.4]),
                  np.array([[0.55, 0.1], [0.1, 0.45]])).astype(complex)
    st = states.TwoQubitState(rho)
    assert filtering.concurrence(st) < 1e-12
    try:
        pair = filtering.filtered_key_rate(st).filters
    except filtering.XFormError as e:
        assert abs(e.d) < 1e-9
        return
    out, _ = apply_filters(st, pair)
    assert filtering.concurrence(out) < 1e-9


def test_apply_filters_identity():
    out, p = apply_filters(
        GISIN, filtering.FilterPair(m1=np.eye(2), n1=np.eye(2)))
    assert p == 1.0
    assert np.abs(out.rho - GISIN.rho).max() < 1e-15


def test_apply_filters_gisin_reference():
    pair = filtering.filtered_key_rate(GISIN).filters
    out, p = apply_filters(GISIN, pair)
    assert abs(p - 0.3956483157256776) < 1e-9
    assert states.validate(out).ok
    spec = metrics.correlation_spectrum(out)
    assert metrics.chsh_max(spec) > 2.0
    assert metrics.qber(spec, 2) < metrics.q_crit()


def test_concurrence_transformation_law():
    """C(rho') * p_succ == C(rho) * |det M||det N| for any local filtering."""
    rng = np.random.default_rng(43)
    for _ in range(500):
        st = states.TwoQubitState(random_density_matrix(rng))
        pair = filtering.FilterPair(m1=random_filter(rng, 0.05),
                                    n1=random_filter(rng, 0.05))
        out, p = apply_filters(st, pair)
        lhs = filtering.concurrence(out) * p
        rhs = (filtering.concurrence(st)
               * abs(np.linalg.det(pair.m1)) * abs(np.linalg.det(pair.n1)))
        assert abs(lhs - rhs) < 1e-9


def test_mueller_path_consistency():
    """Filtering in state space matches the Lorentz action on Mueller matrices."""
    rng = np.random.default_rng(47)
    for _ in range(100):
        st = states.TwoQubitState(random_density_matrix(rng))
        pair = filtering.FilterPair(m1=random_filter(rng),
                                    n1=random_filter(rng))
        out, _ = apply_filters(st, pair)
        la = filtering._lorentz(pair.m1)
        lb = filtering._lorentz(pair.n1)
        expect = la @ states.to_mueller(st).m @ lb.T
        expect = expect / expect[0, 0]
        assert np.abs(states.to_mueller(out).m - expect).max() < 1e-8


def test_local_unitaries_preserve_spectrum_and_concurrence():
    rng = np.random.default_rng(53)
    for _ in range(50):
        st = states.TwoQubitState(random_density_matrix(rng))
        # Haar-ish unitaries from QR
        qa, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        qb, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        out, p = apply_filters(st, filtering.FilterPair(m1=qa, n1=qb))
        assert abs(p - 1.0) < 1e-12
        assert abs(filtering.concurrence(out) - filtering.concurrence(st)) < 1e-10
        a = metrics.correlation_spectrum(st).lambdas
        b = metrics.correlation_spectrum(out).lambdas
        assert np.abs(a - b).max() < 1e-10


def test_filtering_uplifts_chsh_on_gisin_grid():
    for alpha in np.linspace(0.15, 0.95, 15):
        for mu in np.linspace(0.1, 0.99, 15):
            st = states.make_family(
                states.FamilySpec(variant="gisin", alpha=alpha, mu=mu))
            out = filtering.filtered_key_rate(st)
            before = metrics.chsh_max(out.before.spectrum)
            after = metrics.chsh_max(out.after.spectrum)
            assert after >= before - 1e-9, (alpha, mu)


# ---------------------------------------------------------------------------
# entanglement measures

def test_concurrence_known_values():
    assert abs(filtering.concurrence(states.bell_state("psi-")) - 1.0) < 1e-12
    mixed = states.TwoQubitState(np.eye(4, dtype=complex) / 4)
    assert filtering.concurrence(mixed) == 0.0
    w = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    assert abs(filtering.concurrence(w) - 0.7) < 1e-8  # (3p-1)/2
    assert abs(filtering.concurrence(GISIN) - 0.5169115383617229) < 1e-8


def test_concurrence_gisin_closed_form():
    """Full precision on rank-deficient states: C = max(0, 2 mu a b - (1 - mu))."""
    for alpha in np.linspace(0.01, 0.99, 30):
        beta = np.sqrt(1.0 - alpha ** 2)
        for mu in np.linspace(0.01, 1.0, 30):
            st = states.make_family(
                states.FamilySpec(variant="gisin", alpha=alpha, mu=mu))
            expect = max(0.0, 2 * mu * alpha * beta - (1 - mu))
            assert abs(filtering.concurrence(st) - expect) < 1e-12


def test_concurrence_werner_closed_form():
    for p in np.linspace(0.0, 1.0, 21):
        w = states.make_family(states.FamilySpec(variant="werner", p=p))
        expect = max(0.0, (3 * p - 1) / 2)
        assert abs(filtering.concurrence(w) - expect) < 1e-8


def test_entanglement_of_formation():
    assert filtering.entanglement_of_formation(1.0) == 1.0
    assert filtering.entanglement_of_formation(0.0) == 0.0
    c = np.linspace(0.01, 0.99, 50)
    e = [filtering.entanglement_of_formation(x) for x in c]
    assert all(0 < x < 1 for x in e)
    assert all(x < y for x, y in zip(e, e[1:]))  # strictly increasing in C
    with pytest.raises(ValueError):
        filtering.entanglement_of_formation(1.2)
    with pytest.raises(ValueError):
        filtering.entanglement_of_formation(-0.1)


def test_entanglement_report_consistency():
    rep = filtering.entanglement_report(GISIN)
    assert abs(rep.concurrence - 0.5169115383617229) < 1e-8
    assert abs(rep.eof - 0.3732717297440843) < 1e-8
    x = (1 + np.sqrt(1 - rep.concurrence ** 2)) / 2
    h = -x * np.log2(x) - (1 - x) * np.log2(1 - x)
    assert abs(rep.eof - h) < 1e-12
    sep = filtering.entanglement_report(
        states.TwoQubitState(np.eye(4, dtype=complex) / 4))
    assert sep.concurrence == 0.0 and sep.eof == 0.0


# ---------------------------------------------------------------------------
# full pipeline

def test_filtered_key_rate_gisin_reference():
    out = filtering.filtered_key_rate(GISIN)
    assert abs(out.p_succ - 0.3956483157256776) < 1e-9
    assert abs(out.after.r_min - 0.11503989025332384) < 1e-9
    assert abs(out.r_filtered - 0.04551533881999437) < 1e-9
    assert abs(out.r_filtered - out.p_succ * max(0.0, out.after.r_min)) < 1e-15
    assert out.before.region.value == "NonviolatingUnusable"
    assert out.after.region.value == "ViolatingUsable"
    assert not out.before.distillable
    assert out.after.distillable


def test_filtered_key_rate_pure_state_oracle():
    """On pure states p_succ is the optimal single-copy concentration
    2 lam_min^2, lam_min the smaller Schmidt coefficient (Vidal, PRL 83,
    1046, 1999). The 1e-12 bound grows as 1/lam_min^2 below lam_min = 0.03:
    nearly product states condition p_succ so (3.3e-12 at lam_min 2.7e-3).
    The same holds on the batch path for the pure Gisin states gisin(alpha,
    1), whose lam_min is min(alpha, beta), through the closed forms."""
    rng = np.random.default_rng(97)
    for k in range(300):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        lam_min = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)[-1]
        out = filtering.filtered_key_rate(
            states.TwoQubitState(np.outer(psi, psi.conj())))
        rtol = 1e-12 * max(1.0, (0.03 / lam_min) ** 2)
        assert abs(out.p_succ / (2.0 * lam_min ** 2) - 1.0) < rtol, k
    al = np.linspace(0.002, 0.998, 2000)
    out = filtering._batch(states._gisin_m(al, 1.0))
    lam_min = np.minimum(al, np.sqrt(1.0 - al * al))
    rtol = 1e-12 * np.maximum(1.0, (0.03 / lam_min) ** 2)
    assert (np.abs(out.p_succ / (2.0 * lam_min ** 2) - 1.0) < rtol).all()


def test_filtered_nearly_product_pure_states_get_filters():
    """Filters come from the normal form's boosts and rotations, and
    normal_form builds l1, l2 from the same pieces: with L00 up to 1.3e4,
    their Lorentz residuals are round-off at the scale of L00^2, within the
    relative bounds of assert_lorentz, so every Diagonal state gets both.

    Every pure entangled state has a Diagonal form, so all 398 get filters,
    with Vidal's p_succ = 2 lam_min^2. The filtered marginals carry the
    round-off of boosts that grow as 1 / lam_min^2: 1e-7 bounds them down to
    lam_min^2 = 1e-9, and the bound grows as 1 / lam_min^2 below that (one
    of the 398 states, at lam_min^2 = 2.2e-10)."""
    rhos = filtered_nearly_product_pure_states(np.random.default_rng(7), 398)
    diagonal = 0
    for k, rho in enumerate(rhos):
        st = states.TwoQubitState(rho)
        try:
            out = filtering.filtered_key_rate(st)
        except filtering.XFormError:
            continue
        diagonal += 1
        assert checked_normal_form(
            states.to_mueller(st)).kind == filtering.DIAGONAL, k
        psi = np.linalg.eigh(rho)[1][:, -1]
        lam_min = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)[-1]
        assert abs(out.p_succ / (2.0 * lam_min ** 2) - 1.0) < 1e-6, k
        mo = states.to_mueller(apply_filters(st, out.filters)[0]).m
        bound = 1e-7 * max(1.0, 1e-9 / lam_min ** 2)
        assert max(np.abs(mo[0, 1:]).max(), np.abs(mo[1:, 0]).max()) <= bound, k
    assert diagonal == 398


def test_filtered_key_rate_singlet():
    out = filtering.filtered_key_rate(states.bell_state("psi-"))
    assert abs(out.p_succ - 1.0) < 1e-12
    assert abs(out.r_filtered - 1.0) < 1e-12
    assert np.abs(out.filters.m1 - np.eye(2)).max() == 0


def test_filtered_key_rate_bell_diagonal_identity_path():
    w = states.make_family(states.FamilySpec(variant="werner", p=0.95))
    out = filtering.filtered_key_rate(w)
    assert abs(out.p_succ - 1.0) < 1e-12
    assert np.abs(np.asarray(out.before.spectrum.lambdas)
                  - np.asarray(out.after.spectrum.lambdas)).max() < 1e-12
    assert out.before.region == out.after.region
    assert abs(out.r_filtered - max(0.0, out.before.r_min)) < 1e-12


def test_filtered_key_rate_propagates_xform():
    with pytest.raises(filtering.XFormError):
        filtering.filtered_key_rate(states.TwoQubitState(RHO_X))


# ---------------------------------------------------------------------------
# the batch

def test_batch_equals_scalar(monkeypatch):
    """filtered_key_rate_batch agrees with filtered_key_rate state by state,
    bit for bit: both read p_succ and the filtered spectrum off the normal
    form by the same formulas, and normal_form gives the same verdict.

    The X form and the maximally mixed state are verdicts (not filterable).
    A success probability at or below _P_FLOOR is an error on both paths:
    with the floor raised to 1, the Werner state's p_succ of 1 meets it.
    """
    rng = np.random.default_rng(89)
    grid = [states.make_family(states.FamilySpec(
        variant="gisin", alpha=float(a), mu=float(m))).rho
        for a in np.linspace(0.002, 0.998, 50)
        for m in np.linspace(0.01, 1.0, 50)]
    randoms = [random_density_matrix(rng, rank=k % 4 + 1) for k in range(200)]
    x_states = [filtered(x_mixture(rng.uniform(0.05, 0.95), 1 + k % 2),
                         random_filter(rng, 0.05), random_filter(rng, 0.05))
                for k in range(20)]
    # axial states: random X states take the closed forms on both paths,
    # unfiltered X mixtures the eigenspace route
    axial = [random_x_state(rng) for _ in range(40)]
    x_plain = [x_mixture(rng.uniform(0.05, 0.95), 1 + k % 2) for k in range(6)]
    # pair states, closed forms on both paths: pure, rank-2, and diagonal
    # (diag(a, 0, 0, d) and diag(0, b, c, 0), no coherence)
    pairs = [random_pair_state(rng, k % 2, c)
             for k, c in enumerate((1.0, 1.0, 0.6, 0.3, 0.0, 0.0))]
    products = [np.diag([0.0, 1.0, 0.0, 0.0]),
                np.kron(np.outer([0.6, 0.8j], [0.6, -0.8j]),
                        np.outer([1.0, 1.0], [1.0, 1.0]) / 2),
                np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)]
    werner = states.make_family(states.FamilySpec(variant="werner", p=0.7))
    special = [werner.rho, np.eye(4) / 4, *products]
    rhos = np.array(grid + randoms + x_states + axial + x_plain + pairs
                    + special + filtered_nearly_product_pure_states(
                        np.random.default_rng(3), 10))
    werner_row = len(grid + randoms + x_states + axial + x_plain + pairs)
    verdicts, trivial = {}, []
    for i, rho in enumerate(rhos):
        st = states.TwoQubitState(rho)
        m = states.to_mueller(st)
        try:
            verdicts[i] = filtering.filtered_key_rate(st)
        except filtering.XFormError:
            verdicts[i] = None
            assert checked_normal_form(m).kind == filtering.XFORM, i
            continue
        except filtering.TrivialNormalFormError:
            verdicts[i] = None
            trivial.append(i)
            with pytest.raises(filtering.TrivialNormalFormError):
                normal_form(m)
            continue
        assert checked_normal_form(m).kind == filtering.DIAGONAL, i
    assert None in verdicts.values() and trivial == [werner_row + 1]
    nf = checked_normal_form(states.to_mueller(werner))
    assert np.array_equal(nf.l1, np.eye(4))
    assert np.array_equal(nf.l2, np.eye(4))
    assert np.array_equal(nf.sigma, states.to_mueller(werner).m)
    with monkeypatch.context() as patched:
        patched.setattr(filtering, "_P_FLOOR", 1.0)
        for call in (lambda: filtering.filtered_key_rate(werner),
                     lambda: filtering.filtered_key_rate_batch(
                         rhos[werner_row:werner_row + 1]),
                     lambda: filtering.filtered_key_rate_batch(rhos)):
            with pytest.raises(ValueError,
                               match="^vanishing success probability$"):
                call()
    batch = filtering.filtered_key_rate_batch(rhos)
    for i, want in verdicts.items():
        assert batch.filterable[i] == (want is not None), i
        before = metrics.correlation_spectrum(states.TwoQubitState(rhos[i]))
        assert np.array_equal(batch.lambdas_before[i], before.lambdas), i
        assert batch.region_before[i] is metrics.classify(before), i
        if want is None:
            assert np.isnan(batch.p_succ[i]) and batch.r_filtered[i] == 0.0
            assert np.isnan(batch.lambdas_after[i]).all()
            continue
        got = np.array([batch.p_succ[i], batch.r_filtered[i],
                        *batch.lambdas_after[i]])
        np.testing.assert_array_equal(
            got.view(np.int64),
            np.array([want.p_succ, want.r_filtered,
                      *want.after.spectrum.lambdas]).view(np.int64),
            err_msg=str(i))


def test_batch_rejects_trace_off_one():
    """The batch's route tests are absolute, for states, so it raises
    ValueError on every row that validate rejects, NaN included, naming the
    row and validate's failures, and warns of nothing: 1e300 I once
    overflowed the purity test and came back filterable, 1e-300 I met the
    p floor, and 3 times a Werner state came back filterable with p_succ 1.
    Of unit trace, I / 4 with rho03 = rho30 = 1e200 overflowed the purity
    test, and with 1e10 it came back filterable with p_succ 1 and lambdas
    (2e10, 2e10, 0). A rank-2 state with its least eigenvalue lowered by
    1e-6 and renormalised keeps every |M_ij| at most 1 and was accepted. The
    rows of trace off 1 normalised give the verdicts of the normalised
    states."""
    werner = states.make_family(states.FamilySpec(variant="werner", p=0.8)).rho
    mixed = np.eye(4, dtype=complex) / 4.0
    nan = np.full((4, 4), np.nan)
    coherent = [mixed.copy(), mixed.copy()]
    for c, big in zip(coherent, (1e200, 1e10)):
        c[0, 3] = c[3, 0] = big
    w, v = np.linalg.eigh(random_density_matrix(np.random.default_rng(5), 2))
    w[0] -= 1e-6
    shifted = (v * w) @ v.conj().T
    shifted /= np.trace(shifted).real
    row = "^invalid state in row 1: "
    trace = row + r"trace != 1 \(deviation \S+\)$"
    negative = row + r"negative eigenvalue \(-\S+\)$"
    nans = row + "non-finite entry$"
    for rho, want, match in ((1e300 * np.eye(4), mixed, trace),
                             (1e-300 * np.eye(4), mixed, trace),
                             (3.0 * werner, werner, trace), (nan, None, nans),
                             (coherent[0], None, negative),
                             (coherent[1], None, negative),
                             (shifted, None, negative)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                filtering.filtered_key_rate_batch([werner, rho, werner])
            if want is None:
                continue
            got = filtering.filtered_key_rate_batch(
                [rho / np.trace(rho).real])
        ref = filtering.filtered_key_rate_batch([want])
        assert np.array_equal(got.filterable, ref.filterable)
        assert np.array_equal(got.region_before, ref.region_before)
        for name in ("lambdas_before", "p_succ", "lambdas_after",
                     "r_filtered"):
            np.testing.assert_allclose(getattr(got, name), getattr(ref, name),
                                       rtol=1e-15, atol=1e-15)
    assert not filtering.filtered_key_rate_batch([mixed]).filterable[0]


def sweep_grid():
    # the sweep's 50 x 50 Gisin grid, alpha in [0.002, 0.998] and mu in
    # [0.01, 1], with the pure mu = 1 row
    al, mu = (g.ravel() for g in np.meshgrid(
        np.linspace(0.002, 0.998, 50), np.linspace(0.01, 1.0, 50),
        indexing="ij"))
    return al, mu, states._gisin_rho(al, mu)


def test_batch_gisin_closed_form():
    """Gisin states have closed forms (Gisin, PLA 210, 151, 1996; the
    filters of Verstraete, Dehaene & De Moor, PRA 64, 010101(R), 2001):
    with s = min(alpha, beta), l = max(alpha, beta), p_succ = 2 mu s^2 +
    (1 - mu) s / l, and the filtered state is Bell-diagonal with lambdas
    (w, w, |2w - 1|), w = 2 mu s^2 / p_succ. On the 200x200 grid the batch
    kept p_succ within 2.95e-10 relative (worst at alpha = 0.002, mu near
    0.015) and the lambdas within 3.34e-12."""
    al, mu, rhos = sweep_grid()
    out = filtering.filtered_key_rate_batch(rhos)
    beta = np.sqrt(1.0 - al ** 2)
    s, l = np.minimum(al, beta), np.maximum(al, beta)
    p = 2.0 * mu * s ** 2 + (1.0 - mu) * s / l
    w = 2.0 * mu * s ** 2 / p
    lam = -np.sort(-np.column_stack([w, w, np.abs(2.0 * w - 1.0)]), axis=-1)
    assert out.filterable.all()
    np.testing.assert_allclose(out.p_succ, p, rtol=1e-9, atol=0)
    np.testing.assert_allclose(out.lambdas_after, lam, rtol=0, atol=1e-11)


def test_batch_gisin_small_alpha_lines():
    """At small alpha M holds the population 4 mu alpha^2 only as a sum of
    O(1) entries, so p_succ is as accurate as M's round-off allows. Against
    the Gisin closed form, over 100 mu in [0.01, 0.99] per line, the batch
    keeps p_succ within 2.5e-4 at alpha = 1e-6 (every cell filterable),
    2.5e-6 at 1e-5 and 3.4e-9 at 2.5e-4. Through the eigenspace route
    alone, 3 cells of the first line are not filterable, and the other
    lines reach 2.9e-6 and 7.8e-9. These are the cells `bellqkd sweep
    --family gisin --alpha 1e-6:1e-6:1 --mu 0.01:0.99:100` writes."""
    mu = np.linspace(0.01, 0.99, 100)
    for al, bound in ((1e-6, 5e-4), (1e-5, 3e-6), (2.5e-4, 8e-9)):
        out = filtering._batch(states._gisin_m(al, mu))
        s, l = al, np.sqrt(1.0 - al * al)
        want = 2.0 * mu * s * s + (1.0 - mu) * s / l
        assert out.filterable.all(), al
        assert np.abs(out.p_succ / want - 1.0).max() <= bound, al


def diagonal_form(M):
    # _diagonal_form's uv, d and mask with the rotations and sigma that
    # _rotations builds from its pieces
    uv, d, ok, pieces = filtering._diagonal_form(M)
    return uv, d, *filtering._rotations(d, *pieces), ok


def eigen_route(monkeypatch, M):
    # diagonal_form with every row sent through the eigenspace construction
    with monkeypatch.context() as patched:
        patched.setattr(filtering, "_AXIAL_FLOOR", np.inf)
        return diagonal_form(M)


def test_forms_values_and_pieces_follow_every_row():
    """On a stack that mixes routes, _forms' uv, d and pieces all follow
    the stack's rows: _rotations on them gives each _DIAG row's normal_form
    sigma and boosts bit for bit, and the Bell and maximally mixed rows
    carry u = v = e0 and d = the diagonal of M."""
    rhos = [states.make_family(states.FamilySpec(variant="werner", p=0.7)).rho,
            GISIN.rho, np.eye(4) / 4.0, RHO_X,
            random_density_matrix(np.random.default_rng(19), rank=3)]
    ms = [states.to_mueller(states.TwoQubitState(rho)) for rho in rhos]
    M = np.array([m.m for m in ms])
    route, uv, d, pieces = filtering._forms(M)
    assert route.tolist() == [filtering._BELL, filtering._DIAG,
                              filtering._TRIVIAL, filtering._XF,
                              filtering._DIAG]
    rot, sigma = filtering._rotations(d, *pieces)
    L = filtering._boost(uv) @ filtering._spatial(rot)
    for i in (1, 4):
        nf = checked_normal_form(ms[i])
        assert np.array_equal(sigma[i], nf.sigma)
        assert np.array_equal(L[i], nf.l1)
        assert np.array_equal(L[len(M) + i], nf.l2)
    for i in (0, 2):
        assert np.array_equal(uv[[i, len(M) + i]], filtering._I4[[0, 0]])
        assert np.array_equal(d[i], M[i].diagonal())


def test_axial_route_matches_eigen_route(monkeypatch):
    """_diagonal_form takes axial rows through closed forms, and the
    eigenspace construction that every other row takes is their oracle. On
    the 200 x 200 Gisin grid, on random X states and on pair states (pure,
    rank-2 and diagonal X states on span{|00>, |11>} or span{|01>, |10>})
    both give the same verdict, sigma and p_succ to 1e-9 relative, and the
    same rotations: to 1e-12 on the grid. On the other states they are the
    same up to one sign flip of two singular pairs on both sides at once,
    which leaves l1 sigma l2^T as it is; the eigen route's whitened block
    holds round-off outside its blocks, and LAPACK's Householder steps turn
    that into flips on 2 % of the X states. They agree to the round-off
    divided by the gap between singular values (at most 4.1e-16 sigma0 /
    gap), and to 1e-12 on the pair states, whose gaps can be 0.

    A pair row (the mu = 1 row of the grid and the pair states) fixes only
    eta1 + eta2 or eta2 - eta1, and the closed forms take u = e0: the eigen
    route's u is e0 to a few ulp (exactly on the grid)."""
    al, mu = (g.ravel() for g in np.meshgrid(
        np.linspace(0.002, 0.998, 200), np.linspace(0.01, 1.0, 200),
        indexing="ij"))
    rng = np.random.default_rng(17)
    grid = states._gisin_m(al, mu)
    xs = states._mueller(np.array([random_x_state(rng) for _ in range(2000)]))
    pairs = states._mueller(np.array([
        random_pair_state(rng, k % 2, (1.0, rng.uniform(), 0.0)[k // 2 % 3])
        for k in range(1200)]))
    e0 = np.eye(4)[0]
    for M, n_pair in ((grid, 200), (xs, 0), (pairs, len(pairs))):
        b, ax = filtering._axial(M)
        assert ax.all()
        pair = (b == 0.0).any(axis=0)
        assert pair.sum() == n_pair
        uv, d, rot, sigma, ok = diagonal_form(M)
        uv_e, d_e, rot_e, sigma_e, ok_e = eigen_route(monkeypatch, M)
        assert ok.all() and ok_e.all()
        s0 = sigma_e[:, 0, 0]
        assert (np.abs(sigma - sigma_e).max(axis=(-2, -1)) <= 1e-9 * s0).all()
        p, p_e = filtering._p_succ(uv, d), filtering._p_succ(uv_e, d_e)
        np.testing.assert_allclose(p, p_e, rtol=1e-9, atol=0)
        u, u_e = uv[:len(M)][pair], uv_e[:len(M)][pair]
        assert (u == e0).all()
        assert (np.abs(u_e - e0) <= 4 * np.finfo(float).eps).all()
        R, R_e = (r.reshape(2, len(M), 3, 3) for r in (rot, rot_e))
        if M is grid:
            assert (u_e == e0).all()
            np.testing.assert_allclose(R, R_e, rtol=0, atol=1e-12)
            continue
        flips = np.sign(np.einsum("snji,snjk->snik", R_e, R).diagonal(
            axis1=-2, axis2=-1))
        assert (flips[0] == flips[1]).all() and (flips.prod(axis=-1) == 1).all()
        dev = np.abs(R_e * flips[..., None, :] - R).max(axis=(0, -2, -1))
        if M is pairs:
            assert (dev <= 1e-12).all()
            continue
        s = np.sort(np.abs(sigma.diagonal(axis1=-2, axis2=-1)[:, 1:]), axis=-1)
        gap = np.diff(s, axis=-1).min(axis=-1)
        assert (dev <= 1e-12 + 1e-14 * s0 / gap).all()


def test_axial_states_with_a_zero_population_stay_xform():
    """An X state with one zero population, or two that are not an
    opposite pair (|00> and |11>, or |01> and |10>), has the X pattern.
    A zero population's light-cone entry comes out as round-off, up to
    2.2e-16 m00, below _AXIAL_FLOOR, whichever seam builds M, so these
    states keep the eigenspace route and its XForm verdict; the route's l1
    and l2 are proper orthochronous. With no floor, x_mixture(0.6, 1) took the
    closed forms from one seam and not from the other. The two-zero states
    are the products |0><0| x diag(c, d), |1><1| x diag(c, d) and their
    mirrors."""
    rng = np.random.default_rng(23)
    rhos = [x_mixture(0.6, 1), x_mixture(0.3, 2),
            *(x_mixture(rng.uniform(0.05, 0.95), 1 + k % 2) for k in range(20)),
            *(random_x_state(rng, zero=k % 4) for k in range(40))]
    for k in range(8):
        c = rng.uniform(0.05, 0.95)
        one, mixed = np.diag(np.eye(2)[k % 2]), np.diag([c, 1.0 - c])
        rho = np.kron(one, mixed) if k < 4 else np.kron(mixed, one)
        rhos.append(rho.astype(complex))
    for i, rho in enumerate(rhos):
        for M in (states.to_mueller(states.TwoQubitState(rho)).m,
                  states._mueller(rho)):
            assert not filtering._axial(M[None])[1][0], i
            nf = checked_normal_form(states.MuellerMatrix(M))
            assert nf.kind == filtering.XFORM, i
    assert not filtering.filtered_key_rate_batch(np.array(rhos)).filterable.any()
    assert not filtering._batch(states._mueller(np.array(rhos))).filterable.any()


def test_sweep_grid_batch_makes_no_lapack_call(monkeypatch):
    """Every cell of the sweep's 50 x 50 Gisin grid, the pure mu = 1 row and
    the (0.002, 1) edge cell among them, takes closed forms: the lambdas
    before filtering of its diagonal correlation block, and the axial
    normal form. So _batch runs no SVD or eigendecomposition on the grid,
    and gives what it gives with LAPACK at hand. It reads values only: the
    rotations, the ordering and signing of the values, and sigma are not
    built."""
    al, mu, _ = sweep_grid()
    assert ((al == 0.002) & (mu == 1.0)).any()
    M = states._gisin_m(al, mu)
    want = filtering._batch(M)

    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK call on the sweep path")

    def rotations(*args, **kwargs):
        raise AssertionError("rotations built on the sweep path")

    monkeypatch.setattr(np.linalg, "svd", lapack)
    monkeypatch.setattr(np.linalg, "eig", lapack)
    monkeypatch.setattr(filtering, "_rot2", rotations)
    monkeypatch.setattr(filtering, "_rotations", rotations)
    got = filtering._batch(M)
    for field in dataclasses.fields(filtering.BatchOutcome):
        np.testing.assert_array_equal(getattr(got, field.name),
                                      getattr(want, field.name), field.name)


def test_filtered_key_rate_matches_applied_filters():
    """p_succ and the filtered spectrum, read off the normal form, agree
    with applying the filters to rho and taking the output's trace and
    correlation_spectrum: at most 2.8e-12 and 3.3e-12 apart on the Gisin
    grid, 1.1e-13 and 1.6e-13 on random states. The spectrum's axes and
    signs give the filtered correlation block's signed values. Mixtures
    of Bell states keep sigma = M, whose diagonal is in no order."""
    rng = np.random.default_rng(29)
    bell = [states.bell_state(b).rho for b in ("phi+", "phi-", "psi+", "psi-")]
    rhos = [*sweep_grid()[2], *(random_density_matrix(rng, rank=k % 4 + 1)
                                 for k in range(400)),
            *(np.tensordot(rng.dirichlet(np.ones(4)), bell, axes=1)
              for _ in range(50))]
    for i, rho in enumerate(rhos):
        st = states.TwoQubitState(rho)
        out = filtering.filtered_key_rate(st)
        f, p = apply_filters(st, out.filters)
        assert abs(out.p_succ / p - 1.0) <= 1e-11, i
        spec = out.after.spectrum
        np.testing.assert_allclose(
            spec.lambdas, metrics.correlation_spectrum(f).lambdas,
            rtol=0, atol=1e-11, err_msg=str(i))
        T = states.to_mueller(f).m[1:, 1:]
        np.testing.assert_allclose(
            np.einsum("ij,jk,ik->i", spec.alice_dirs, T, spec.bob_dirs),
            spec.signs * spec.lambdas, rtol=0, atol=1e-11, err_msg=str(i))


def test_p_succ_at_most_one_on_rotated_werner_states():
    """p_succ = sigma0 / ((u0 + |u|)(v0 + |v|)) is at most 1 for filters of
    unit norm; on Werner states under local unitaries round-off put the
    trace of the filtered state up to 6.7e-16 above 1 on 131 of these
    1,600 states before p_succ was clipped, on both the one-state and the
    batch path."""
    rng = np.random.default_rng(0)
    rhos = []
    for p in (0.5, 0.8, 0.9, 0.99999):
        w = states.make_family(states.FamilySpec(variant="werner", p=p)).rho
        for _ in range(400):
            k = np.kron(haar_su2(rng), haar_su2(rng))
            rhos.append(k @ w @ k.conj().T)
    p_one = [filtering.filtered_key_rate(states.TwoQubitState(rho)).p_succ
             for rho in rhos]
    p_batch = filtering.filtered_key_rate_batch(np.array(rhos)).p_succ
    assert max(p_one) <= 1.0
    assert p_batch.max() <= 1.0
