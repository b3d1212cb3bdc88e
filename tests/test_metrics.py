import numpy as np
import pytest

from bellqkd import metrics, states

from conftest import random_density_matrix


def t_block(state):
    return states.to_mueller(state).m[1:, 1:]


def make(alpha=0.9, mu=0.85):
    return states.make_family(
        states.FamilySpec(variant="gisin", alpha=alpha, mu=mu))


def test_spectrum_matches_svd_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(300):
        st = states.TwoQubitState(random_density_matrix(rng))
        spec = metrics.correlation_spectrum(st)
        sv = np.sort(np.linalg.svd(t_block(st), compute_uv=False))[::-1]
        assert np.abs(np.asarray(spec.lambdas) - sv).max() < 1e-10
        # descending, non-negative
        lam = spec.lambdas
        assert lam[0] >= lam[1] >= lam[2] >= 0
        # direction pairs diagonalize T with the recorded signs
        T = t_block(st)
        for i in range(3):
            a, b, s = spec.alice_dirs[i], spec.bob_dirs[i], spec.signs[i]
            assert abs(np.linalg.norm(a) - 1) < 1e-12
            assert abs(np.linalg.norm(b) - 1) < 1e-12
            assert s in (-1.0, 1.0)
            assert abs(a @ T @ b - s * lam[i]) < 1e-10
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert abs(spec.alice_dirs[i] @ T @ spec.bob_dirs[j]) < 1e-7


def test_spectrum_gisin_reference():
    spec = metrics.correlation_spectrum(make())
    assert np.allclose(spec.lambdas,
                       [0.7, 0.6669115383617232, 0.6669115383617232],
                       atol=1e-12)


def _rotations(rng, n):
    # n random proper rotations, from the QR of Gaussian matrices
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    return q * np.sign(np.linalg.det(q))[:, None, None]


def same_bits(a, b) -> bool:
    # equal to the bit: -0.0 and 0.0 differ
    return np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64))


def test_lambdas_equal_spectra_bit_for_bit():
    """_lambdas gives _spectra's lambdas bit for bit on rows with no ties,
    exact ties (Gisin T = diag(c, c, t)) and ties at 12 decimals whose bits
    differ (s and s(1 + 1e-14) under random rotations), in one mixed stack
    and in batches of one. On the last kind _spectra's order moves values
    away from the SVD's, so the rows with such ties must go through it.

    Diagonal blocks take -sort(-|diagonal|) in place of the SVD: with
    negative entries and sign-flipped ties that is gesdd's result. With a 0
    or -0.0 entry (gesdd keeps the sign of a zero), or scaled to 1e-300 or
    1e200 (past gesdd's scaling thresholds, where its rescaling moves the
    last bit) it is not, and those rows must take the SVD. The scaled
    blocks hold one magnitude thrice: values of 1e-300 are all ties at 12
    decimals, which would send rows of distinct values through _spectra."""
    rng = np.random.default_rng(41)
    n = 200
    no_ties = rng.uniform(-0.5, 0.5, size=(n, 3, 3))
    al, mu = rng.uniform(0.01, 0.99, n), rng.uniform(0.01, 1.0, n)
    exact = states._gisin_m(al, mu)[:, 1:, 1:]
    s = rng.uniform(0.1, 0.5, n)
    d = np.zeros((n, 3, 3))
    d[:, 0, 0], d[:, 1, 1] = s, s * (1.0 + 1e-14)
    d[:, 2, 2] = rng.uniform(0.0, 0.09, n)
    near = _rotations(rng, n) @ d @ _rotations(rng, n)
    # diagonal blocks: signed entries with sign-flipped ties and near-ties;
    # the same with one zero of either sign; one signed magnitude, scaled
    # to 1e-300 and to 1e200
    signs = rng.choice([-1.0, 1.0], (n, 3))
    e = rng.uniform(0.01, 1.0, size=(n, 3)) * signs
    e[::3, 1] = -e[::3, 0]
    e[1::3, 2] = -e[1::3, 1] * (1.0 + 1e-15)
    z = e.copy()
    z[np.arange(n), rng.integers(0, 3, n)] = np.where(
        np.arange(n) % 2, -0.0, 0.0)
    one = rng.uniform(0.01, 1.0, size=(n, 1)) * signs
    diagonal = np.zeros((4 * n, 3, 3))
    diagonal[:, [0, 1, 2], [0, 1, 2]] = np.concatenate(
        [e, z, 1e-300 * one, 1e200 * one])
    M = np.zeros((7 * n, 4, 4))
    M[:, 0, 0] = 1.0
    M[:, 1:, 1:] = np.concatenate([no_ties, exact, near, diagonal])
    want = metrics._spectra(M)[0]
    svd = np.linalg.svd(M[:, 1:, 1:])[1]
    moved = (svd != want).any(axis=-1)
    assert not moved[:2 * n].any() and moved[2 * n:3 * n].sum() > n // 4
    closed = -np.sort(-np.abs(np.diagonal(M[3 * n:, 1:, 1:], axis1=-2,
                                          axis2=-1)), axis=-1)
    assert same_bits(closed[:n], want[3 * n:4 * n])
    for k in (1, 2, 3):  # rows the closed form would get wrong
        assert not same_bits(closed[k * n:(k + 1) * n],
                             want[(3 + k) * n:(4 + k) * n]), k
    assert same_bits(metrics._lambdas(M), want)
    for i in range(len(M)):
        assert same_bits(metrics._lambdas(M[i:i + 1]), want[i:i + 1]), i


def test_tie_test_does_not_overflow():
    """Values above 1.8e296 overflowed the tie test's rounding at 12
    decimals: with the warning ignored, every value came out a tie, and
    _lambdas returned T = diag(3e300, 2e300, 1e300)'s values ascending.
    Rounded in units of the largest value, they are apart, and the spectrum
    comes out descending from _lambdas and _spectra, diagonal or not (the
    suite turns the RuntimeWarning into an error)."""
    M = np.zeros((2, 4, 4))
    M[:, 0, 0] = 1.0
    M[:, 1:, 1:] = np.diag([3e300, 2e300, 1e300])
    M[1, 1:, 1:] = _rotations(np.random.default_rng(5), 1)[0] @ M[1, 1:, 1:]
    for lam in (metrics._lambdas(M), metrics._spectra(M)[0]):
        np.testing.assert_allclose(lam, [[3e300, 2e300, 1e300]] * 2,
                                   rtol=1e-14)


def test_spectrum_bell_and_werner():
    spec = metrics.correlation_spectrum(states.bell_state("psi-"))
    assert np.allclose(spec.lambdas, [1, 1, 1], atol=1e-14)
    assert np.allclose(spec.signs, [-1, -1, -1])
    w = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    assert np.allclose(metrics.correlation_spectrum(w).lambdas,
                       [0.8, 0.8, 0.8], atol=1e-14)


def test_chsh_max_values():
    assert abs(metrics.chsh_max(metrics.correlation_spectrum(
        states.bell_state("phi+"))) - 2 * np.sqrt(2)) < 1e-12
    assert abs(metrics.chsh_max(metrics.correlation_spectrum(
        make())) - 1.9336711199167247) < 1e-12
    w = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    assert abs(metrics.chsh_max(metrics.correlation_spectrum(w))
               - 2.2627416997969516) < 1e-12


def test_chsh_value_reaches_chsh_max():
    rng = np.random.default_rng(23)
    for _ in range(200):
        st = states.TwoQubitState(random_density_matrix(rng))
        spec = metrics.correlation_spectrum(st)
        settings = metrics.optimal_chsh_settings(spec)
        s = metrics._chsh(t_block(st), settings)
        assert abs(s - metrics.chsh_max(spec)) < 1e-9


def test_chsh_value_formula():
    # S = a0.T(b0+b1) + a1.T(b0-b1) checked against a hand-built setting
    st = states.bell_state("phi+")
    T = t_block(st)
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    b0 = (z + x) / np.sqrt(2)
    b1 = (z - x) / np.sqrt(2)
    settings = metrics.ChshSettings(a0=z, a1=x, b0=b0, b1=b1)
    expect = z @ T @ (b0 + b1) + x @ T @ (b0 - b1)
    assert abs(metrics._chsh(T, settings) - expect) < 1e-12
    assert abs(expect - 2 * np.sqrt(2)) < 1e-12


def test_chsh_settings_require_unit_vectors():
    with pytest.raises(ValueError):
        metrics.ChshSettings(a0=np.array([0, 0, 2.0]),
                             a1=np.array([1.0, 0, 0]),
                             b0=np.array([1.0, 0, 0]),
                             b1=np.array([0, 1.0, 0]))


def test_optimal_settings_need_correlations():
    mixed = states.TwoQubitState(np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError):
        metrics.optimal_chsh_settings(metrics.correlation_spectrum(mixed))


def test_qber_formulas():
    spec = metrics.correlation_spectrum(make())
    lam = spec.lambdas
    assert abs(metrics.qber(spec, 2) - (2 - lam[0] - lam[1]) / 4) < 1e-14
    assert abs(metrics.qber(spec, 2) - 0.15827211540956923) < 1e-12
    assert abs(metrics.qber(spec, 3)
               - (3 - lam[0] - lam[1] - lam[2]) / 6) < 1e-14
    singlet = metrics.correlation_spectrum(states.bell_state("psi-"))
    assert metrics.qber(singlet, 2) < 1e-14
    assert metrics.qber(singlet, 3) < 1e-14
    with pytest.raises(ValueError):
        metrics.qber(spec, 4)


def test_key_rate_symmetric():
    km = metrics.key_rate_symmetric(0.0)
    assert km.r_min == 1.0 and km.distillable
    km = metrics.key_rate_symmetric(0.1)
    assert abs(km.r_min - 0.062008812821437664) < 1e-12
    assert km.distillable
    km = metrics.key_rate_symmetric(0.5)
    assert abs(km.r_min - (-1.0)) < 1e-12
    # r(q) = 1 - 2 h(q): strictly decreasing on [0, 1/2]
    qs = np.linspace(0.0, 0.5, 101)
    rs = [metrics.key_rate_symmetric(q).r_min for q in qs]
    assert all(r1 > r2 for r1, r2 in zip(rs, rs[1:]))
    with pytest.raises(ValueError):
        metrics.key_rate_symmetric(-0.01)


def test_q_crit_exact():
    assert metrics.q_crit() == (2 - np.sqrt(2)) / 4


def test_q_crit_symmetric_root():
    q = metrics.q_crit_symmetric()
    assert abs(q - 0.110028) < 1e-5
    assert abs(q - 0.11002786443835955) < 1e-9
    # it is the positive root of the rate function
    assert abs(metrics.key_rate_symmetric(q).r_min) < 1e-10
    assert metrics.key_rate_symmetric(q - 1e-6).r_min > 0
    assert metrics.key_rate_symmetric(q + 1e-6).r_min < 0


def _spec_for(lams):
    T = np.diag(lams)
    return metrics.correlation_spectrum(states.from_pauli(
        np.zeros(3), np.zeros(3), T))


def test_classify_regions():
    assert metrics.classify(_spec_for([0.7, 0.5, 0.1])).value == \
        "NonviolatingUnusable"
    # violating but too errorful for key: lam1^2+lam2^2 > 1, sum <= sqrt(2)
    assert metrics.classify(_spec_for([0.99, 0.42, 0.1])).value == \
        "ViolatingUnusable"
    assert metrics.classify(_spec_for([0.95, 0.95, 0.1])).value == \
        "ViolatingUsable"
    # region boundaries belong to the weaker class
    assert metrics.classify(_spec_for([1.0, 0.0, 0.0])).value == \
        "NonviolatingUnusable"
    one = 1 / np.sqrt(2)
    assert metrics.classify(_spec_for([one, one, 0.0])).value in \
        ("NonviolatingUnusable", "ViolatingUnusable")


def test_classify_named_states():
    assert metrics.classify(metrics.correlation_spectrum(make())).value == \
        "NonviolatingUnusable"
    w = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    assert metrics.classify(metrics.correlation_spectrum(w)).value == \
        "ViolatingUsable"
    assert metrics.classify(metrics.correlation_spectrum(
        states.bell_state("phi-"))).value == "ViolatingUsable"


def test_region_enum_is_exhaustive():
    assert {r.value for r in metrics.Region} == {
        "NonviolatingUnusable", "ViolatingUnusable", "ViolatingUsable"}
