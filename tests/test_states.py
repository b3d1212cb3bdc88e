import json

import numpy as np
import pytest

from bellqkd import states
from bellqkd.filtering import concurrence

from conftest import random_density_matrix

PAULI = [np.eye(2, dtype=complex),
         np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex)]


def pauli_components(rho):
    # independent read-out of (r, s, T) straight from the trace formulas
    r = np.array([np.trace(rho @ np.kron(PAULI[i], PAULI[0])).real
                  for i in (1, 2, 3)])
    s = np.array([np.trace(rho @ np.kron(PAULI[0], PAULI[j])).real
                  for j in (1, 2, 3)])
    T = np.array([[np.trace(rho @ np.kron(PAULI[i], PAULI[j])).real
                   for j in (1, 2, 3)] for i in (1, 2, 3)])
    return r, s, T


def test_from_pauli_identity_components():
    st = states.from_pauli(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert np.abs(st.rho - np.eye(4) / 4).max() < 1e-15


def test_pauli_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        rho = random_density_matrix(rng)
        r, s, T = pauli_components(rho)
        st = states.from_pauli(r, s, T)
        assert np.abs(st.rho - rho).max() < 1e-12
        m = states.to_mueller(st).m
        assert abs(m[0, 0] - 1.0) < 1e-12
        assert np.abs(m[1:, 0] - r).max() < 1e-12
        assert np.abs(m[0, 1:] - s).max() < 1e-12
        assert np.abs(m[1:, 1:] - T).max() < 1e-12


def test_to_mueller_row_column_conventions():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(rng)
    st = states.TwoQubitState(rho)
    m = states.to_mueller(st).m
    r, s, T = pauli_components(rho)
    assert np.allclose(m[0], np.concatenate([[1.0], s]), atol=1e-13)
    assert np.allclose(m[:, 0], np.concatenate([[1.0], r]), atol=1e-13)
    assert np.allclose(m[1:, 1:], T, atol=1e-13)


def test_mueller_stack_equals_one_by_one():
    """_mueller over a stack gives each matrix's M bit for bit (the batch
    path's spectra equal the one-state path's on that), and M agrees with
    Tr[rho (sigma_i x sigma_j)]."""
    rng = np.random.default_rng(17)
    rhos = np.array([random_density_matrix(rng, rank=k % 4 + 1)
                     for k in range(300)])
    raw = rng.normal(size=(300, 4, 4)) + 1j * rng.normal(size=(300, 4, 4))
    for stack in (rhos, raw):
        m = states._mueller(stack)
        for rho, mk in zip(stack, m):
            assert np.array_equal(states._mueller(rho), mk)
    for rho, mk in zip(rhos, states._mueller(rhos)):
        want = [[np.trace(rho @ np.kron(a, b)).real for b in PAULI]
                for a in PAULI]
        assert np.abs(mk - want).max() <= 1e-15


def test_from_mueller_round_trip():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng)
    m = states.to_mueller(states.TwoQubitState(rho))
    back = states.from_mueller(m)
    assert np.abs(back.rho - rho).max() < 1e-12


def test_from_mueller_rejects_bad_norm():
    m = np.eye(4)
    m[0, 0] = 0.9
    with pytest.raises(states.InvalidStateError):
        states.from_mueller(states.MuellerMatrix(m))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_mueller_rejects_non_finite_norm(bad):
    m = np.eye(4)
    m[0, 0] = bad
    for mm in (m, np.full((4, 4), bad)):
        with pytest.raises(states.InvalidStateError):
            states.from_mueller(states.MuellerMatrix(mm))


def test_bell_states_known_matrices():
    half = 0.5
    phi_plus = np.zeros((4, 4), dtype=complex)
    phi_plus[np.ix_([0, 3], [0, 3])] = half
    assert np.abs(states.bell_state("phi+").rho - phi_plus).max() < 1e-15

    psi_minus = np.zeros((4, 4), dtype=complex)
    psi_minus[1, 1] = psi_minus[2, 2] = half
    psi_minus[1, 2] = psi_minus[2, 1] = -half
    assert np.abs(states.bell_state("psi-").rho - psi_minus).max() < 1e-15

    # all four are valid pure states with T = diag(+-1)
    for label in ("phi+", "phi-", "psi+", "psi-"):
        st = states.bell_state(label)
        assert states.validate(st).ok
        _, _, T = pauli_components(st.rho)
        assert np.abs(np.abs(np.diag(T)) - 1.0).max() < 1e-14

    with pytest.raises(states.StateFileError):
        states.bell_state("phi")


def test_werner_limits_and_t_block():
    singlet = states.bell_state("psi-")
    w1 = states.make_family(states.FamilySpec(variant="werner", p=1.0))
    assert np.abs(w1.rho - singlet.rho).max() < 1e-15
    w0 = states.make_family(states.FamilySpec(variant="werner", p=0.0))
    assert np.abs(w0.rho - np.eye(4) / 4).max() < 1e-15
    w = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    r, s, T = pauli_components(w.rho)
    assert np.abs(r).max() < 1e-15 and np.abs(s).max() < 1e-15
    assert np.abs(T - np.diag([-0.8, -0.8, -0.8])).max() < 1e-14


GISIN_ALPHA, GISIN_MU = 0.9, 0.85
GISIN_BETA = 0.4358898943540673  # sqrt(1 - 0.81)


def test_gisin_reference_point_structure():
    st = states.make_family(
        states.FamilySpec(variant="gisin", alpha=GISIN_ALPHA, mu=GISIN_MU))
    assert states.validate(st).ok
    r, s, T = pauli_components(st.rho)
    rz = GISIN_MU * (GISIN_ALPHA**2 - GISIN_BETA**2)
    assert np.allclose(r, [0, 0, rz], atol=1e-14)
    assert np.allclose(s, [0, 0, -rz], atol=1e-14)
    toff = -2 * GISIN_MU * GISIN_ALPHA * GISIN_BETA
    assert np.allclose(np.diag(T), [toff, toff, 1 - 2 * GISIN_MU], atol=1e-14)
    assert np.abs(T - np.diag(np.diag(T))).max() < 1e-14

    sv = np.linalg.svd(T, compute_uv=False)
    assert np.allclose(sv, [0.7, 0.6669115383617232, 0.6669115383617232],
                       atol=1e-12)
    assert abs(sv[0] + sv[1] - 1.3669115383617232) < 5e-4
    assert abs(sv[0]**2 + sv[1]**2 - 0.9347) < 5e-4


def test_gisin_singular_values_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(100):
        alpha = rng.uniform(0.05, 0.95)
        mu = rng.uniform(0.05, 1.0)
        st = states.make_family(
            states.FamilySpec(variant="gisin", alpha=alpha, mu=mu))
        _, _, T = pauli_components(st.rho)
        sv = np.sort(np.linalg.svd(T, compute_uv=False))[::-1]
        beta = np.sqrt(1 - alpha**2)
        expect = sorted([abs(1 - 2 * mu), 2 * mu * alpha * beta,
                         2 * mu * alpha * beta], reverse=True)
        assert np.allclose(sv, expect, atol=1e-12)


def test_gisin_mu_to_zero_is_separable_diagonal():
    st = states.make_family(
        states.FamilySpec(variant="gisin", alpha=0.6, mu=1e-9))
    off = st.rho - np.diag(np.diag(st.rho))
    assert np.abs(off).max() < 1e-9
    assert concurrence(st) == 0.0


def test_gisin_grid_validates():
    for alpha in np.linspace(0.02, 0.98, 50):
        for mu in np.linspace(0.02, 1.0, 50):
            st = states.make_family(
                states.FamilySpec(variant="gisin", alpha=alpha, mu=mu))
            assert states.validate(st).ok, (alpha, mu)


def test_depolarize_scales_mueller_entries():
    rng = np.random.default_rng(9)
    st = states.TwoQubitState(random_density_matrix(rng))
    m = states.to_mueller(st).m
    for p in (0.0, 0.3, 1.0):
        md = states.to_mueller(states.depolarize(st, p)).m
        expect = p * m
        expect[0, 0] = 1.0
        assert np.abs(md - expect).max() < 1e-13


def test_depolarize_range():
    st = states.bell_state("phi+")
    with pytest.raises(ValueError):
        states.depolarize(st, 1.5)
    with pytest.raises(ValueError):
        states.depolarize(st, -0.1)


def test_validate_failures_name_the_invariant():
    bad_trace = states.TwoQubitState(np.eye(4, dtype=complex) * 0.225)
    rep = states.validate(bad_trace)
    assert not rep.ok
    assert any("trace" in f for f in rep.failures)

    nonherm = np.eye(4, dtype=complex) / 4
    nonherm[0, 1] = 0.2j  # no conjugate partner
    rep = states.validate(states.TwoQubitState(nonherm))
    assert not rep.ok
    assert any("Hermitian" in f for f in rep.failures)

    neg = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    rep = states.validate(states.TwoQubitState(neg))
    assert not rep.ok
    assert rep.min_eig < 0
    assert any("eigenvalue" in f for f in rep.failures)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_non_finite_fails_every_check(bad):
    """A non-finite entry reads NaN deviations and fails, with no LAPACK
    call on it (eigvalsh raised LinAlgError on NaN), and is the one failure
    reported."""
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 0] = bad
    rep = states.validate(states.TwoQubitState(rho))
    assert not rep.ok and not rep.hermitian
    assert rep.failures == ("non-finite entry",)
    assert np.isnan(rep.trace_dev) and np.isnan(rep.min_eig)


def test_validate_tolerances():
    # tiny asymmetry and trace error stay inside the tolerances
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 1e-13j
    rho[1, 0] = -1e-13j + 1e-14
    rep = states.validate(states.TwoQubitState(rho))
    assert rep.ok


def test_family_spec_ranges():
    with pytest.raises(states.StateFileError):
        states.FamilySpec(variant="werner", p=1.2)
    with pytest.raises(states.StateFileError):
        states.FamilySpec(variant="gisin", alpha=1.0, mu=0.5)
    with pytest.raises(states.StateFileError):
        states.FamilySpec(variant="gisin", alpha=0.5, mu=0.0)
    with pytest.raises(states.StateFileError):
        states.FamilySpec(variant="nope")
    with pytest.raises(states.StateFileError):
        states.FamilySpec(variant="bell", label="psi")
    # beta is derived, never an input
    assert not hasattr(states.FamilySpec(variant="gisin", alpha=0.5, mu=0.5),
                       "beta")


def _matrix_doc(rho):
    return {"matrix": [[[rho[i, j].real, rho[i, j].imag] for j in range(4)]
                       for i in range(4)]}


def test_parse_state_spec_matrix():
    rng = np.random.default_rng(21)
    rho = random_density_matrix(rng)
    st = states.parse_state_spec(_matrix_doc(rho))
    assert np.abs(st.rho - rho).max() < 1e-15


def test_parse_state_spec_family_and_depolarize():
    st = states.parse_state_spec(
        {"family": {"variant": "werner", "p": 0.8}, "depolarize": 0.5})
    expect = states.depolarize(
        states.make_family(states.FamilySpec(variant="werner", p=0.8)), 0.5)
    assert np.abs(st.rho - expect.rho).max() < 1e-15


@pytest.mark.parametrize("doc", [
    {},
    {"matrix": [[[1, 0]] * 4] * 4, "family": {"variant": "werner", "p": 1}},
    {"matrix": [[[1, 0]] * 3] * 4},
    {"matrix": "nope"},
    {"family": {"variant": "werner"}},
    {"family": {"variant": "gisin", "alpha": 0.9}},
    {"family": {"variant": "gisin", "alpha": 0.9, "mu": 0.85, "beta": 0.4}},
    {"family": {"variant": "bell", "label": "psi-"}, "depolarize": -0.2},
    {"family": {"variant": "bell", "label": "psi-"}, "extra": 1},
    {"family": {"variant": "bell", "label": "psi-"},
     "depolarize": "strong"},
])
def test_parse_state_spec_rejects(doc):
    with pytest.raises(states.StateFileError):
        states.parse_state_spec(doc)


def test_load_state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(
        {"family": {"variant": "gisin", "alpha": 0.9, "mu": 0.85}}))
    st = states.load_state_file(path)
    ref = states.make_family(
        states.FamilySpec(variant="gisin", alpha=0.9, mu=0.85))
    assert np.abs(st.rho - ref.rho).max() < 1e-15

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(states.StateFileError):
        states.load_state_file(bad)
    with pytest.raises(states.StateFileError):
        states.load_state_file(tmp_path / "missing.json")


def test_state_is_immutable():
    st = states.bell_state("phi+")
    with pytest.raises(Exception):
        st.rho[0, 0] = 9.0
    m = states.to_mueller(st)
    with pytest.raises(Exception):
        m.m[0, 0] = 2.0
