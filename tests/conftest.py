import numpy as np
import pytest
from hypothesis import strategies as st

from bellqkd import states


def pytest_configure(config):
    config._acceptance_results = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_acceptance_results", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        label, passed = results[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num}: {verdict} - {label}")


@pytest.fixture
def record_acceptance(request):
    """Collect sub-assert failures for one criterion, then assert none."""

    def _record(num: int, label: str, failures: list[str]):
        request.config._acceptance_results[num] = (label, not failures)
        assert not failures, f"acceptance {num} ({label}): " + "; ".join(failures)

    return _record


def random_density_matrix(rng: np.random.Generator, rank: int = 4) -> np.ndarray:
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_filter(rng: np.random.Generator, min_det: float = 0.1) -> np.ndarray:
    # nonsingular 2x2, spectral norm 1
    while True:
        f = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        f = f / np.linalg.norm(f, 2)
        if abs(np.linalg.det(f)) > min_det:
            return f


def filtered(rho: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    # (f x g) rho (f x g)^dag, renormalised
    k = np.kron(f, g)
    out = k @ rho @ k.conj().T
    return out / np.trace(out).real


def filtered_nearly_product_pure_states(rng: np.random.Generator, n: int):
    """gisin(alpha, 1), alpha log-uniform in [1e-3, 3e-2], under filters of
    singular-value ratio up to 20: for some of them the Diagonal
    construction gives l1, l2 outside the Lorentz bounds, so normal_form
    raises, though the filters built from its boosts and rotations work."""
    out = []
    for _ in range(n):
        alpha = float(np.exp(rng.uniform(np.log(1e-3), np.log(3e-2))))
        rho = states.make_family(
            states.FamilySpec(variant="gisin", alpha=alpha, mu=1.0)).rho
        out.append(filtered(rho, random_filter(rng, 0.05),
                            random_filter(rng, 0.05)))
    return out


def x_mixture(lam: float, slot: int) -> np.ndarray:
    """lam |Phi+><Phi+| + (1 - lam)|01><01| (slot 1) or |10><10| (slot 2).

    Rank-2 states whose normal form is the X pattern, with or without a
    local filter on top.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[np.ix_([0, 3], [0, 3])] = lam / 2.0
    rho[slot, slot] = 1.0 - lam
    return rho


def random_x_state(rng: np.random.Generator, zero: int | None = None) -> np.ndarray:
    """An X state: random populations of |00>, |01>, |10>, |11> (the one
    at index ``zero`` set to 0) and complex coherences |00><11|, |01><10|
    of random phase and up to the largest modulus positivity allows. Its
    Mueller matrix is axial: zero outside the (t, z) and (x, y) blocks."""
    p = rng.dirichlet(np.ones(4))
    if zero is not None:
        p[zero] = 0.0
        p /= p.sum()
    rho = np.diag(p).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        rho[i, j] = (np.sqrt(p[i] * p[j]) * rng.uniform()
                     * np.exp(2j * np.pi * rng.uniform()))
        rho[j, i] = rho[i, j].conjugate()
    return rho


def _su2(q) -> np.ndarray:
    a, b, c, d = np.asarray(q) / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    # a normalised Gaussian quaternion is uniform on S^3: Haar on SU(2)
    return _su2(rng.normal(size=4))


@st.composite
def sl2c_filters(draw) -> np.ndarray:
    """A local filter in SL(2,C): U diag(e^t, e^-t) V with U, V in SU(2).

    t <= 1 keeps the ratio of its singular values at most e^2, so at unit
    norm |det| >= 0.135, the range of random_filter's default.
    """
    quat = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: np.linalg.norm(q) > 0.1)
    t = draw(st.floats(0.0, 1.0))
    return _su2(draw(quat)) @ np.diag([np.exp(t), np.exp(-t)]) @ _su2(draw(quat))
