import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bellqkd import filtering, metrics, protocol_sim, states

from conftest import filtered, random_density_matrix, random_filter

SINGLET = states.bell_state("psi-")
GISIN = states.make_family(
    states.FamilySpec(variant="gisin", alpha=0.9, mu=0.85))

RHO_X = np.array([[0.375, 0, 0, 0.375],
                  [0, 0.25, 0, 0],
                  [0, 0, 0, 0],
                  [0.375, 0, 0, 0.375]], dtype=complex)


def trace_probs(st, alice_ops, bob_ops):
    # reference: Tr[rho (A x B)] over the operator pairs, Alice's outer
    return np.array([np.trace(st.rho @ np.kron(A, B)).real
                     for A in alice_ops for B in bob_ops])


def spin_projectors(v):
    sv = sum(x * p for x, p in zip(v, states.PAULI[1:]))
    return [(np.eye(2) + sv) / 2, (np.eye(2) - sv) / 2]


# ---------------------------------------------------------------------------
# Born sampling distribution

def born(st, a, b):
    # the Born table row of directions a, b, as run_protocol builds it
    ab = np.array([[a], [b]], dtype=float)
    return protocol_sim._born_table(states.to_mueller(st).m, ab, 1.0)[0]


def test_born_singlet_zz():
    p = born(SINGLET, [0, 0, 1], [0, 0, 1])
    assert np.abs(p - [0.0, 0.5, 0.5, 0.0]).max() < 1e-12


def test_born_maximally_mixed_uniform():
    mixed = states.TwoQubitState(np.eye(4, dtype=complex) / 4)
    p = born(mixed, [1, 0, 0], [0, 0, 1])
    assert np.abs(p - 0.25).max() < 1e-12


def test_born_reproduces_mueller_moments():
    rng = np.random.default_rng(61)
    for _ in range(100):
        st = states.TwoQubitState(random_density_matrix(rng))
        m = states.to_mueller(st).m
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        p = born(st, a, b)
        assert abs(p.sum() - 1.0) < 1e-12
        corr = p[0] - p[1] - p[2] + p[3]
        assert abs(corr - a @ m[1:, 1:] @ b) < 1e-12
        # marginals see only the local Bloch vectors
        assert abs((p[0] + p[1]) - (1 + a @ m[1:, 0]) / 2) < 1e-12
        assert abs((p[0] + p[2]) - (1 + b @ m[0, 1:]) / 2) < 1e-12
        ref = trace_probs(st, spin_projectors(a), spin_projectors(b))
        assert np.abs(p - ref).max() < 1e-12


def test_born_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        born(SINGLET, [0, 0, 2], [0, 0, 1])
    with pytest.raises(ValueError):
        born(SINGLET, [0, 0, 1], [0.5, 0, 0])
    for bad in ([np.nan, 0, 0], [np.inf, 0, 0], [0, -np.inf, 0]):
        with pytest.raises(ValueError):
            born(SINGLET, bad, [0, 0, 1])
        with pytest.raises(ValueError):
            born(SINGLET, [0, 0, 1], bad)
    with pytest.raises(ValueError):
        metrics.ChshSettings(a0=[np.nan, 0, 0], a1=[1, 0, 0], b0=[0, 1, 0],
                             b1=[0, 0, 1])


# ---------------------------------------------------------------------------
# config validation

def test_sim_config_validation():
    with pytest.raises(ValueError):
        protocol_sim.SimConfig(rounds=0, seed=1)
    with pytest.raises(ValueError):
        protocol_sim.SimConfig(rounds=-5, seed=1)
    with pytest.raises(ValueError):
        protocol_sim.SimConfig(rounds=10, seed=-1)
    with pytest.raises(ValueError):
        protocol_sim.SimConfig(rounds=10, seed=1, chsh_test_fraction=1.0)
    with pytest.raises(ValueError):
        protocol_sim.SimConfig(rounds=10, seed=1, chsh_test_fraction=-0.1)
    cfg = protocol_sim.SimConfig(rounds=10, seed=1, chsh_test_fraction=0.0)
    assert cfg.chsh_test_fraction == 0.0


def test_sim_config_rejects_fractional_rounds():
    # int() would truncate 2000.7 and run 2,000 rounds without a word
    with pytest.raises(ValueError, match="rounds must be an integer"):
        protocol_sim.SimConfig(rounds=2000.7, seed=1)
    assert protocol_sim.SimConfig(rounds=np.int64(2000), seed=1).rounds == 2000


def test_sim_config_rejects_fractional_seed():
    # numpy's SeedSequence would raise TypeError only once a run starts
    with pytest.raises(ValueError, match="seed must be an integer"):
        protocol_sim.SimConfig(rounds=10, seed=1.5)


# ---------------------------------------------------------------------------
# protocol runs

def test_singlet_run():
    cfg = protocol_sim.SimConfig(rounds=100_000, seed=7)
    rep = protocol_sim.run_protocol(SINGLET, cfg)
    assert rep.rounds_total == 100_000
    assert rep.rounds_filter_accepted == 100_000
    assert rep.accept_rate == 1.0
    assert rep.p_succ_analytic == 1.0
    assert rep.key_bits == rep.rounds_sifted
    assert rep.rounds_sifted == 44_994
    # perfect anticorrelations: not a single error can be sampled
    assert rep.q_emp == 0.0
    assert abs(rep.q_analytic) < 1e-15
    assert abs(rep.s_analytic - 2 * np.sqrt(2)) < 1e-12
    # ~10k test rounds; 3 sigma on S is about 0.085
    assert abs(rep.s_emp - 2 * np.sqrt(2)) < 0.085


def test_determinism_same_seed():
    cfg = protocol_sim.SimConfig(rounds=30_000, seed=123)
    w = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    assert protocol_sim.run_protocol(w, cfg) == protocol_sim.run_protocol(w, cfg)


def test_different_seed_differs():
    w = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    a = protocol_sim.run_protocol(w, protocol_sim.SimConfig(rounds=30_000, seed=1))
    b = protocol_sim.run_protocol(w, protocol_sim.SimConfig(rounds=30_000, seed=2))
    assert a != b


def test_qber_within_three_sigma_across_seeds():
    w = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    q = 0.1  # (2 - 0.8 - 0.8) / 4
    for seed in range(20):
        cfg = protocol_sim.SimConfig(rounds=50_000, seed=seed)
        rep = protocol_sim.run_protocol(w, cfg)
        assert abs(rep.q_analytic - q) < 1e-12
        sigma = np.sqrt(q * (1 - q) / rep.rounds_sifted)
        assert abs(rep.q_emp - q) < 3 * sigma, seed


def test_werner_large_run_frozen():
    w = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    cfg = protocol_sim.SimConfig(rounds=1_000_000, seed=7)
    rep = protocol_sim.run_protocol(w, cfg)
    assert abs(rep.q_emp - 0.10035562494578888) < 1e-12
    sigma = np.sqrt(0.1 * 0.9 / rep.rounds_sifted)
    assert abs(rep.q_emp - 0.1) < 3 * sigma


def test_gisin_filtered_run():
    cfg = protocol_sim.SimConfig(rounds=1_000_000, seed=7, with_filtering=True)
    rep = protocol_sim.run_protocol(GISIN, cfg)
    assert abs(rep.p_succ_analytic - 0.3956483157256776) < 1e-9
    assert abs(rep.q_analytic - 0.09180920635594034) < 1e-9
    # acceptance is a Bernoulli(p_succ) average over all rounds
    sig_a = np.sqrt(rep.p_succ_analytic * (1 - rep.p_succ_analytic)
                    / rep.rounds_total)
    assert abs(rep.accept_rate - rep.p_succ_analytic) < 3 * sig_a
    sig_q = np.sqrt(rep.q_analytic * (1 - rep.q_analytic) / rep.rounds_sifted)
    assert abs(rep.q_emp - rep.q_analytic) < 3 * sig_q
    assert rep.rounds_filter_accepted < rep.rounds_total
    assert rep.s_analytic > 2.0
    sig_s = 4 * np.sqrt(4.0 / (rep.rounds_filter_accepted
                               * cfg.chsh_test_fraction))
    assert abs(rep.s_emp - rep.s_analytic) < sig_s


def test_reports_frozen():
    """The Philox draw order and _BLOCK are a contract: a (state, config)
    pair gives the same report, field for field, across versions. Runs:
    filtered Gisin over one full and one partial block; psi- depolarized
    to 0.9 (negative signs, so Bob flips) with a 0.3 test fraction; no
    test rounds at all."""
    SR = protocol_sim.SimReport
    runs = [
        (GISIN, protocol_sim.SimConfig(
            rounds=protocol_sim._BLOCK + 12_345, seed=3, with_filtering=True),
         SR(rounds_total=536633, rounds_filter_accepted=212560,
            rounds_sifted=95922, key_bits=95922, q_emp=0.09117824899397427,
            s_emp=2.3191336414108896, accept_rate=0.39609938263207817,
            q_analytic=0.09180920635594034, s_analytic=2.309075825629066,
            p_succ_analytic=0.3956483157256779)),
        (states.depolarize(SINGLET, 0.9), protocol_sim.SimConfig(
            rounds=200_000, seed=5, chsh_test_fraction=0.3),
         SR(rounds_total=200000, rounds_filter_accepted=200000,
            rounds_sifted=69758, key_bits=69758, q_emp=0.049169987671664896,
            s_emp=2.549018953624346, accept_rate=1.0,
            q_analytic=0.05000000000000013, s_analytic=2.5455844122715705,
            p_succ_analytic=1.0)),
        (SINGLET, protocol_sim.SimConfig(
            rounds=1000, seed=9, chsh_test_fraction=0.0),
         SR(rounds_total=1000, rounds_filter_accepted=1000,
            rounds_sifted=494, key_bits=494, q_emp=0.0, s_emp=None,
            accept_rate=1.0, q_analytic=1.1102230246251565e-16,
            s_analytic=2.82842712474619, p_succ_analytic=1.0)),
    ]
    assert protocol_sim._BLOCK == 1 << 19
    for st, cfg, want in runs:
        assert protocol_sim.run_protocol(st, cfg) == want, cfg


def test_slices_give_the_numbers_of_one_call():
    """The simulator reads each draw in slices. numpy hands out the same
    numbers either way: random takes one 64-bit word per value, and
    integers(0, 2) one 32-bit half whose leftover stays in the bit
    generator, across odd lengths and random calls in between."""
    def uniforms(gen, m):
        return gen.random(m)

    def bits(gen, m):
        return gen.integers(0, 2, size=m)

    whole = np.random.Generator(np.random.Philox(17))
    sliced = np.random.Generator(np.random.Philox(17))
    for draw, n in [(uniforms, 1001), (bits, 999), (bits, 1000),
                    (uniforms, 7), (bits, 3)]:
        cuts = [c for c in (0, 1, 3, 336) if c < n] + [n]  # 1, 2, 333, rest
        parts = [draw(sliced, m) for m in np.diff(cuts)]
        assert np.array_equal(np.concatenate(parts), draw(whole, n)), n
    assert np.array_equal(sliced.random(5), whole.random(5))


def _uniforms(words):
    # Generator.random of each raw word: its top 53 bits over 2**53
    return (words >> 11) * 2.0 ** -53


# thresholds the simulator meets: filter and test-fraction edges, p_succ
_PROBS = [0.0, 5e-324, 2.0 ** -53, 0.1, np.nextafter(0.5, 0), 0.5,
          np.nextafter(0.5, 1), 0.3956483157256776, 1 - 2.0 ** -53, 1.0]


def test_raw_words_give_numpys_draws():
    """The simulator reads Philox's raw words in place of Generator calls.
    A word w is a flag random() < p exactly when w < _word_cut(p), on
    numpy's own draws and on the words at either side of every cut; the
    coin flips of _coin_flips are two consecutive integers(0, 2) calls,
    for odd and even lengths, with random reads before and after."""
    gen = np.random.Generator(np.random.Philox(23))
    words = np.random.Philox(23).random_raw(5000)
    u = gen.random(5000)
    assert np.array_equal(_uniforms(words), u)
    for p in _PROBS:
        cut = protocol_sim._word_cut(p)
        edge = np.array([c for c in (cut - 2049, cut - 1, cut, cut + 1,
                                     cut + 2048) if 0 <= c < 1 << 64],
                        dtype=np.uint64)
        for w, v in ((words, u), (edge, _uniforms(edge))):
            below = (w < np.uint64(cut) if cut < 1 << 64
                     else np.ones(len(w), dtype=bool))
            assert np.array_equal(below, v < p), p
            assert np.array_equal(~below, v >= p), p
    for m in (1, 2, 999, 1000):
        gen = np.random.Generator(np.random.Philox(m))
        raw = np.random.Philox(m).random_raw
        flips = protocol_sim._coin_flips(raw)
        want = [gen.random(3), gen.integers(0, 2, size=m),
                gen.integers(0, 2, size=m), gen.random(4)]
        got = [_uniforms(raw(3)), flips(m), flips(m), _uniforms(raw(4))]
        for g, w in zip(got, want):
            assert np.array_equal(g, w), m


def _old_count_rounds(cum, p_keep, config):
    # the block loop before draws were read in slices: whole-block arrays
    rng = np.random.Generator(np.random.Philox(config.seed))
    N = np.zeros(32, dtype=np.int64)
    left = int(config.rounds)
    while left > 0:
        n = min(protocol_sim._BLOCK, left)
        left -= n
        keep = (rng.random(n) < p_keep if config.with_filtering
                else slice(None))
        row = 4 * (rng.random(n) < config.chsh_test_fraction)
        row += 2 * rng.integers(0, 2, size=n)
        row += rng.integers(0, 2, size=n)
        uo = rng.random(n)
        key = 4 * row
        for bound in cum:
            key += uo > bound[row]
        N += np.bincount(key[keep], minlength=32)
    return N.reshape(8, 4)


def test_outcome_keys_on_words_beside_every_bound():
    """An outcome word keys 4 row + the number of the row's bounds below
    its uniform, as the Generator loop counts them, on words whose top 53
    bits sit at, one below and one above every bound's cut and every
    bucket edge next to it, whatever their low 11 bits; dropped rows key
    _DROPPED."""
    pool = [0.0, 2.0 ** -53, 3 * 2.0 ** -53, 0.25 - 2.0 ** -52,
            np.nextafter(0.25, 0), 0.25, np.nextafter(0.25, 1), 0.3,
            0.3 + 2.0 ** -54, 0.5 - 2.0 ** -52, 0.5 - 2.0 ** -53, 0.5,
            0.5 + 2.0 ** -52, 0.7, 0.7, 0.7,  # a row of repeated bounds
            127 / 256 + 2.0 ** -50, 1 - 2.0 ** -52, 1 - 2.0 ** -53, 1.0,
            1.0, 1 + 2e-12, 0.1, 0.9]
    cum = np.sort(np.reshape(pool, (8, 3)).T, axis=0)
    keys = protocol_sim._outcome_keys(cum)
    x = np.floor(cum * 2.0 ** 53).astype(np.int64)  # the cuts, (3, 8)
    x = np.concatenate([x, x >> 45 << 45, (x >> 45) + 1 << 45])
    x = np.concatenate([x - 1, x, x + 1]).clip(0, 2 ** 53 - 1).ravel()
    rows = np.broadcast_to(np.arange(8), (len(x) // 8, 8)).ravel()
    w = (x.astype(np.uint64) << 11) | np.random.default_rng(31).integers(
        0, 2 ** 11, x.size).astype(np.uint64)
    rows = rows.astype(np.int8)
    u = _uniforms(w)
    want = 4 * rows + (u > cum[:, rows]).sum(axis=0)
    assert np.array_equal(keys(w, rows), want)
    assert (keys(w, rows + 8) == protocol_sim._DROPPED).all()


# bounds on the outcome table's bucket edges h/256 and on k 2**-53 near 0
# and 1, each with its neighbours one ulp away, and a row summing to
# 1 + 2e-12, besides any in between; three picks per row may repeat
_EDGE_BOUNDS = sorted({float(f(b)) for b in
                       [h / 256 for h in range(257)]
                       + [k * 2.0 ** -53 for k in (0, 1, 2, 3)]
                       + [1 - k * 2.0 ** -53 for k in (1, 2, 3)]
                       + [1 + 2e-12]
                       for f in (lambda b: b, lambda b: np.nextafter(b, 0),
                                 lambda b: np.nextafter(b, 2))})
_SL, _BL = protocol_sim._SLICE, protocol_sim._BLOCK


@settings(derandomize=True, deadline=None, max_examples=40)
@given(rows=hst.lists(hst.lists(hst.sampled_from(_EDGE_BOUNDS)
                                | hst.floats(0, 1 + 2e-12),
                                min_size=3, max_size=3).map(sorted),
                      min_size=8, max_size=8),
       repeat=hst.booleans(),
       p_keep=hst.sampled_from([1.0, 1 - 2.0 ** -53, np.nextafter(0.5, 0),
                                0.5, np.nextafter(0.5, 1)]),
       frac=hst.sampled_from([0.0, 5e-324, 1 - 2.0 ** -53, 0.1]),
       rounds=hst.sampled_from([1, 3, _SL - 1, _SL + 1, 3 * _SL + 5,
                                _BL - 1, _BL + 1])
       | hst.integers(0, 3000).map(lambda i: 2 * i + 1),
       seed=hst.integers(0, 2 ** 32), filt=hst.booleans())
def test_count_rounds_matches_generator_loop_on_edges(rows, repeat, p_keep,
                                                      frac, rounds, seed,
                                                      filt):
    """_count_rounds, which reads raw words, counts what the whole-block
    Generator loop counts, with bounds on and beside the outcome table's
    bucket edges and 2**-53 steps, repeated bounds, p_keep and the test
    fraction at their extremes, and odd round counts across slice and
    block edges."""
    if repeat:
        rows[1] = [rows[1][0]] * 3
    cum = np.ascontiguousarray(np.array(rows).T)
    cfg = protocol_sim.SimConfig(rounds=rounds, seed=seed, with_filtering=filt,
                                 chsh_test_fraction=frac)
    assert np.array_equal(protocol_sim._count_rounds(cum, p_keep, cfg),
                          _old_count_rounds(cum, p_keep, cfg))


def _report_or_error(st, cfg):
    try:
        return protocol_sim.run_protocol(st, cfg)
    except ValueError as e:
        return repr(e)


def test_sliced_draws_match_whole_block_loop(monkeypatch):
    """Reports equal those of the whole-block loop across slice and block
    edges, with and without filtering, on states of rank 1 to 4 and psi-
    depolarized (negative signs)."""
    rng = np.random.default_rng(89)
    sts = [states.TwoQubitState(random_density_matrix(rng, rank=k))
           for k in (1, 2, 3, 4)] + [states.depolarize(SINGLET, 0.9)]
    sl, bl = protocol_sim._SLICE, protocol_sim._BLOCK
    rounds = [1, sl - 1, sl + 1, bl - 1, bl + 1, 700_001]
    cfgs = [protocol_sim.SimConfig(rounds=n, seed=n % 101 + k,
                                   with_filtering=filt,
                                   chsh_test_fraction=frac)
            for k, n in enumerate(rounds)
            for filt in (False, True) for frac in (0.0, 0.1, 0.3)]
    runs = [(st, c) for st in sts for c in cfgs]
    new = [_report_or_error(*run) for run in runs]
    assert sum(isinstance(r, str) for r in new) < len(new) // 4
    monkeypatch.setattr(protocol_sim, "_count_rounds", _old_count_rounds)
    for run, rep in zip(runs, new):
        assert _report_or_error(*run) == rep, run[1]


def test_run_memory_does_not_grow_with_rounds():
    """A block holds one int8 code per round and every draw is read in
    slices, so a long run stays within a few MiB of Python allocations."""
    cfg = protocol_sim.SimConfig(rounds=2_000_000, seed=1,
                                 with_filtering=True)
    tracemalloc.start()
    try:
        protocol_sim.run_protocol(GISIN, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak / 2 ** 20


def test_simulate_agrees_with_filter():
    """A filtered run samples the state filter reports, sigma / sigma0:
    p_succ and q are filter's own bits and S is within 1e-12 of its S_max.
    An unfiltered run reads q and S off correlation_spectrum and
    _chsh."""
    rng = np.random.default_rng(97)
    werner = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    bell = [states.bell_state(k).rho for k in ("phi+", "phi-", "psi+", "psi-")]
    sts = [GISIN] + [
        states.TwoQubitState(filtered(st.rho, random_filter(rng),
                                      random_filter(rng)))
        for st in (werner, GISIN) for _ in range(3)] + [
        states.TwoQubitState(np.tensordot(rng.dirichlet(np.ones(4)), bell, 1))
        for _ in range(4)] + [
        states.TwoQubitState(random_density_matrix(rng, rank=1 + i % 4))
        for i in range(8)]
    for i, st in enumerate(sts):
        out = filtering.filtered_key_rate(st)
        rep = protocol_sim.run_protocol(st, protocol_sim.SimConfig(
            rounds=2_000, seed=i, with_filtering=True))
        assert rep.p_succ_analytic == out.p_succ, i
        assert rep.q_analytic == out.after.q, i
        assert abs(rep.s_analytic - out.after.s_max) < 1e-12, i
        rep = protocol_sim.run_protocol(
            st, protocol_sim.SimConfig(rounds=2_000, seed=i))
        spec = metrics.correlation_spectrum(st)
        assert rep.q_analytic == metrics.qber(spec, 2), i
        assert rep.s_analytic == metrics._chsh(
            states.to_mueller(st).m[1:, 1:],
            metrics.optimal_chsh_settings(spec)), i


def test_filtering_requires_diagonal_form():
    cfg = protocol_sim.SimConfig(rounds=100, seed=0, with_filtering=True)
    with pytest.raises(filtering.XFormError):
        protocol_sim.run_protocol(states.TwoQubitState(RHO_X), cfg)


def test_zero_sifted_rounds_rejected():
    cfg = protocol_sim.SimConfig(rounds=1, seed=0, chsh_test_fraction=0.99)
    with pytest.raises(ValueError, match="zero sifted"):
        protocol_sim.run_protocol(SINGLET, cfg)


def test_no_test_rounds_gives_no_chsh_estimate():
    cfg = protocol_sim.SimConfig(rounds=2_000, seed=5, chsh_test_fraction=0.0)
    rep = protocol_sim.run_protocol(SINGLET, cfg)
    assert rep.s_emp is None
    assert rep.q_emp == 0.0
    assert rep.rounds_sifted > 0


def test_report_consistency_against_metrics():
    w = states.make_family(states.FamilySpec(variant="werner", p=0.9))
    cfg = protocol_sim.SimConfig(rounds=20_000, seed=11)
    rep = protocol_sim.run_protocol(w, cfg)
    spec = metrics.correlation_spectrum(w)
    assert abs(rep.q_analytic - metrics.qber(spec, 2)) < 1e-15
    assert abs(rep.s_analytic - metrics.chsh_max(spec)) < 1e-9
