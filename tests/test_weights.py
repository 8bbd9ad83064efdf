"""Tests for weight models, moments, the characteristic exponent, and
structural checks."""

import math

import numpy as np
import pytest

from branchfix.branching import simulate_tree
from branchfix.seeding import child_seed, unit_uniform
from branchfix.weights import (
    BernoulliCascade,
    Deterministic,
    FiniteAtoms,
    ModelError,
    atom_table,
    characteristic_exponent,
    check_assumptions,
    detect_lattice,
    extinction_probability,
    moment_m,
)


# ---------------------------------------------------------------------------
# models and sampling
# ---------------------------------------------------------------------------


def _sample_steps(model, seed):
    """``-log T_i`` of the positive weights of one draw of ``T`` from
    ``seed``: generation 1 of the tree rooted there."""
    return tuple(simulate_tree(model, 1, seed).generations[1].tolist())


def test_deterministic_sample_is_constant():
    want = tuple(-atom_table(Deterministic(0.5, 0.5)).log_weights[0])
    assert want == (math.log(2.0), math.log(2.0))
    assert _sample_steps(Deterministic(0.5, 0.5), seed=7) == want
    assert _sample_steps(Deterministic(0.5, 0.5), seed=12345) == want


def test_cascade_theta_one_forces_all_decrements():
    # theta = 1 makes every Bernoulli indicator fire, so both weights are 1/e.
    assert _sample_steps(BernoulliCascade(2, 1.0), seed=99) == (1.0, 1.0)


def test_sample_is_deterministic_in_seed():
    model = BernoulliCascade(2, 0.5)
    draws = {_sample_steps(model, seed=s) for s in range(20)}
    # same seed -> same vector, and the seed ensemble hits both weight values
    for s in range(20):
        assert _sample_steps(model, seed=s) == _sample_steps(model, seed=s)
    flat = {w for vec in draws for w in vec}
    assert flat == {0.0, 1.0}


def test_atom_sample_draws_from_the_seed_itself():
    # One draw: the atom of min(searchsorted(cum, u, "right"), K-1) for the
    # uniform u of the seed itself; its positive weights, in order, are the
    # children.
    model = FiniteAtoms([(0.25, (0.2, 0.0, 1.5)), (0.5, (0.8,)), (0.25, (1.0, 0.4, 0.1))])
    table = atom_table(model)
    cum = np.cumsum(table.probs)
    for seed in range(50):
        k = min(int(np.searchsorted(cum, unit_uniform(seed), side="right")), len(cum) - 1)
        assert _sample_steps(model, seed) == tuple(-table.log_weights[k])


def test_finite_atoms_validation():
    with pytest.raises(ModelError):
        FiniteAtoms([(0.7, (1.0,))])  # probabilities must sum to 1
    with pytest.raises(ModelError):
        FiniteAtoms([(0.5, (1.0,)), (0.5, (-2.0,))])  # negative weight
    with pytest.raises(ModelError):
        BernoulliCascade(1, 0.5)  # N >= 2
    with pytest.raises(ModelError):
        BernoulliCascade(2, 1.5)  # theta in [0, 1]


def test_deterministic_is_the_one_atom_law():
    for model in (Deterministic(0.5, 0.5), Deterministic([0.5, 0.5]),
                  Deterministic(np.array([0.5, 0.5]))):
        assert isinstance(model, FiniteAtoms)
        assert model.atoms == ((1.0, (0.5, 0.5)),) and model.weights == (0.5, 0.5)


# The 2^20-atom cap is left out: reaching it builds a million atoms.
@pytest.mark.parametrize("call, error, message", [
    (lambda: FiniteAtoms([]), ModelError, "at least one atom is required"),
    (lambda: FiniteAtoms([(math.nan, (1.0,))]), ModelError,
     "atom 0: probability must be finite and >= 0"),
    (lambda: FiniteAtoms([(0.5, (1.0,)), (0.5, ())]), ModelError, "atom 1: empty weight vector"),
    (lambda: FiniteAtoms([(1.0, (0.0, 0.0))]), ModelError,
     "atom 0: needs at least one strictly positive weight"),
    (lambda: Deterministic(), ModelError, "atom 0: empty weight vector"),
    (lambda: Deterministic(0.5, math.inf), ModelError, "atom 0: weights must be finite and >= 0"),
    (lambda: Deterministic([0.0]), ModelError,
     "atom 0: needs at least one strictly positive weight"),
    (lambda: moment_m(Deterministic(0.5, 0.5), -1.0), ValueError,
     "beta must be finite and >= 0"),
    (lambda: atom_table("cascade"), TypeError, "not a weight model: 'cascade'"),
])
def test_weights_input_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_atom_table_cascade_two_atom_law():
    # N i.i.d. copies of {exp(-1): theta, 1: 1 - theta}; exp(-1) comes first
    # so that a uniform u < theta draws it, and its log-weight is exactly -1.
    table = atom_table(BernoulliCascade(5, 0.75))
    assert table.copies == 5
    np.testing.assert_array_equal(table.probs, [0.75, 0.25])
    assert table.full_weights == ((math.exp(-1.0),), (1.0,))
    assert [lw.tolist() for lw in table.log_weights] == [[-1.0], [0.0]]
    assert atom_table(Deterministic(0.5, 0.5)).copies == 1
    assert atom_table(FiniteAtoms([(1.0, (0.5,))])).copies == 1


def test_cascade_sample_draws_one_child_seed_per_coordinate():
    # Coordinate i is exp(-1) (step 1) exactly when the uniform of
    # child_seed(seed, i) falls below theta.
    model = BernoulliCascade(6, 0.4)
    for seed in range(50):
        want = tuple(1.0 if unit_uniform(child_seed(seed, i)) < 0.4 else 0.0 for i in range(6))
        assert _sample_steps(model, seed) == want


# ---------------------------------------------------------------------------
# moment function m
# ---------------------------------------------------------------------------


def test_moment_closed_form_cascade():
    model = BernoulliCascade(2, 0.75)
    for beta in np.linspace(0.0, 5.0, 21):
        want = 2.0 * (0.75 * math.exp(-beta) + 0.25)
        np.testing.assert_allclose(moment_m(model, beta), want, rtol=1e-14)
    # the root: m(ln 3) = 2 (3/4 * 1/3 + 1/4) = 1
    np.testing.assert_allclose(moment_m(model, math.log(3.0)), 1.0, rtol=1e-14)


def test_moment_counts_children_at_zero():
    assert moment_m(Deterministic(0.5, 0.5), 0.0) == 2.0
    assert moment_m(BernoulliCascade(3, 0.2), 0.0) == 3.0


def test_moment_deterministic_power_law():
    model = Deterministic(0.5, 0.5)
    for beta in [0.0, 0.3, 1.0, 2.5, 7.0]:
        np.testing.assert_allclose(moment_m(model, beta), 2.0 ** (1.0 - beta), rtol=1e-14)


def test_moment_dual_route_atoms_vs_cascade():
    # A cascade and its explicit atom enumeration are the same model, so the
    # two m implementations (closed form vs atom summation) must agree.
    theta = 0.35
    cascade = BernoulliCascade(2, theta)
    e = math.exp(-1.0)
    atoms = FiniteAtoms(
        [
            ((1 - theta) ** 2, (1.0, 1.0)),
            (2 * theta * (1 - theta), (e, 1.0)),
            (theta**2, (e, e)),
        ]
    )
    for beta in np.linspace(0.0, 8.0, 17):
        np.testing.assert_allclose(
            moment_m(cascade, beta), moment_m(atoms, beta), rtol=1e-13
        )


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------


def test_exponent_cascade_ln3():
    res = characteristic_exponent(BernoulliCascade(2, 0.75))
    np.testing.assert_allclose(res.alpha, math.log(3.0), atol=1e-10)


def test_exponent_cascade_log_nine_fourths():
    # e^{-alpha} = (1 - N(1-theta)) / (N theta) = 0.8/1.8 = 4/9
    res = characteristic_exponent(BernoulliCascade(2, 0.9))
    np.testing.assert_allclose(res.alpha, math.log(9.0 / 4.0), atol=1e-10)


def test_exponent_deterministic_half_half():
    res = characteristic_exponent(Deterministic(0.5, 0.5))
    np.testing.assert_allclose(res.alpha, 1.0, atol=1e-10)


@pytest.mark.parametrize("model, reason", [
    # m(beta) = e^{-beta} + 1 > 1 for every beta: there is no root, and the
    # search must not mistake the asymptotic approach to 1 for a crossing.
    (BernoulliCascade(2, 0.5), "m(beta) > 1"),
    (Deterministic(1.0), "m(beta) = 1 identically"),  # one child of weight 1
    (Deterministic(0.5), "m(beta) < 1 on the whole interval"),  # m = 2^-beta
], ids=["critical-cascade", "degenerate", "below-one"])
def test_exponent_none_names_the_reason(model, reason):
    res = characteristic_exponent(model)
    assert res.alpha is None
    assert reason in res.reason


def test_exponent_none_when_m_exceeds_one():
    res = characteristic_exponent(Deterministic(2.0, 1.0))
    assert res.alpha is None


def test_exponent_skips_trivial_root_at_zero():
    # Single-child atoms make m(0) = 1 exactly; the minimal *positive* root
    # is the later climbing crossing.  With T in {2, 1/4} equally likely,
    # m(beta) = (2^beta + 4^{-beta}) / 2 and the root solves x^3 - 2x^2 + 1 = 0
    # in x = 2^beta, giving x = (1 + sqrt 5)/2.
    model = FiniteAtoms([(0.5, (2.0,)), (0.5, (0.25,))])
    res = characteristic_exponent(model)
    want = math.log2((1.0 + math.sqrt(5.0)) / 2.0)
    np.testing.assert_allclose(res.alpha, want, atol=1e-9)


# ---------------------------------------------------------------------------
# lattice detection
# ---------------------------------------------------------------------------


def test_lattice_cascade_is_e_geometric():
    info = detect_lattice(BernoulliCascade(2, 0.25))
    assert info.kind == "geometric"
    np.testing.assert_allclose(info.r, math.e, rtol=1e-12)


def test_lattice_dyadic():
    info = detect_lattice(Deterministic(0.5, 0.25))
    assert info.kind == "geometric"
    np.testing.assert_allclose(info.r, 2.0, rtol=1e-12)


def test_lattice_continuous():
    # log 2 / log 3 is irrational; no common generator exists.
    info = detect_lattice(Deterministic(0.5, 1.0 / 3.0))
    assert info.kind == "continuous"
    assert info.r is None


def test_lattice_trivial_degenerate():
    info = detect_lattice(Deterministic(1.0, 1.0))
    assert info.kind == "trivial-degenerate"


# ---------------------------------------------------------------------------
# structural assumptions
# ---------------------------------------------------------------------------


def test_assumptions_cascade():
    rep = check_assumptions(BernoulliCascade(2, 0.75))
    assert rep.a1 and rep.a2 and rep.a3 and rep.a4
    assert not rep.degenerate_sup_one
    assert not rep.sup_ge_one


def test_assumptions_degenerate_sup_one():
    rep = check_assumptions(Deterministic(1.0, 0.5))
    assert rep.degenerate_sup_one


def test_assumptions_sup_exceeds_one():
    rep = check_assumptions(Deterministic(2.0, 1.0))
    assert rep.sup_ge_one
    assert not rep.degenerate_sup_one


# ---------------------------------------------------------------------------
# extinction probability
# ---------------------------------------------------------------------------


def test_extinction_never_zero_children():
    # P(0 children) = 0 -> survival is certain.
    assert extinction_probability([0.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-13)


def test_extinction_immediate():
    assert extinction_probability([1.0]) == 1.0


def test_extinction_binomial_two_three_quarters():
    # s = (1/4 + 3/4 s)^2  ->  9 s^2 - 10 s + 1 = 0  ->  (9s - 1)(s - 1) = 0,
    # minimal root s = 1/9.
    pgf = [1 / 16, 6 / 16, 9 / 16]
    np.testing.assert_allclose(extinction_probability(pgf), 1.0 / 9.0, atol=1e-12)


def test_extinction_rejects_bad_vector():
    with pytest.raises(ValueError):
        extinction_probability([0.5, 0.6])
    with pytest.raises(ValueError):
        extinction_probability([])
