import numpy as np
import pytest
from scipy.linalg import expm

from unravel import hilbert
from unravel.errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    InvariantViolationError,
    TruncationError,
)
from unravel.hilbert import (
    DensityMatrix,
    FockWorkspace,
    LindbladModel,
    PAULI_X,
    SIGMA_MINUS,
    liouvillian_matrix,
    lindblad_rhs,
    overlap,
    propagate,
    purity,
    steady_state,
    trace_distance,
)

from unravel.gaussian import QbmParams
from unravel.systems import build_qbm_oracle

from oracles import bloch


def tla_model(omega=1.0, gamma=1.0):
    return LindbladModel(0.5 * omega * PAULI_X, [np.sqrt(gamma) * SIGMA_MINUS])


EXCITED = DensityMatrix(np.diag([1.0, 0.0]))
GROUND = DensityMatrix(np.diag([0.0, 1.0]))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolationError):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvariantViolationError):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # every comparison with NaN is False, so no invariant check sees one
        for elements in ([[bad, 0.0], [0.0, 0.5]], np.full((2, 2), bad)):
            with pytest.raises(InvariantViolationError, match="non-finite"):
                DensityMatrix(elements)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_model_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvariantViolationError, match="non-finite"):
            LindbladModel(np.diag([bad, 0.0]))
        with pytest.raises(InvariantViolationError, match="non-finite"):
            LindbladModel(np.zeros((2, 2)), [np.array([[0.0, 0.0], [bad, 0.0]])])

    def test_from_ket_normalizes(self):
        rho = DensityMatrix.from_ket([2.0, 0.0])
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


class TestPurityOverlap:
    def test_maximally_mixed_qubit(self):
        assert purity(DensityMatrix.maximally_mixed(2)) == pytest.approx(0.5)

    def test_pure_state(self):
        assert purity(EXCITED) == pytest.approx(1.0)

    def test_tla_steady_state_at_equal_rates(self):
        # Bloch solve by hand: y = 2/3, z = -1/3 -> (1 + 5/9)/2 = 7/9
        rho = steady_state(tla_model(1.0, 1.0))
        assert purity(rho) == pytest.approx(7.0 / 9.0, abs=1e-9)

    def test_overlap_identical_pure(self):
        assert overlap(EXCITED, EXCITED) == pytest.approx(1.0)

    def test_overlap_orthogonal(self):
        assert overlap(EXCITED, GROUND) == pytest.approx(0.0)

    def test_overlap_bloch_perpendicular(self):
        rho1 = EXCITED                                     # Bloch (0, 0, 1)
        rho2 = DensityMatrix(0.5 * np.ones((2, 2)))        # Bloch (1, 0, 0)
        assert overlap(rho1, rho2) == pytest.approx(0.5)

    def test_overlap_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = a @ a.conj().T
            rho1 = DensityMatrix(m / m.trace())
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m2 = b @ b.conj().T
            rho2 = DensityMatrix(m2 / m2.trace())
            assert overlap(rho1, rho2) == pytest.approx(overlap(rho2, rho1), abs=1e-12)

    def test_overlap_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            overlap(EXCITED, DensityMatrix.maximally_mixed(3))


class TestLindbladRhs:
    def test_decay_rate_from_excited(self):
        # D[sqrt(gamma) sigma_-] in Bloch form gives zdot = -gamma(z+1) = -2 gamma at z=+1
        gamma = 1.7
        model = LindbladModel(np.zeros((2, 2)), [np.sqrt(gamma) * SIGMA_MINUS])
        rhs = lindblad_rhs(model, EXCITED)
        dz = np.real(rhs[0, 0] - rhs[1, 1])
        assert dz == pytest.approx(-2 * gamma, abs=1e-12)
        assert abs(rhs.trace()) < 1e-12

    def test_steady_state_is_fixed_point(self):
        model = tla_model(0.8, 1.3)
        rho = steady_state(model)
        assert np.abs(lindblad_rhs(model, rho)).max() < 1e-9

    def test_identity_commutes_with_hamiltonian(self):
        model = LindbladModel(np.diag([1.0, -2.0, 0.5]))
        rho = DensityMatrix.maximally_mixed(3)
        assert np.abs(lindblad_rhs(model, rho)).max() < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lindblad_rhs(tla_model(), DensityMatrix.maximally_mixed(3))


class TestPropagate:
    def test_zero_duration_identity(self):
        rho = propagate(tla_model(), EXCITED, 0.0)
        assert rho is EXCITED

    def test_raw_matrix_comes_back_as_density_matrix(self):
        model = tla_model()
        for duration in (0.0, 0.1):
            rho = propagate(model, np.diag([1.0, 0.0]), duration)
            assert isinstance(rho, DensityMatrix)
        assert np.array_equal(propagate(model, np.diag([1.0, 0.0]), 0.0).matrix,
                              EXCITED.matrix)

    def test_pure_decay_closed_form(self):
        # Omega = 0: <sigma_z>(t) = 2 exp(-gamma t) - 1
        gamma = 1.0
        model = tla_model(0.0, gamma)
        for t in (0.3, 1.0, 2.5):
            rho = propagate(model, EXCITED, t)
            z = bloch(rho)[2]
            assert z == pytest.approx(2 * np.exp(-gamma * t) - 1, abs=1e-12)

    def test_relaxes_to_steady_state(self):
        model = tla_model(2.0, 1.0)
        rho_inf = propagate(model, EXCITED, 30.0)
        assert trace_distance(rho_inf, steady_state(model)) < 1e-6

    def test_semigroup_property(self):
        model = tla_model(1.5, 1.0)
        one_shot = propagate(model, EXCITED, 2.0)
        two_step = propagate(model, propagate(model, EXCITED, 0.8), 1.2)
        assert trace_distance(one_shot, two_step) < 1e-12

    def test_purity_nonincreasing_initially(self):
        model = LindbladModel(np.zeros((2, 2)), [SIGMA_MINUS])
        p0 = purity(EXCITED)
        p1 = purity(propagate(model, EXCITED, 0.05))
        assert p1 <= p0 + 1e-12

    def test_outputs_valid_states(self):
        model = tla_model(3.0, 1.0)
        rho = propagate(model, EXCITED, 1.0)
        m = rho.matrix
        assert np.abs(m - m.conj().T).max() < 1e-10
        assert abs(m.trace() - 1) < 1e-9
        assert np.linalg.eigvalsh(m).min() > -1e-9


class TestSteadyState:
    def test_no_driving_gives_ground(self):
        rho = steady_state(tla_model(0.0, 1.0))
        assert trace_distance(rho, GROUND) < 1e-10

    def test_bloch_solution(self):
        rho = steady_state(tla_model(1.0, 1.0))
        assert bloch(rho) == pytest.approx((0.0, 2.0 / 3.0, -1.0 / 3.0), abs=1e-10)

    def test_hamiltonian_only_is_degenerate(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(LindbladModel(np.diag([1.0, -1.0])))


class TestFockWorkspace:
    def test_commutator_on_lower_block(self):
        ws = FockWorkspace(20)
        comm = ws.position @ ws.momentum - ws.momentum @ ws.position
        assert np.abs(comm[:18, :18] - 1j * np.eye(18)).max() < 1e-8

    def test_tail_check(self):
        ws = FockWorkspace(10)
        ground = np.zeros((10, 10), dtype=complex)
        ground[0, 0] = 1.0
        ws.check_tail(ground)
        top = np.zeros((10, 10), dtype=complex)
        top[9, 9] = 1.0
        with pytest.raises(TruncationError):
            ws.check_tail(top)


def _random_states(rng, n, d):
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    m = a @ np.conj(np.swapaxes(a, 1, 2))
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


# one model on each route of propagate_matrices: d = 2 and the d = 12 Fock oracle
ROUTE_MODELS = [tla_model(1.3, 0.7), build_qbm_oracle(QbmParams(0.5), 12)[0]]
ROUTE_IDS = ["dense-d2", "sparse-fock12"]


class TestBatchedPropagation:
    def test_rhs_of_a_stack_is_the_stack_of_rhs(self):
        model = tla_model(1.2, 1.0)
        stack = np.stack([EXCITED.matrix, GROUND.matrix, 0.5 * np.ones((2, 2))])
        out = lindblad_rhs(model, stack)
        for m, rho in zip(out, stack):
            assert np.abs(m - lindblad_rhs(model, rho)).max() < 1e-15

    @pytest.mark.parametrize("model", ROUTE_MODELS, ids=ROUTE_IDS)
    def test_matches_scalar_path(self, model):
        # a streamed stack against each member propagated alone in one step
        mats = _random_states(np.random.default_rng(8), 4, model.dim)
        for t, out in hilbert.propagate_matrices(model, mats, [0.05, 0.3, 1.0]):
            for m, rho0 in zip(out, mats):
                assert np.abs(m - propagate(model, rho0, t).matrix).max() < 1e-13


class TestExactPropagation:
    """Each route of propagate_matrices (dense exponential per step at
    d <= 8, action of the sparse exponential above) against the dense
    exponential of the generator taken here."""

    @pytest.mark.parametrize("model", ROUTE_MODELS, ids=ROUTE_IDS)
    def test_route_matches_dense_exponential(self, model, monkeypatch):
        calls, sparse_route = [], hilbert.expm_multiply
        monkeypatch.setattr(hilbert, "expm_multiply",
                            lambda *a: calls.append(1) or sparse_route(*a))
        d = model.dim
        mats = _random_states(np.random.default_rng(7), 3, d)
        liou = liouvillian_matrix(model).toarray()
        times = [0.0, 0.1, 0.25, 0.25, 0.7]
        for t, out in hilbert.propagate_matrices(model, mats, times):
            want = (mats.reshape(3, -1) @ expm(liou * t).T).reshape(mats.shape)
            assert np.abs(out - want).max() < 1e-12, (t, np.abs(out - want).max())
        assert bool(calls) == (d > hilbert._DENSE_PROPAGATOR_DIM)

    def test_rejects_a_decreasing_grid(self):
        with pytest.raises(ValueError):
            next(hilbert.propagate_matrices(tla_model(), EXCITED.matrix, [0.5, 0.2]))
