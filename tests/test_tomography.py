from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from graphqec import kernel, tomography
from graphqec.code import PROBES, PROBE_NAMES, encode, logical_basis_states
from graphqec.kernel import DensityOperator, PureState, maximally_mixed
from graphqec.sampling import NoiseModel, apply_noise
from graphqec.tomography import (ChannelSample, ChiMatrix, LogicalDensityMatrix,
                                 average_probe_fidelity, bloch_affine, bloch_image,
                                 chi_hadamard, chi_identity, chi_of_unitary,
                                 logical_density_from_expectations, logical_tomography,
                                 process_fidelity, reconstruct_chi, sphere_average_fidelity,
                                 state_fidelity)


def ideal_logical_outputs() -> ChannelSample:
    """Exact logical density matrices of the four encoded probes."""
    outputs = {}
    for probe in PROBE_NAMES:
        _, state = encode(PROBES[probe], forced_s3=0)
        outputs[probe] = logical_tomography(state)
    return ChannelSample(outputs)


def channel_sample_from_map(channel) -> ChannelSample:
    outputs = {}
    for probe in PROBE_NAMES:
        v = PROBES[probe].vector
        outputs[probe] = DensityOperator((1,), channel(np.outer(v, v.conj())))
    return ChannelSample(outputs)


class TestLogicalTomography:
    def test_logical_plus(self):
        ldm = logical_tomography(logical_basis_states()["+"])
        np.testing.assert_allclose(ldm.matrix, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-10)

    def test_logical_zero(self):
        ldm = logical_tomography(logical_basis_states()["0"])
        np.testing.assert_allclose(ldm.matrix, np.diag([1.0, 0.0]), atol=1e-10)

    def test_maximally_mixed(self):
        ldm = logical_tomography(maximally_mixed((1, 2, 4, 5)))
        np.testing.assert_allclose(ldm.matrix, np.eye(2) / 2, atol=1e-12)

    def test_hadamard_image_of_probe_bloch(self):
        for probe in PROBE_NAMES:
            _, state = encode(PROBES[probe], forced_s3=0)
            ex, ey, ez = logical_tomography(state).bloch
            px, py, pz = PROBES[probe].bloch
            # encoding rotates by a Hadamard: (x, y, z) -> (z, -y, x)
            np.testing.assert_allclose((ex, ey, ez), (pz, -py, px), atol=1e-10)

    def test_sampled_negativity_flagging(self):
        ldm = logical_density_from_expectations(1.0, 0.04, 0.0)
        assert ldm.negative_eigenvalue
        with pytest.raises(ValueError, match="unphysical"):
            logical_density_from_expectations(1.0, 0.5, 0.0)


class TestStateFidelity:
    def test_pure_self(self):
        state = logical_basis_states()["0"]
        assert abs(state_fidelity(state.density(), state) - 1) < 1e-12

    def test_mixed_vs_pure_half(self):
        assert abs(state_fidelity(maximally_mixed((1,)),
                                  PureState.single(1, kernel.PLUS)) - 0.5) < 1e-12

    def test_white_noise_analytic(self):
        target = logical_basis_states()["+"]
        for v in (0.2, 0.56, 0.9):
            rho = apply_noise(target, NoiseModel(visibility=v))
            expected = v + (1 - v) / 16
            assert abs(state_fidelity(rho, target) - expected) < 1e-12


class TestReconstructChi:
    def test_identity_channel(self):
        chi = reconstruct_chi(channel_sample_from_map(lambda r: r))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        np.testing.assert_allclose(chi.matrix, expected, atol=1e-12)

    def test_ideal_encoding_is_hadamard(self):
        chi = reconstruct_chi(ideal_logical_outputs())
        expected = np.zeros((4, 4))
        for i in (1, 3):
            for j in (1, 3):
                expected[i, j] = 0.5
        np.testing.assert_allclose(chi.matrix, expected, atol=1e-8)
        assert abs(process_fidelity(chi, chi_hadamard()) - 1) < 1e-8

    @pytest.mark.parametrize("p", [0.1, 0.37, 0.8])
    def test_depolarizing_chi(self, p):
        def channel(rho):
            out = (1 - 3 * p / 4) * rho
            for m in (kernel.X, kernel.Y, kernel.Z):
                out = out + (p / 4) * m @ rho @ m
            return out
        chi = reconstruct_chi(channel_sample_from_map(channel))
        np.testing.assert_allclose(np.diag(chi.matrix).real,
                                   [1 - 3 * p / 4, p / 4, p / 4, p / 4], atol=1e-10)
        np.testing.assert_allclose(chi.matrix - np.diag(np.diag(chi.matrix)),
                                   np.zeros((4, 4)), atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_kraus_channel_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        isometry, _ = np.linalg.qr(m)  # 4x2 isometry: two Kraus operators
        kraus = [isometry[0:2, :], isometry[2:4, :]]

        def channel(rho):
            return sum(k @ rho @ k.conj().T for k in kraus)

        chi = reconstruct_chi(channel_sample_from_map(channel))
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            np.testing.assert_allclose(oracle.chi_apply(chi.matrix, rho), channel(rho),
                                       atol=1e-8)

    def test_missing_probe_rejected(self):
        sample = channel_sample_from_map(lambda r: r)
        outputs = dict(sample.outputs)
        del outputs["+y"]
        with pytest.raises(ValueError, match="missing probes"):
            ChannelSample(outputs)

    def test_two_qubit_output_rejected(self):
        outputs = dict(channel_sample_from_map(lambda r: r).outputs)
        outputs["+"] = maximally_mixed((1, 2))
        with pytest.raises(ValueError, match="'\\+' is not a single qubit"):
            ChannelSample(outputs)


class TestPtmCache:
    """A chi's PTM is computed once, read-only, as the change of basis gives
    it; a reconstructed chi, built without the constructor's check, is
    exactly Hermitian."""

    @staticmethod
    def random_sample(rng) -> ChannelSample:
        # reconstruct_chi reads only the matrices: any complex 2x2 will do
        return ChannelSample({p: SimpleNamespace(matrix=rng.normal(size=(2, 2))
                                                 + 1j * rng.normal(size=(2, 2)))
                              for p in PROBE_NAMES})

    @pytest.mark.parametrize("make", [chi_identity, chi_hadamard,
                                      lambda: reconstruct_chi(ideal_logical_outputs()),
                                      lambda: ChiMatrix(np.diag([0.7, 0.1, 0.1, 0.1]))])
    def test_ptm_is_cached_read_only_and_exact(self, make):
        chi = make()
        ptm = chi.ptm
        assert chi.ptm is ptm
        assert not ptm.flags.writeable
        with pytest.raises(ValueError):
            ptm[0, 0] = 2.0
        want = (tomography._CHI_TO_PTM @ chi.matrix.reshape(-1)).real.reshape(4, 4)
        assert np.array_equal(ptm, want)
        r, t = bloch_affine(chi)
        assert np.array_equal(r, want[1:, 1:]) and np.array_equal(t, want[1:, 0])

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstructed_chi_is_exactly_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            chi = reconstruct_chi(self.random_sample(rng))
            assert np.array_equal(chi.matrix, chi.matrix.conj().T)
            assert not chi.matrix.flags.writeable

    def test_nan_expectation_refused_before_chi(self):
        """A reconstructed chi is not re-checked, so a NaN logical output is
        refused where it is built."""
        with pytest.raises(ValueError, match="unphysical: eigenvalue nan"):
            logical_density_from_expectations(np.nan, 0.0, 0.0)


class TestLogicalDensityMatrixCheck:
    def test_nan_matrix_and_expectations_refused(self):
        """A directly built NaN logical state is refused at its constructor,
        so it never reaches ``reconstruct_chi``, which does not re-check."""
        nan = float("nan")
        with pytest.raises(ValueError, match="matrix must be a finite 2x2"):
            LogicalDensityMatrix(np.full((2, 2), np.nan), (nan,) * 3)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_entries_refused_by_field(self, bad):
        mat = np.eye(2, dtype=complex) / 2
        for entry in (bad, complex(0.0, bad)):
            for index in ((0, 0), (0, 1)):
                m = mat.copy()
                m[index] = entry
                with pytest.raises(ValueError, match="matrix must be a finite 2x2"):
                    LogicalDensityMatrix(m, (0.0, 0.0, 0.0))
        for i in range(3):
            ex = [0.0, 0.0, 0.0]
            ex[i] = bad
            with pytest.raises(ValueError, match="expectations must be three finite floats"):
                LogicalDensityMatrix(mat, tuple(ex))

    def test_shape_and_count_refused(self):
        with pytest.raises(ValueError, match="matrix must be a finite 2x2"):
            LogicalDensityMatrix(np.eye(4) / 4, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="expectations must be three finite floats"):
            LogicalDensityMatrix(np.eye(2) / 2, (0.0, 0.0))
        with pytest.raises(ValueError, match="expectations must be three finite floats"):
            LogicalDensityMatrix(np.eye(2) / 2, (0.0, "0", 0.0))

    def test_expectations_stored_as_floats(self):
        ldm = LogicalDensityMatrix(np.eye(2) / 2, (0, np.float64(0.5), np.int64(0)))
        assert ldm.expectations == (0.0, 0.5, 0.0)
        assert all(type(e) is float for e in ldm.expectations)


class TestProcessFidelity:
    def test_self_is_one(self):
        assert abs(process_fidelity(chi_hadamard(), chi_hadamard()) - 1) < 1e-12

    def test_hadamard_vs_identity_is_zero(self):
        assert abs(process_fidelity(chi_hadamard(), chi_identity())) < 1e-12

    def test_depolarizing_vs_identity(self):
        p = 0.3
        mat = np.diag([1 - 3 * p / 4, p / 4, p / 4, p / 4]).astype(complex)
        assert abs(process_fidelity(ChiMatrix(mat), chi_identity()) - (1 - 3 * p / 4)) < 1e-12

    def test_symmetric(self):
        a, b = chi_hadamard(), chi_of_unitary(kernel.S)
        assert abs(process_fidelity(a, b) - process_fidelity(b, a)) < 1e-12

    def test_one_iff_equal_rank_one(self):
        assert process_fidelity(chi_of_unitary(kernel.S), chi_of_unitary(kernel.S)) \
            == pytest.approx(1, abs=1e-12)
        assert process_fidelity(chi_of_unitary(kernel.S), chi_hadamard()) < 1 - 1e-6

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError, match="zero-trace"):
            process_fidelity(ChiMatrix(np.zeros((4, 4))), chi_identity())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("at", ((0, 0), (1, 2)))
    @pytest.mark.parametrize("value", (np.nan, np.inf, complex(0, np.nan)))
    def test_non_finite_chi_refused(self, value, at):
        """On the diagonal, and off it at an entry and its mirror."""
        mat = chi_identity().matrix.copy()
        mat[at] = mat[at[::-1]] = value
        with pytest.raises(ValueError, match="chi matrix not Hermitian"):
            ChiMatrix(mat)


class TestAverageFidelity:
    def test_published_lost4_values(self):
        assert average_probe_fidelity([0.80, 0.77, 0.75, 0.92]) == pytest.approx(0.81)

    def test_published_lost1_values(self):
        assert average_probe_fidelity([0.80, 0.77, 0.78, 0.88]) == pytest.approx(0.8075)

    def test_perfect(self):
        assert average_probe_fidelity({"0": 1, "1": 1, "+": 1, "+y": 1}) == 1

    def test_sphere_average_of_perfect_channel(self):
        assert sphere_average_fidelity(chi_hadamard(), chi_hadamard()) == pytest.approx(1)


class TestBlochImage:
    AXES = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                     [-1, 0, 0], [0, -1, 0], [0, 0, -1]], dtype=float)

    def test_identity(self):
        np.testing.assert_allclose(bloch_image(chi_identity(), self.AXES), self.AXES,
                                   atol=1e-12)

    def test_hadamard_swaps_x_z_and_flips_y(self):
        mapped = bloch_image(chi_hadamard(), self.AXES)
        expected = self.AXES[:, [2, 1, 0]].copy()
        expected[:, 1] *= -1
        np.testing.assert_allclose(mapped, expected, atol=1e-12)

    def test_ideal_encode_channel_preserves_y_axis_and_swaps_xz(self):
        chi = reconstruct_chi(ideal_logical_outputs())
        r, t = bloch_affine(chi)
        np.testing.assert_allclose(t, np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(r, [[0, 0, 1], [0, -1, 0], [1, 0, 0]], atol=1e-10)

    def test_white_noise_shrinks_uniformly(self):
        v = 0.6
        mat = np.diag([(1 + 3 * v) / 4, (1 - v) / 4, (1 - v) / 4, (1 - v) / 4]).astype(complex)
        mapped = bloch_image(ChiMatrix(mat), self.AXES)
        np.testing.assert_allclose(mapped, v * self.AXES, atol=1e-10)

    def test_expansion_warns(self):
        mat = np.diag([1.3, 0.0, 0.0, 0.0]).astype(complex)  # trace > 1: expands
        with pytest.warns(UserWarning, match="expands"):
            bloch_image(ChiMatrix(mat), self.AXES)
