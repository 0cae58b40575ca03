import numpy as np
import pytest

from fedfreq.numerics import SymmetryViolationError, amp_phase, dft2, idft2, recompose
from helpers import direct_dft2


def test_dft2_delta_matrix():
    # expected values from direct evaluation of the double sum
    f = dft2(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(f, np.ones((2, 2)), atol=1e-12)


def test_dft2_constant_matrix_is_dc_only():
    c = 2.5
    f = dft2(np.full((3, 3), c))
    assert abs(f[0, 0] - 9 * c) < 1e-9
    off_dc = f.copy()
    off_dc[0, 0] = 0.0
    assert np.max(np.abs(off_dc)) < 1e-9


def test_dft2_matches_direct_summation():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((7, 5))
    assert np.max(np.abs(dft2(m) - direct_dft2(m))) < 1e-9


def test_roundtrip_16x12():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((16, 12))
    back, _ = idft2(dft2(m))
    assert np.max(np.abs(back - m)) < 1e-9


def test_idft2_all_ones_gives_delta():
    back, residue = idft2(np.ones((2, 2), dtype=complex))
    assert np.allclose(back, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert residue < 1e-12


def test_idft2_dc_only_gives_constant():
    f = np.zeros((4, 6), dtype=complex)
    f[0, 0] = 24.0
    back, _ = idft2(f)
    assert np.allclose(back, np.ones((4, 6)), atol=1e-12)


def test_idft2_rejects_asymmetric_spectrum():
    f = np.zeros((4, 4), dtype=complex)
    f[1, 0] = 5.0  # conjugate partner at (3, 0) missing
    with pytest.raises(SymmetryViolationError):
        idft2(f)


def test_amp_phase_examples():
    f = np.array([[1 + 0j, 0 + 1j, 3 + 4j]])
    ap = amp_phase(f)
    assert np.allclose(ap.amplitude, [[1.0, 1.0, 5.0]])
    assert np.allclose(ap.phase, [[0.0, np.pi / 2, np.arctan2(4.0, 3.0)]])
    assert abs(ap.phase[0, 2] - 0.92730) < 1e-5


def test_zero_entry_gets_phase_zero():
    ap = amp_phase(np.zeros((2, 2), dtype=complex))
    assert np.all(ap.phase == 0.0)
    assert np.all(ap.amplitude == 0.0)


def test_phase_range_half_open():
    ap = amp_phase(np.array([[-1.0 + 0j, complex(-1.0, -0.0)]]))
    assert np.all(ap.phase > -np.pi)
    assert np.all(ap.phase <= np.pi)


def test_recompose_inverts_amp_phase():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    back = recompose(amp_phase(f))
    assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))


def test_dft2_input_validation():
    with pytest.raises(ValueError):
        dft2(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        dft2(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        dft2(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(ValueError):
        dft2(np.array([[1 + 1j]]))  # complex input


def test_idft2_input_validation():
    with pytest.raises(ValueError):
        idft2(np.ones(3, dtype=complex))


def test_recompose_shape_mismatch():
    ap = amp_phase(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        recompose(type(ap)(ap.amplitude, ap.phase[:1]))


# --- invariants over random matrices -----------------------------------------


def test_roundtrip_random_dimensions():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        m = rng.standard_normal((rows, cols))
        back, _ = idft2(dft2(m))
        assert np.max(np.abs(back - m)) < 1e-9


def test_hermitian_symmetry_by_index_pairing():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        f = dft2(rng.standard_normal((rows, cols)))
        for m in range(rows):
            for n in range(cols):
                partner = np.conj(f[(rows - m) % rows, (cols - n) % cols])
                assert abs(f[m, n] - partner) < 1e-10


def test_parseval():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.standard_normal((int(rng.integers(1, 33)), int(rng.integers(1, 33))))
        lhs = np.sum(m**2) * m.size
        rhs = np.sum(np.abs(dft2(m)) ** 2)
        assert abs(lhs - rhs) <= 1e-6 * max(lhs, 1e-30)


def test_linearity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        shape = (int(rng.integers(1, 33)), int(rng.integers(1, 33)))
        x = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        a, b = rng.uniform(-2, 2, size=2)
        lhs = dft2(a * x + b * y)
        rhs = a * dft2(x) + b * dft2(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


# --- stacks of matrices --------------------------------------------------------


def test_dft2_and_idft2_on_a_stack_match_per_matrix_calls():
    rng = np.random.default_rng(17)
    for shape in [(4, 8, 6), (1, 5, 5), (3, 1, 7), (2, 3, 4, 4)]:
        stack = rng.standard_normal(shape)
        f = dft2(stack)
        mats = stack.reshape(-1, *shape[-2:])
        assert np.array_equal(f, np.stack([dft2(m) for m in mats]).reshape(f.shape))
        back, residue = idft2(f)
        per_matrix = [idft2(dft2(m)) for m in mats]
        assert np.array_equal(back, np.stack([b for b, _ in per_matrix]).reshape(shape))
        assert residue == max(r for _, r in per_matrix)


def test_idft2_holds_each_matrix_of_a_stack_to_its_own_amplitude():
    rng = np.random.default_rng(19)
    large = dft2(1e8 * rng.standard_normal((4, 4)))  # Hermitian, amplitudes near 1e9
    small = np.zeros((4, 4), dtype=complex)
    small[1, 0] = 1.0  # unit amplitude, conjugate partner at (3, 0) missing
    idft2(large)
    with pytest.raises(SymmetryViolationError):
        idft2(small)
    # a bound taken over the whole stack (1e-6 * 1e9) would let this stack pass
    with pytest.raises(SymmetryViolationError, match="in matrix 1"):
        idft2(np.stack([large, small]))
