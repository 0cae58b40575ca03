"""2-D discrete Fourier transform and amplitude/phase decomposition.

Conventions used throughout the package:

- forward transform is unnormalized with a negative exponent,
  ``F(m, n) = sum_{x, y} w(x, y) exp(-2j*pi*(x*m/rows + y*n/cols))``;
- the inverse divides by ``rows * cols`` and returns the real part;
- the phase of a zero entry is 0, and phase values lie in ``(-pi, pi]``.

Transforms act on the last two axes, so a ``(K, rows, cols)`` stack of
matrices is transformed in one call, matrix by matrix; a 2-D input is the
stack of one.  Transforms are evaluated with ``numpy.fft``; the algorithm is
an implementation detail, the contract is the convention above.  All
functions are pure.

:func:`dft2`/:func:`idft2`, the full-spectrum pair, with :func:`amp_phase`
and :func:`recompose` are the reference definition of frequency-domain
fusion: split, replace the band's amplitudes, rebuild.  ``freq_agg`` fuses
on the ``rfft2`` half spectrum, after :func:`real_stack`'s checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# An inverse transform of a Hermitian-symmetric spectrum is real up to
# rounding; a larger imaginary residue means the spectrum was corrupted.
IMAG_RESIDUE_TOL = 1e-6


class SymmetryViolationError(ValueError):
    """Inverse transform input was not Hermitian-symmetric."""


class AmpPhase(NamedTuple):
    """Polar split of a complex spectrum: ``amplitude * exp(1j * phase)``."""

    amplitude: np.ndarray
    phase: np.ndarray


def real_stack(m: np.ndarray) -> np.ndarray:
    """``m`` as float64; ValueError unless a finite, real, non-empty array of at least two dimensions."""
    m = np.asarray(m)
    if m.ndim < 2 or m.size == 0:
        raise ValueError(f"expected a non-empty stack of 2-D matrices, got shape {m.shape}")
    if np.iscomplexobj(m):
        raise ValueError("forward transform input must be real")
    m = m.astype(np.float64, copy=False)
    if not np.all(np.isfinite(m)):
        raise ValueError("forward transform input contains non-finite entries")
    return m


def dft2(m: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2-D DFT of a real matrix or stack of matrices, checked by :func:`real_stack`."""
    return np.fft.fft2(real_stack(m))


def idft2(f: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse 2-D DFT with ``1/(rows*cols)`` normalization.

    Returns ``(real_part, max_imag_residue)``, the residue being the largest
    over the stack.  Raises SymmetryViolationError when a matrix's imaginary
    residue exceeds ``IMAG_RESIDUE_TOL`` times that matrix's own largest
    input amplitude, which signals a non-Hermitian spectrum (e.g. a
    corrupted aggregation).
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim < 2 or f.size == 0:
        raise ValueError(f"expected a non-empty stack of 2-D matrices, got shape {f.shape}")
    inv = np.fft.ifft2(f)
    # each matrix is held to its own scale: a large one cannot hide a small one's asymmetry
    residue = np.abs(inv.imag).max(axis=(-2, -1)).ravel()
    limit = IMAG_RESIDUE_TOL * np.abs(f).max(axis=(-2, -1)).ravel()
    over = np.flatnonzero(residue > limit)
    if over.size:
        i = over[0]  # the first offending matrix, by flat index
        raise SymmetryViolationError(
            f"imaginary residue {residue[i]:.3e} exceeds {limit[i]:.3e} in matrix {i}; "
            "spectrum is not Hermitian-symmetric"
        )
    return inv.real, float(residue.max())


def amp_phase(f: np.ndarray) -> AmpPhase:
    """Split a complex matrix into amplitude (modulus) and phase (argument).

    Zero entries get phase 0; a phase of exactly -pi is folded to +pi so
    values stay in ``(-pi, pi]``.
    """
    f = np.asarray(f, dtype=np.complex128)
    amplitude = np.abs(f)
    phase = np.angle(f)
    phase[phase == -np.pi] = np.pi
    return AmpPhase(amplitude=amplitude, phase=phase)


def recompose(a: AmpPhase) -> np.ndarray:
    """Rebuild the complex matrix ``amplitude * exp(1j * phase)``."""
    amplitude = np.asarray(a.amplitude, dtype=np.float64)
    phase = np.asarray(a.phase, dtype=np.float64)
    if amplitude.shape != phase.shape:
        raise ValueError(
            f"amplitude shape {amplitude.shape} != phase shape {phase.shape}"
        )
    return amplitude * np.exp(1j * phase)
