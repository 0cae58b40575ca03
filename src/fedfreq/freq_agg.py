"""Frequency-domain parameter aggregation and the plain-averaging baseline.

The frequency aggregator ("PFA" strategy) fuses client models in the 2-D
Fourier domain: for every weight matrix it averages the *amplitudes* of the
low-frequency band across clients while each client keeps its own phase map
and its own high-frequency amplitudes.  The shared band is a centered
rectangle whose half-widths are ``floor(r * dim)`` per axis; ``r`` grows
linearly over training (see :func:`schedule_r`).

Fusion never splits a spectrum into polar form.  Each band entry ``F`` is
rescaled to the shared amplitude, ``F * (shared / |F|)``, which keeps its
phase; a zero entry, whose phase is 0 by convention, becomes the real value
``shared``; entries outside the band pass through unchanged.  That is the
polar definition, ``recompose(AmpPhase(amp', phase))`` with the band's
amplitudes replaced by their mean, up to rounding; ``numerics.amp_phase``
and ``numerics.recompose`` remain its reference.

Each parameter is fused as one client stack (:func:`pfa_fuse`): the K
clients' tensors are stacked along a leading axis, and one transform, one
amplitude mean over that axis and one inverse transform handle all K at
once.  A run passes its cohort's stack straight in; :func:`pfa_aggregate`
stacks a list of maps first and splits the result again.  Convolution
kernels ``(N, C, d1, d2)`` are rearranged into ``d1*N x d2*C`` matrices
before the transform; fully connected weights are transformed in their
native ``(out, in)`` orientation; 1-D parameters (biases) take the mean over
the client axis.  The output is one aggregate per client, since phase and
high frequencies stay client-specific.

The "FEDAVG" strategy is the mean of the same client stack over its client
axis (:func:`fedavg_fuse`) and yields a single shared model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import NamedTensorMap, check_same_structure, stack_params
from .numerics import dft2, idft2

# epsilon keeping a scheduled threshold strictly inside (0, 0.5)
R_EPS = 1e-6


@dataclass(frozen=True)
class ScheduleParams:
    """Linear low-frequency threshold schedule from ``r0`` to ``r1``."""

    r0: float = 0.35
    r1: float = 0.48
    total_epochs: int = 250

    def __post_init__(self) -> None:
        if not (0.0 < self.r0 <= self.r1 < 0.5):
            raise ValueError(
                f"thresholds must satisfy 0 < r0 <= r1 < 0.5, got {self.r0}, {self.r1}"
            )
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")


PFA = "PFA"
FEDAVG = "FEDAVG"


@dataclass
class AggregationRequest:
    """Client parameter maps plus the strategy used to fuse them."""

    client_params: list[NamedTensorMap]
    r: float = 0.35
    strategy: str = PFA


def check_threshold(r: float) -> None:
    """Raise ValueError unless the low-frequency threshold lies in (0, 0.5)."""
    if not 0.0 < r < 0.5:
        raise ValueError(f"threshold r must lie in (0, 0.5), got {r}")


def schedule_r(t: int, p: ScheduleParams) -> float:
    """Threshold in effect after ``t`` of ``total_epochs`` local epochs.

    Linear interpolation from r0 (t=0) to r1 (t=T), clamped into
    (0, 0.5) by ``R_EPS``.  Raises ValueError outside 0 <= t <= T.
    """
    if not 0 <= t <= p.total_epochs:
        raise ValueError(f"epoch {t} outside [0, {p.total_epochs}]")
    r = p.r0 + (p.r1 - p.r0) * t / p.total_epochs
    return float(min(max(r, R_EPS), 0.5 - R_EPS))


def reshape_conv(w: np.ndarray) -> np.ndarray:
    """Rearrange conv kernels ``(..., N, C, d1, d2)`` into ``(..., d1*N, d2*C)`` matrices.

    Element ``(n, c, x, y)`` of each kernel lands at row ``n*d1 + x``, column
    ``c*d2 + y``; leading (client) axes are kept.
    """
    w = np.asarray(w)
    if w.ndim < 4:
        raise ValueError(f"expected 4-D kernels, got shape {w.shape}")
    *lead, n, c, d1, d2 = w.shape
    return w.swapaxes(-3, -2).reshape(*lead, n * d1, c * d2)


def unreshape_conv(m: np.ndarray, kernel: tuple[int, int, int, int]) -> np.ndarray:
    """Exact inverse of :func:`reshape_conv` for kernels of shape ``kernel``."""
    m = np.asarray(m)
    n, c, d1, d2 = kernel
    if m.shape[-2:] != (n * d1, c * d2):
        raise ValueError(f"matrix shape {m.shape} does not match kernel shape {tuple(kernel)}")
    return m.reshape(*m.shape[:-2], n, d1, c, d2).swapaxes(-3, -2)


def low_freq_mask(rows: int, cols: int, r: float) -> np.ndarray:
    """Boolean ``rows x cols`` low-frequency mask with half-widths floor(r*dim).

    The mask is in standard DFT layout (DC at index ``[0, 0]``), the layout
    the aggregator works in; ``np.fft.fftshift(mask)`` moves DC to the
    middle.  With signed frequencies (m, n) an entry is inside the mask iff
    ``|m| <= floor(r*rows)`` and ``|n| <= floor(r*cols)``.  Since r < 0.5
    the rectangle never reaches the Nyquist line, so the mask is symmetric
    under (m, n) -> (-m, -n) and aggregation preserves Hermitian symmetry.
    Each mask is built once per shape and pair of half-widths and returned
    read-only; copy it before writing to it.
    """
    if rows < 1 or cols < 1:
        raise ValueError("mask dimensions must be >= 1")
    check_threshold(r)
    return _band(rows, cols, math.floor(r * rows), math.floor(r * cols))


@lru_cache(maxsize=256)
def _band(rows: int, cols: int, half_r: int, half_c: int) -> np.ndarray:
    # signed frequency index per axis in standard DFT order
    sr = np.fft.fftfreq(rows, d=1.0 / rows).round().astype(int)
    sc = np.fft.fftfreq(cols, d=1.0 / cols).round().astype(int)
    mask = (np.abs(sr)[:, None] <= half_r) & (np.abs(sc)[None, :] <= half_c)
    mask.flags.writeable = False
    return mask


def _fuse(stack: np.ndarray, r: float) -> np.ndarray:
    """Frequency-domain fusion of a ``(K, rows, cols)`` client stack.

    Band entries become ``F * (shared / |F|)``, or ``shared`` where ``|F|``
    is 0; the rest of each spectrum is kept as it is.  Where ``|F|`` is so
    small (subnormal) that ``shared / |F|`` overflows, the entry becomes its
    unit phasor, its real and imaginary parts each divided by ``|F|``, times
    ``shared``.
    """
    band = low_freq_mask(*stack.shape[-2:], r)
    spectrum = dft2(stack)
    amp = np.abs(spectrum)
    shared = amp.mean(axis=0)
    nonzero = amp > 0
    with np.errstate(over="ignore"):  # an overflowing scale is never used
        scale = np.divide(shared, amp, out=np.zeros_like(amp), where=nonzero)
    overflow = np.isinf(scale)
    scale[overflow] = 0.0
    moved = np.where(nonzero, spectrum * scale, shared)
    if overflow.any():
        f, a = spectrum[overflow], amp[overflow]
        unit = f.real / a + 1j * (f.imag / a)  # a complex f / a overflows too
        moved[overflow] = unit * np.broadcast_to(shared, amp.shape)[overflow]
    np.copyto(spectrum, moved, where=band)  # in place: one spectrum-sized array fewer to fault in
    fused, _ = idft2(spectrum)
    return fused


def pfa_fuse(stacks: NamedTensorMap, r: float) -> NamedTensorMap:
    """Frequency-domain aggregation of ``(K, ...)`` client stacks; returns the K aggregates, stacked.

    Per parameter: 4-D kernels go through :func:`reshape_conv`, 2-D weights
    are transformed as-is, anything else is averaged over the client axis.
    Masked amplitudes are replaced by the across-client arithmetic mean;
    unmasked amplitudes and the whole phase map stay client-specific.
    """
    check_threshold(r)
    fused = {}
    for name, stack in stacks.items():
        shape = stack.shape[1:]  # one client's tensor
        if len(shape) == 4:
            fused[name] = unreshape_conv(_fuse(reshape_conv(stack), r), shape)
        elif len(shape) == 2:
            fused[name] = _fuse(stack, r)
        else:
            fused[name] = np.repeat(stack.mean(axis=0, keepdims=True), len(stack), axis=0)
    return fused


def fedavg_fuse(stacks: NamedTensorMap) -> NamedTensorMap:
    """Element-wise unweighted mean of ``(K, ...)`` client stacks over the client axis."""
    return {name: stack.mean(axis=0) for name, stack in stacks.items()}


def pfa_aggregate(req: AggregationRequest) -> list[NamedTensorMap]:
    """:func:`pfa_fuse` of a list of client maps; returns one personalized map per client."""
    if req.strategy != PFA:
        raise ValueError(f"expected strategy {PFA!r}, got {req.strategy!r}")
    check_same_structure(req.client_params)
    fused = pfa_fuse(stack_params(req.client_params), req.r)
    return [{name: v[k] for name, v in fused.items()} for k in range(len(req.client_params))]


def fedavg_aggregate(req: AggregationRequest) -> NamedTensorMap:
    """:func:`fedavg_fuse` of a list of client maps; returns the one shared map."""
    if req.strategy != FEDAVG:
        raise ValueError(f"expected strategy {FEDAVG!r}, got {req.strategy!r}")
    check_same_structure(req.client_params)
    return fedavg_fuse(stack_params(req.client_params))
