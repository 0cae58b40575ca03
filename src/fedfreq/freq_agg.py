"""Frequency-domain parameter aggregation and the plain-averaging baseline.

The frequency aggregator ("PFA" strategy) fuses client models in the 2-D
Fourier domain: for every weight matrix it averages the *amplitudes* of the
low-frequency band across clients while each client keeps its own phase map
and its own high-frequency amplitudes.  The shared band is a centered
rectangle whose half-widths are ``floor(r * dim)`` per axis; ``r`` grows
linearly over training (see :func:`schedule_r`).

Convolution kernels ``(N, C, d1, d2)`` are rearranged into a ``d1*N x d2*C``
matrix before the transform; fully connected weights are transformed in
their native ``(out, in)`` orientation; 1-D parameters (biases) fall back to
element-wise averaging.  The output is one aggregate per client, since phase
and high frequencies stay client-specific.

The "FEDAVG" strategy is the element-wise unweighted mean of every parameter
and yields a single shared model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import NamedTensorMap, check_same_structure
from .numerics import AmpPhase, amp_phase, dft2, idft2, recompose

# epsilon keeping a scheduled threshold strictly inside (0, 0.5)
R_EPS = 1e-6


class ConvShape(NamedTuple):
    """Dimensions of a 4-D convolution kernel."""

    out_channels: int
    in_channels: int
    kernel_h: int
    kernel_w: int


@dataclass(frozen=True)
class FreqMask:
    """Low-frequency indicator for a ``rows x cols`` spectrum.

    ``standard`` is the boolean mask in unshifted DFT coordinates (DC at
    index ``[0, 0]``), which is the layout the aggregator works in;
    ``centered`` is the same mask with DC moved to the middle.
    """

    rows: int
    cols: int
    r: float
    standard: np.ndarray = field(repr=False)
    centered: np.ndarray = field(repr=False)


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
    """Rearrange a conv kernel ``(N, C, d1, d2)`` into a ``d1*N x d2*C`` matrix.

    Element ``(n, c, x, y)`` lands at row ``n*d1 + x``, column ``c*d2 + y``.
    """
    w = np.asarray(w)
    if w.ndim != 4:
        raise ValueError(f"expected a 4-D kernel, got shape {w.shape}")
    n, c, d1, d2 = w.shape
    return w.transpose(0, 2, 1, 3).reshape(n * d1, c * d2)


def unreshape_conv(m: np.ndarray, s: ConvShape) -> np.ndarray:
    """Exact inverse of :func:`reshape_conv` for a kernel of shape ``s``."""
    m = np.asarray(m)
    n, c, d1, d2 = s
    if m.shape != (n * d1, c * d2):
        raise ValueError(
            f"matrix shape {m.shape} does not match kernel shape {tuple(s)}"
        )
    return m.reshape(n, d1, c, d2).transpose(0, 2, 1, 3)


def low_freq_mask(rows: int, cols: int, r: float) -> FreqMask:
    """Centered rectangular low-frequency mask with half-widths floor(r*dim).

    In centered coordinates (DC at (0, 0)) an entry (m, n) is inside the
    mask iff ``|m| <= floor(r*rows)`` and ``|n| <= floor(r*cols)``.  Since
    r < 0.5 the rectangle never reaches the Nyquist line, so the mask is
    symmetric under (m, n) -> (-m, -n) and aggregation preserves Hermitian
    symmetry.
    """
    if rows < 1 or cols < 1:
        raise ValueError("mask dimensions must be >= 1")
    if not 0.0 < r < 0.5:
        raise ValueError(f"threshold r must lie in (0, 0.5), got {r}")
    half_r = int(np.floor(r * rows))
    half_c = int(np.floor(r * cols))
    # signed frequency index per axis in standard DFT order
    sr = np.fft.fftfreq(rows, d=1.0 / rows).round().astype(int)
    sc = np.fft.fftfreq(cols, d=1.0 / cols).round().astype(int)
    standard = (np.abs(sr)[:, None] <= half_r) & (np.abs(sc)[None, :] <= half_c)
    centered = np.fft.fftshift(standard)
    return FreqMask(rows=rows, cols=cols, r=r, standard=standard, centered=centered)


def _fuse_matrices(mats: list[np.ndarray], r: float) -> list[np.ndarray]:
    """Frequency-domain fusion of one 2-D parameter across clients."""
    mask = low_freq_mask(mats[0].shape[0], mats[0].shape[1], r).standard
    decomps = [amp_phase(dft2(m)) for m in mats]
    mean_amp = np.mean([d.amplitude for d in decomps], axis=0)
    fused = []
    for d in decomps:
        amp = np.where(mask, mean_amp, d.amplitude)
        out, _ = idft2(recompose(AmpPhase(amp, d.phase)))
        fused.append(out)
    return fused


def pfa_aggregate(req: AggregationRequest) -> list[NamedTensorMap]:
    """Frequency-domain aggregation; returns one personalized map per client.

    Per parameter: 4-D kernels go through :func:`reshape_conv`, 2-D weights
    are transformed as-is, anything else is element-wise averaged.  Masked
    amplitudes are replaced by the across-client arithmetic mean; unmasked
    amplitudes and the whole phase map stay client-specific.
    """
    if req.strategy != PFA:
        raise ValueError(f"expected strategy {PFA!r}, got {req.strategy!r}")
    if not 0.0 < req.r < 0.5:
        raise ValueError(f"threshold r must lie in (0, 0.5), got {req.r}")
    keys = check_same_structure(req.client_params)
    k = len(req.client_params)
    outputs: list[NamedTensorMap] = [{} for _ in range(k)]
    for name in keys:
        tensors = [np.asarray(m[name], dtype=np.float64) for m in req.client_params]
        if tensors[0].ndim == 4:
            shape = ConvShape(*tensors[0].shape)
            fused = _fuse_matrices([reshape_conv(t) for t in tensors], req.r)
            for i, f in enumerate(fused):
                outputs[i][name] = unreshape_conv(f, shape)
        elif tensors[0].ndim == 2:
            fused = _fuse_matrices(tensors, req.r)
            for i, f in enumerate(fused):
                outputs[i][name] = f
        else:
            mean = np.mean(tensors, axis=0)
            for i in range(k):
                outputs[i][name] = mean.copy()
    return outputs


def fedavg_aggregate(req: AggregationRequest) -> NamedTensorMap:
    """Element-wise unweighted mean of every parameter across clients."""
    if req.strategy != FEDAVG:
        raise ValueError(f"expected strategy {FEDAVG!r}, got {req.strategy!r}")
    keys = check_same_structure(req.client_params)
    return {
        name: np.mean(
            [np.asarray(m[name], dtype=np.float64) for m in req.client_params], axis=0
        )
        for name in keys
    }
