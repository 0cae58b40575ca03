"""Low-frequency masks and the progressive threshold schedule.

Run: python demos/02_frequency_masks.py
"""

import numpy as np

from fedfreq import ExperimentConfig, low_freq_mask


def render(mask):
    for row in mask:
        print("   " + "".join("#" if v else "." for v in row))


print("Mask on a 9x9 spectrum, centered view (DC in the middle, np.fft.fftshift).")
for r in (0.15, 0.3, 0.45):
    mask = low_freq_mask(9, 9, r)
    print(f"\nr = {r}: {int(mask.sum())} of 81 frequencies shared")
    render(np.fft.fftshift(mask))

print("\nlow_freq_mask returns standard DFT layout, with DC at index (0,0):")
render(low_freq_mask(9, 9, 0.3))

print("\nThe shared band grows linearly over training:")
config = ExperimentConfig(r0=0.35, r1=0.48, total_epochs=250)
for t in (0, 50, 125, 200, 250):
    r = config.r(t)
    shared = int(low_freq_mask(16, 16, r).sum())
    print(f"  epoch {t:3d}: r = {r:.4f}  -> {shared:3d}/256 frequencies shared")
