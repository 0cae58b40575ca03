"""Frequency-domain aggregation next to plain averaging on toy kernels.

Two clients hold different 4x4 conv kernels.  Plain averaging blends every
entry; the frequency aggregator averages only low-frequency amplitudes and
hands each client its own personalized result.

Run: python demos/03_aggregation_strategies.py
"""

import numpy as np

from fedfreq import (
    AggregationRequest,
    amp_phase,
    dft2,
    fedavg_aggregate,
    low_freq_mask,
    pfa_aggregate,
    reshape_conv,
)

rng = np.random.default_rng(42)
clients = [{"conv1.weight": rng.standard_normal((1, 1, 4, 4))} for _ in range(2)]
r = 0.25

merged = fedavg_aggregate(AggregationRequest([{k: v.copy() for k, v in m.items()} for m in clients], strategy="FEDAVG"))
personalized = pfa_aggregate(AggregationRequest([{k: v.copy() for k, v in m.items()} for m in clients], r=r, strategy="PFA"))

print("Plain averaging returns ONE model; the frequency aggregator returns")
print(f"one per client: got {len(personalized)} personalized aggregates.\n")

mask = low_freq_mask(4, 4, r)
for i in range(2):
    a_in = amp_phase(dft2(reshape_conv(clients[i]["conv1.weight"])))
    a_out = amp_phase(dft2(reshape_conv(personalized[i]["conv1.weight"])))
    amp_mean = np.mean(
        [amp_phase(dft2(reshape_conv(c["conv1.weight"]))).amplitude for c in clients], axis=0
    )
    print(f"client {i}:")
    print(f"  masked amplitudes equal the cross-client mean: "
          f"{np.max(np.abs(a_out.amplitude[mask] - amp_mean[mask])):.2e}")
    print(f"  unmasked amplitudes untouched:                 "
          f"{np.max(np.abs(a_out.amplitude[~mask] - a_in.amplitude[~mask])):.2e}")
    keep = a_out.amplitude > 1e-9
    print(f"  phase preserved everywhere:                    "
          f"{np.max(np.abs(np.angle(np.exp(1j * (a_out.phase - a_in.phase))))[keep]):.2e}")

print("\nConsensus check: if every client uploads the same weights, both")
print("strategies return those weights unchanged.")
same = [{k: v.copy() for k, v in clients[0].items()} for _ in range(3)]
out = pfa_aggregate(AggregationRequest(same, r=0.4, strategy="PFA"))[0]
err = np.max(np.abs(out["conv1.weight"] - clients[0]["conv1.weight"]))
print(f"  frequency aggregation drift: {err:.2e}")
flat = fedavg_aggregate(AggregationRequest(same, strategy="FEDAVG"))
err = np.max(np.abs(flat["conv1.weight"] - clients[0]["conv1.weight"]))
print(f"  plain averaging drift:       {err:.2e}")
