"""Seeded generator for a UAVIDS-shaped flow table.

The table carries the reference columns of the UAVIDS-2025 export
(LostPackets, RxBytes, RxByteRate/s, MeanDelay/s, MeanJitter/s,
PacketDropRate, AverageHopCount) plus filler columns, five classes in equal
shares, heavy-tailed gamma features, one near-duplicate pair
(TxBytes ~ 1.01 * RxBytes), one dummy-encoded categorical column (DstPort,
three values) and one drop-role column (Protocol).

The class structure is a fixed table in this file; the seed only drives the
sampling, so every seed gives the same kind of table and the same seed gives a
byte-identical CSV.
"""

from __future__ import annotations

import numpy as np

CLASSES = ("Blackhole", "Flooding", "Grayhole", "Normal", "Wormhole")
LABEL = "Label"
CATEGORICAL = "DstPort"
DROPPED = "Protocol"
PORTS = ("53", "80", "443")

# Gamma features: (column, shape, base scale, per-class scale multipliers in
# CLASSES order). Shapes below 1.5 give the heavy right tails of flow counters.
# Every column separates some classes clearly, so recursive elimination drops
# the same columns (the DstPort indicators) for every seed. TxPackets and
# FlowDuration/s share one law in Blackhole and Wormhole, so the permutation
# test has null features to contrast.
_GAMMA = (
    ("RxBytes", 0.9, 4.0e4, (0.55, 1.9, 0.8, 1.0, 0.7)),
    ("RxByteRate/s", 1.1, 2.5e3, (0.5, 2.1, 0.75, 1.0, 0.95)),
    ("MeanDelay/s", 1.6, 0.02, (1.5, 2.0, 1.2, 1.0, 0.6)),
    ("MeanJitter/s", 1.2, 0.004, (1.6, 2.2, 1.0, 1.3, 0.7)),
    ("TxPackets", 1.3, 120.0, (1.0, 2.0, 0.6, 1.4, 1.0)),
    ("RxPackets", 1.0, 110.0, (0.6, 1.8, 0.9, 1.2, 0.9)),
    ("Throughput/s", 1.4, 900.0, (0.6, 1.6, 0.9, 1.2, 0.8)),
    ("FlowDuration/s", 0.8, 30.0, (1.2, 0.5, 1.8, 0.8, 1.2)),
)
# LostPackets: Poisson counts around a gamma-distributed loss level.
_LOSS_SCALE = (9.0, 4.0, 5.0, 1.0, 2.2)
# PacketDropRate: Beta(a, b) per class.
_DROP_BETA = ((6.0, 4.0), (2.0, 8.0), (3.0, 7.0), (1.0, 30.0), (1.6, 12.0))
# AverageHopCount: 1 + Poisson(lambda) per class.
_HOPS = (2.0, 2.5, 2.2, 3.0, 1.2)

NUMERIC = (
    "LostPackets",
    "RxBytes",
    "TxBytes",
    "RxByteRate/s",
    "MeanDelay/s",
    "MeanJitter/s",
    "PacketDropRate",
    "AverageHopCount",
    "TxPackets",
    "RxPackets",
    "Throughput/s",
    "FlowDuration/s",
)
COLUMNS = NUMERIC + (CATEGORICAL, DROPPED, LABEL)


def schema() -> dict:
    """Config schema section for the generated table."""
    out: dict = {name: "numeric" for name in NUMERIC}
    out[CATEGORICAL] = {"role": "categorical", "encoding": "dummy"}
    out[DROPPED] = {"role": "drop"}
    out[LABEL] = "label"
    return out


def class_counts(n_rows: int) -> list[int]:
    """Rows per class in CLASSES order: equal shares, remainder to the first."""
    base, extra = divmod(n_rows, len(CLASSES))
    return [base + (1 if i < extra else 0) for i in range(len(CLASSES))]


def generate_csv(n_rows: int, seed: int) -> bytes:
    """The whole CSV file for n_rows flows drawn from the given seed."""
    if n_rows < len(CLASSES) * 2:
        raise ValueError(f"n_rows must be at least {len(CLASSES) * 2}")
    rng = np.random.default_rng([seed, 2025])
    counts = class_counts(n_rows)
    label_id = np.repeat(np.arange(len(CLASSES)), counts)
    label_id = label_id[rng.permutation(n_rows)]

    cols: dict[str, np.ndarray] = {}
    for name, shape, scale, mult in _GAMMA:
        cols[name] = rng.gamma(shape, scale * np.asarray(mult)[label_id])
    loss_level = rng.gamma(0.7, np.asarray(_LOSS_SCALE)[label_id])
    cols["LostPackets"] = rng.poisson(loss_level).astype(np.float64)
    beta = np.asarray(_DROP_BETA)[label_id]
    cols["PacketDropRate"] = rng.beta(beta[:, 0], beta[:, 1])
    cols["AverageHopCount"] = 1.0 + rng.poisson(np.asarray(_HOPS)[label_id])
    cols["TxBytes"] = 1.01 * cols["RxBytes"] * (1.0 + rng.normal(0.0, 2e-3, n_rows))

    text = {name: np.char.mod("%.9g", cols[name]) for name in NUMERIC}
    text[CATEGORICAL] = np.asarray(PORTS)[rng.integers(0, len(PORTS), n_rows)]
    text[DROPPED] = np.asarray(("UDP", "TCP"))[rng.integers(0, 2, n_rows)]
    text[LABEL] = np.asarray(CLASSES)[label_id]

    lines = [",".join(COLUMNS)]
    lines.extend(",".join(row) for row in zip(*(text[c].tolist() for c in COLUMNS)))
    return ("\n".join(lines) + "\n").encode("utf-8")
