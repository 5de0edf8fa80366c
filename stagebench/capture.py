"""Seeded raw flow captures in the 88-column CIC-DDoS2019 layout.

Only the standard library is used, so the harness can write its inputs
without importing the program it measures. The same spec and seed give
byte-identical files.

Column roles, chosen so the outputs can be checked:

- identity columns (flow id, addresses, timestamp, row index) are
  dropped by the program, leaving 81 feature columns;
- nine constant columns (the bulk-transfer and URG/PSH flag columns,
  all zero as in the real captures) must score exactly 0;
- four planted flag counts take two coarse levels on attack rows and
  two others on benign rows, so the trained discriminator leans on them;
- a few flag columns are fixed on attack rows and vary on benign rows;
- everything else is a heavy-tailed counter or rate with thousands of
  distinct values. Rates carry Infinity/NaN/empty tokens at
  ``special_rate``.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path

COLUMNS = (
    "Unnamed: 0", "Flow ID", "Source IP", "Source Port", "Destination IP",
    "Destination Port", "Protocol", "Timestamp", "Flow Duration",
    "Total Fwd Packets", "Total Backward Packets",
    "Total Length of Fwd Packets", "Total Length of Bwd Packets",
    "Fwd Packet Length Max", "Fwd Packet Length Min",
    "Fwd Packet Length Mean", "Fwd Packet Length Std",
    "Bwd Packet Length Max", "Bwd Packet Length Min",
    "Bwd Packet Length Mean", "Bwd Packet Length Std", "Flow Bytes/s",
    "Flow Packets/s", "Flow IAT Mean", "Flow IAT Std", "Flow IAT Max",
    "Flow IAT Min", "Fwd IAT Total", "Fwd IAT Mean", "Fwd IAT Std",
    "Fwd IAT Max", "Fwd IAT Min", "Bwd IAT Total", "Bwd IAT Mean",
    "Bwd IAT Std", "Bwd IAT Max", "Bwd IAT Min", "Fwd PSH Flags",
    "Bwd PSH Flags", "Fwd URG Flags", "Bwd URG Flags", "Fwd Header Length",
    "Bwd Header Length", "Fwd Packets/s", "Bwd Packets/s",
    "Min Packet Length", "Max Packet Length", "Packet Length Mean",
    "Packet Length Std", "Packet Length Variance", "FIN Flag Count",
    "SYN Flag Count", "RST Flag Count", "PSH Flag Count", "ACK Flag Count",
    "URG Flag Count", "CWE Flag Count", "ECE Flag Count", "Down/Up Ratio",
    "Average Packet Size", "Avg Fwd Segment Size", "Avg Bwd Segment Size",
    "Fwd Header Length.1", "Fwd Avg Bytes/Bulk", "Fwd Avg Packets/Bulk",
    "Fwd Avg Bulk Rate", "Bwd Avg Bytes/Bulk", "Bwd Avg Packets/Bulk",
    "Bwd Avg Bulk Rate", "Subflow Fwd Packets", "Subflow Fwd Bytes",
    "Subflow Bwd Packets", "Subflow Bwd Bytes", "Init_Win_bytes_forward",
    "Init_Win_bytes_backward", "act_data_pkt_fwd", "min_seg_size_forward",
    "Active Mean", "Active Std", "Active Max", "Active Min", "Idle Mean",
    "Idle Std", "Idle Max", "Idle Min", "SimillarHTTP", "Inbound", "Label",
)

IDENTITY = ("Unnamed: 0", "Flow ID", "Source IP", "Destination IP",
            "Timestamp", "SimillarHTTP")
FEATURES = tuple(c for c in COLUMNS if c not in IDENTITY and c != "Label")

CONSTANT = ("Bwd PSH Flags", "Fwd URG Flags", "Bwd URG Flags",
            "Fwd Avg Bytes/Bulk", "Fwd Avg Packets/Bulk", "Fwd Avg Bulk Rate",
            "Bwd Avg Bytes/Bulk", "Bwd Avg Packets/Bulk", "Bwd Avg Bulk Rate")
PLANTED = ("FIN Flag Count", "PSH Flag Count", "ACK Flag Count",
           "URG Flag Count")
# column -> (value on attack rows, values benign rows may take)
ATTACK_FIXED = {
    "Protocol": ("17", ("6", "17", "0")),
    "SYN Flag Count": ("0", ("0", "1")),
    "RST Flag Count": ("0", ("0", "1")),
    "CWE Flag Count": ("0", ("0", "1")),
    "ECE Flag Count": ("0", ("0", "1")),
    "Fwd PSH Flags": ("0", ("0", "1")),
    "Down/Up Ratio": ("0", ("0", "1", "2")),
    "Inbound": ("1", ("0", "1")),
}
RATES = ("Flow Bytes/s", "Flow Packets/s", "Fwd Packets/s", "Bwd Packets/s")
SPECIAL_TOKENS = ("Infinity", "NaN", "", "-Infinity")
BENIGN = "BENIGN"

assert len(COLUMNS) == 88 and len(FEATURES) == 81


@dataclass(frozen=True)
class CaptureSpec:
    rows: int
    files: int = 1
    attack_share: float = 0.5
    # 1.0 keeps benign rows off the attack levels of the discrete columns
    # and shifts every third counter; 0.0 makes the classes identical.
    separation: float = 1.0
    special_rate: float = 0.002
    attack_labels: tuple = ("DrDoS_DNS",)


def _counter_kind(name):
    """(log-mean, log-sd, is_integer) for a heavy-tailed column."""
    if "IAT" in name or name.startswith(("Flow Duration", "Active", "Idle")):
        return 9.0, 2.0, True
    if "Packets" in name or name == "act_data_pkt_fwd":
        return 2.0, 1.5, True
    if name in RATES:
        return 8.0, 2.5, False
    if name.endswith(("Mean", "Std", "Variance", "Size")):
        return 5.0, 1.2, False
    return 6.0, 1.5, True


def _plan(rng):
    """Per-column generator settings for the heavy-tailed columns."""
    plan = {}
    for j, name in enumerate(FEATURES):
        if (name in CONSTANT or name in PLANTED or name in ATTACK_FIXED
                or name in ("Source Port", "Destination Port")):
            continue
        mu, sd, is_int = _counter_kind(name)
        mu += rng.uniform(-0.5, 0.5)
        # every third counter differs in location between the classes
        shift = rng.choice((-1.0, 1.0)) * 1.5 if j % 3 == 0 else 0.0
        plan[name] = (mu, sd, is_int, shift)
    return plan


def _row(rng, plan, spec, index, attack):
    sep = spec.separation
    out = {}
    src = f"172.16.0.{rng.randrange(1, 255)}"
    dst = f"192.168.{rng.randrange(0, 256)}.{rng.randrange(1, 255)}"
    sport = rng.randrange(1024, 65536)
    dport = rng.randrange(1, 65536) if attack else rng.choice(
        (53, 80, 123, 443, rng.randrange(1024, 65536)))
    out["Unnamed: 0"] = str(index)
    out["Source IP"] = src
    out["Destination IP"] = dst
    out["Source Port"] = str(sport)
    out["Destination Port"] = str(dport)
    out["Timestamp"] = (f"2018-12-01 {10 + index // 3_600_000 % 12:02d}:"
                        f"{index // 60_000 % 60:02d}:"
                        f"{index // 1000 % 60:02d}.{index % 1000:03d}")
    out["SimillarHTTP"] = "0"
    for name in CONSTANT:
        out[name] = "0"
    for name in PLANTED:
        if attack or rng.random() >= sep:
            out[name] = rng.choice(("2", "3"))
        else:
            out[name] = rng.choice(("0", "1"))
    for name, (fixed, benign) in ATTACK_FIXED.items():
        out[name] = fixed if attack or rng.random() >= sep else rng.choice(
            benign)
    for name, (mu, sd, is_int, shift) in plan.items():
        if attack:
            mu += shift * sep
        v = rng.lognormvariate(mu, sd)
        if name in RATES and rng.random() < spec.special_rate:
            out[name] = rng.choice(SPECIAL_TOKENS)
        elif is_int:
            out[name] = str(int(v))
        else:
            out[name] = f"{v:.6f}"
    proto = out["Protocol"]
    out["Flow ID"] = f"{dst}-{src}-{dport}-{sport}-{proto}"
    out["Label"] = (rng.choice(spec.attack_labels) if attack else BENIGN)
    return ",".join(out[c] for c in COLUMNS)


def header_line():
    """The capture header as CICFlowMeter writes it: names after the
    first one padded with a leading space."""
    return ",".join([COLUMNS[0]] + [" " + c for c in COLUMNS[1:]])


def write_capture(out_dir, spec: CaptureSpec, seed: int):
    """Write ``spec.rows`` flow records over ``spec.files`` CSV files.

    Returns the paths. Every file carries the header; rows are split as
    evenly as possible.
    """
    if spec.rows < spec.files or spec.files < 1:
        raise ValueError("need at least one row per file")
    rng = random.Random(seed)
    plan = _plan(rng)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, index = [], 0
    per_file = math.ceil(spec.rows / spec.files)
    for f in range(spec.files):
        path = out_dir / f"capture-{f:02d}.csv"
        n = min(per_file, spec.rows - index)
        lines = [header_line()]
        for _ in range(n):
            attack = rng.random() < spec.attack_share
            lines.append(_row(rng, plan, spec, index, attack))
            index += 1
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths
