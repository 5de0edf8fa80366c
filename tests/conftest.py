"""Shared fixture helpers for the test suite."""

import csv

import numpy as np


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance verdicts where capture cannot swallow them."""
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if not VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(VERDICTS):
        verdict = "PASS" if VERDICTS[n] else "FAIL"
        terminalreporter.write_line(f"CRITERION {n}: {verdict}")


def write_raw_flow_csv(path, n_benign=30, n_attack=30, seed=0):
    """Messy flow-record CSV: identity columns, bad tokens, padded headers.

    Two of the four feature columns separate the classes, one carries
    Infinity tokens and empty cells, one is small-integer noise.
    """
    rng = np.random.default_rng(seed)
    headers = [" Flow ID ", "Timestamp", "SimillarHTTP", "Flow Duration",
               "Fwd Packets/s", "Flow Bytes/s", "SYN Flag Count", " Label "]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        for i in range(n_benign + n_attack):
            attack = i >= n_benign
            duration = rng.uniform(100, 200) if attack else rng.uniform(500, 1000)
            pkts = rng.uniform(50, 100) if attack else rng.uniform(10, 30)
            if i % 11 == 3:
                bytes_s = "Infinity"
            elif i % 13 == 5:
                bytes_s = ""
            else:
                bytes_s = f"{rng.uniform(0, 1e6):.2f}"
            writer.writerow([
                f"flow-{i}", "2018-11-03 10:00:00", "0",
                f"{duration:.3f}", f"{pkts:.3f}", bytes_s,
                str(int(rng.integers(0, 3))),
                "DDoS" if attack else "BENIGN",
            ])
    return path


def write_wide_flow_csv(path, n_rows, d, seed=0):
    """A capture of ``d`` normal feature columns beside a Flow ID and a
    Label column, every third row an attack."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Flow ID"] + [f"f{j}" for j in range(d)] + ["Label"])
        for r in range(n_rows):
            writer.writerow([f"flow-{r}"]
                            + [repr(float(v)) for v in rng.normal(0, 1e4, d)]
                            + ["BENIGN" if r % 3 else "Syn"])
    return path
