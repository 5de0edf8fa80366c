"""The benchmark workloads: capture shape, run config and stage list.

Every workload runs the full stage chain at paper width (81 features
from the 88-column capture). They differ in size, class structure and
config, so that each one is dominated by different modules; README.md
gives the layer each is meant to stress and the predictions that follow.
"""

from dataclasses import dataclass

from capture import CaptureSpec

DEFAULT_KS = (5, 10, 20, 40, 81)


@dataclass(frozen=True)
class Workload:
    name: str
    capture: CaptureSpec
    config: dict  # ganfs run config, written to a JSON file
    baselines: tuple
    synth_n: int
    check_planted: bool = False

    def stages(self, inputs):
        """(stage label, CLI arguments after the global options)."""
        out = [("preprocess", ["preprocess", *map(str, inputs)]),
               ("train-gan", ["train-gan"]),
               ("rank", ["rank"])]
        out += [(f"baseline:{m}", ["baseline", "--method", m])
                for m in self.baselines]
        out += [("evaluate", ["evaluate"]),
                ("report", ["report"]),
                ("synth", ["synth", "--n", str(self.synth_n)])]
        return out

    def ks(self):
        return tuple(self.config.get("k_values") or DEFAULT_KS)

    def selectors(self):
        return ("sensitivity",) + self.baselines


# Sizes are scaled so that three or four whole chains fit in one run on
# two cores, while each workload's own layers still do most of the work
# (README.md gives the traced shares).
WORKLOADS = {w.name: w for w in (
    # The paper's path: GAN training and sensitivity scoring dominate.
    # Batch 1024 gives several minibatches per epoch, as at full scale.
    Workload(
        name="gan-rank",
        capture=CaptureSpec(rows=4000, attack_share=0.9, separation=0.3),
        config={"epochs": 16, "batch_size": 1024, "k_values": [10],
                "rf_trees": 10},
        baselines=("anova",),
        synth_n=1000,
        check_planted=True,
    ),
    # Overlapping classes keep logreg at max_iter and grow deep trees, so
    # the baselines and classifiers dominate.
    Workload(
        name="selector-sweep",
        capture=CaptureSpec(rows=1000, attack_share=0.5, separation=0.1),
        config={"epochs": 80, "rf_trees": 4},
        baselines=("mi", "chi2", "anova", "rfe", "rf"),
        synth_n=1000,
    ),
    # Messy raw input over several files and little model work: parsing,
    # reloading and writing the artifacts dominate.
    Workload(
        name="bulk-ingest",
        capture=CaptureSpec(
            rows=12000, files=4, attack_share=0.7, separation=0.8,
            special_rate=0.02,
            attack_labels=("DrDoS_DNS", "DrDoS_LDAP", "DrDoS_NTP",
                           "DrDoS_UDP", "Syn", "UDP-lag")),
        config={"epochs": 1, "sample_cap": 100, "k_values": [5],
                "rf_trees": 1},
        baselines=("mi",),
        synth_n=12000,
    ),
)}
