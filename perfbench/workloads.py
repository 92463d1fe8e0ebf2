"""The benchmark's workloads: which CLI command each runs, and its size.

Every workload runs ``n << 2**J``.  A reducer chosen by input size (dense
when ``n ~ 2**J``) needs a workload on the other side of that choice,
added in its own benchmark change.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One CLI command with fixed settings; the seed and output directory vary."""

    name: str
    command: str
    n: int
    J: int
    R: int
    workers: int
    experiments: tuple
    expected_exit: tuple
    config: dict = field(default_factory=dict)
    #: Chunk kernel the pool start-up probe runs.
    probe_kernel: str = "moment"
    #: Level of verify-all's Gaussian experiment, max(J, 14), for its checks.
    gaussian_J: int | None = None

    @property
    def replicates(self) -> int:
        """Monte Carlo replicates one invocation simulates (sum of R over experiments)."""
        return self.R * len(self.experiments)

    def argv(self, seed: int, out: str, config_path: str | None, workers: int | None = None):
        args = [self.command, "--seed", str(seed), "--n", str(self.n), "--j-max", str(self.J),
                "--replicates", str(self.R),
                "--workers", str(self.workers if workers is None else workers)]
        if config_path is not None:
            args += ["--config", config_path]
        return args + ["--out", out]

    def write_config(self, directory: str) -> str | None:
        if not self.config:
            return None
        path = os.path.join(directory, f"{self.name}.config.json")
        with open(path, "w") as fh:
            json.dump(self.config, fh)
        return path


WORKLOADS = {
    w.name: w
    for w in (
        # verify-all at its documented defaults: the headline run, and the
        # only one whose run_chunked calls start spawn pools.
        Workload(
            name="suite",
            command="verify-all",
            n=100,
            J=12,
            R=2000,
            workers=2,
            experiments=("moments", "concentration", "sandwich", "roynette"),
            expected_exit=(0, 2),
            gaussian_J=14,
        ),
        # Criterion 3's shape: shallow levels and many replicates, so the
        # time goes into per-replicate overhead; oracle blocks are exact.
        # R is sized so that one operation takes a few seconds and a run
        # holds several.
        Workload(
            name="oracle-small",
            command="verify-moments",
            n=3,
            J=6,
            R=12_000,
            workers=1,
            experiments=("moments",),
            expected_exit=(0, 2),
            config={"chunk_size": 1000},
        ),
        # The paper's own object: the continuous version, through
        # interpolation and second-difference extraction.  Graded against
        # the step-process band, it exits 2 by design.  R is twice the
        # command's default, so that interpreter start-up is a small share
        # of an operation and replicates_per_s is no noisier than wall_s.
        Workload(
            name="continuous",
            command="verify-sandwich",
            n=100,
            J=12,
            R=4000,
            workers=1,
            experiments=("sandwich",),
            expected_exit=(2,),
            config={"process": "empirical-continuous"},
            probe_kernel="continuous_levels",
        ),
    )
}
