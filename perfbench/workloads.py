"""Operations of each benchmark workload and the check of their outputs.

Nothing here imports ncwres, so the process that drives a run stays
small and its own memory never counts as the program's.

Every run executes the same multiset of operations; the seed only fixes
their order, one fresh permutation per round.  The inputs are pinned
because their cost is far from uniform: ``verify`` takes 0.9 to 1.5 s
depending on its seed, and one symbol pair of the oracle pool costs a
hundred times another, so inputs drawn from the run seed would make the
spread between runs larger than any bound worth enforcing.
"""

from __future__ import annotations

import random
import re

WORKLOADS = ("cli-d4", "eh-d6", "oracle")

# verify and oracle-check run at these seeds in every cli-d4 round; two
# of each put the slowest operation (verify) at 20% of the mix, so the
# 90th percentile lands inside it rather than on a class boundary
CLI_SEEDS = (0, 1)

CLI_COMMANDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("wres-p1", ("wres", "--d", "4", "--power", "1")),
    ("wres-p1-x", ("wres", "--d", "4", "--power", "1", "--include-x")),
    (
        "wres-p1-comm",
        ("wres", "--d", "4", "--power", "1", "--mode", "commutative", "--no-torsion"),
    ),
    ("wres-p1-json", ("wres", "--d", "4", "--power", "1", "--format", "json")),
    ("wres-p2", ("wres", "--d", "4", "--power", "2")),
    ("parametrix", ("parametrix", "--d", "4", "--order", "2")),
) + tuple(
    (f"verify-{k}", ("verify", "--d", "4", "--seed", str(k))) for k in CLI_SEEDS
) + tuple(
    (f"oracle-check-{k}", ("oracle-check", "--d", "3", "--seed", str(k)))
    for k in CLI_SEEDS
)

# the d=6 Einstein-Hilbert residue Wres(Delta^-2), without and with torsion
EH_CASES = (("eh-notorsion", False), ("eh-torsion", True))

# oracle pool: operation i evaluates every certified zero on a fresh d=4
# assignment with seed ORACLE_SEED_BASE + i, and checks symbol pair i
ORACLE_OPS = 10
ORACLE_SEED_BASE = 100
THETA_MODES = ("zero", "rational", "irrational")
ORACLE_ASSIGNMENT = {"eps": 0.08, "radius": 3, "tol": 1e-10}
# the d=2 pairs and their assignment come from the seeds of acceptance
# criterion 8, so the pool is the composition check the test suite runs
PAIR_SEED = 816
PAIR_XI = (0.7, -1.3)

# an oracle deviation, and every float a CLI command prints, must stay
# below this; the nonzero inputs behind it must stay above SCALE_FLOOR
ORACLE_BOUND = 1e-8
SCALE_FLOOR = 1e-6


def base_ops(workload: str) -> list[dict]:
    """The operations of one round, in a fixed order."""
    if workload == "cli-d4":
        return [{"name": name, "argv": list(argv)} for name, argv in CLI_COMMANDS]
    if workload == "eh-d6":
        return [{"name": name, "torsion": torsion} for name, torsion in EH_CASES]
    if workload == "oracle":
        return [
            {
                "name": f"oracle-{i}",
                "index": i,
                "seed": ORACLE_SEED_BASE + i,
                "theta": THETA_MODES[i % len(THETA_MODES)],
            }
            for i in range(ORACLE_OPS)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload: str, seed: int):
    """Endless sequence of rounds; each is the base multiset in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    base = base_ops(workload)
    while True:
        ops = [dict(op) for op in base]
        rng.shuffle(ops)
        yield ops


def take_rounds(workload: str, seed: int, count: int) -> list[list[dict]]:
    gen = rounds(workload, seed)
    return [next(gen) for _ in range(count)]


class RoundClock:
    """Closed-loop pacing: start another round only while the mean round
    so far still fits in the budget; the first round always runs."""

    def __init__(self, seconds: float, start: float):
        self.seconds = seconds
        self.start = start
        self.done = 0

    def another(self, now: float) -> bool:
        if self.done == 0:
            return True
        elapsed = now - self.start
        return elapsed + elapsed / self.done <= self.seconds


# the CLI prints deviations and bounds as %.3e; those digits may change
# with any rounding change, so they are checked against ORACLE_BOUND and
# masked before the byte comparison
FLOAT_RE = re.compile(r"(?<![\w.])-?\d+\.\d+e[-+]\d+")


def mask_floats(text: str) -> tuple[str, list[float]]:
    values = [float(m) for m in FLOAT_RE.findall(text)]
    return FLOAT_RE.sub("<float>", text), values


def check_cli(stdout: str, code: int, ref: dict) -> str | None:
    """None when the output matches its reference, else the reason."""
    if code != ref["code"]:
        return f"exit code {code}, expected {ref['code']}"
    masked, values = mask_floats(stdout)
    if masked != ref["masked"]:
        return "stdout differs from the reference"
    bad = [v for v in values if not abs(v) < ORACLE_BOUND]
    if bad:
        return f"printed deviations {bad} reach the {ORACLE_BOUND} bound"
    return None


def check_oracle(res: dict) -> str | None:
    if not res["worst"] < ORACLE_BOUND:
        return f"certified zero evaluates to {res['worst']:.3e}"
    if not res["gap"] < ORACLE_BOUND:
        return f"composition differs from the gamma sum by {res['gap']:.3e}"
    if not (res["scale"] > SCALE_FLOOR and res["lhs"] > SCALE_FLOOR):
        return "oracle inputs degenerated to zero"
    return None
