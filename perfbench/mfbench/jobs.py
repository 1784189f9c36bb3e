"""Seeded job lists for the three workloads.

Each workload is a list of job families. A family owns a sorted domain of
parameter values that the CLI accepts and a job count per list; the domain
is split into that many contiguous strata and each stratum gives one job.
Families whose cost varies smoothly with the parameter (q-expansion
precision, bound weight) take a value drawn uniformly from the stratum.
Families whose cost jumps between neighbouring parameters (decompose 24 runs
in 0.5 s, decompose 26 in 1.7 s) take the stratum's midpoint, because a draw
among them would move a list's total time by more than the benchmark's
bounds. The seed then shuffles the whole list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

WORKLOAD_NAMES = ("series", "hecke", "analytic")
BOUNDS_CONDUCTORS = "1,3,4,5,7,8"


def dim_cusp(k: int) -> int:
    """dim S_k at level one, for even k >= 4."""
    return k // 12 - 1 if k % 12 == 2 else k // 12


def cusp_weights(lo: int, hi: int) -> list[int]:
    return [k for k in range(lo, hi + 1) if k % 2 == 0 and k >= 4 and dim_cusp(k) >= 1]


@dataclass(frozen=True)
class Family:
    name: str
    domain: tuple
    count: int
    argv: Callable[[object], list[str]]
    drawn: bool = False  # draw within each stratum, else take its midpoint
    # "prefix": the golden output at the largest parameter covers every
    # smaller one (q-expansions at a lower precision are prefixes).
    golden: str = "each"

    def _strata(self) -> list[range]:
        n = len(self.domain)
        return [range(i * n // self.count, (i + 1) * n // self.count) for i in range(self.count)]

    def draw(self, rng: random.Random) -> list[object]:
        if self.drawn:
            return [self.domain[rng.choice(s)] for s in self._strata()]
        return self.reachable()

    def reachable(self) -> list[object]:
        """Every parameter a draw can produce."""
        if self.drawn:
            return list(self.domain)
        return [self.domain[s[(len(s) - 1) // 2]] for s in self._strata()]


def _families() -> dict[str, list[Family]]:
    # one operator index per weight, cycling through 2, 3, 5, 7 along the weights
    hecke_pairs = tuple(((2, 3, 5, 7)[i % 4], k) for i, k in enumerate(cusp_weights(12, 100)))
    return {
        "series": [
            Family("qexp_delta", tuple(range(400, 2001)), 5,
                   lambda p: ["qexp", "Delta", "--prec", str(p)], drawn=True, golden="prefix"),
            Family("qexp_j", tuple(range(200, 501)), 2,
                   lambda p: ["qexp", "j", "--prec", str(p)], golden="prefix"),
            Family("verify_series", ("ramanujan", "e24", "e32"), 3,
                   lambda t: ["verify", t]),
            Family("basis", tuple(range(24, 97, 2)), 4,
                   lambda k: ["basis", str(k)]),
        ],
        "hecke": [
            Family("maeda", tuple(cusp_weights(12, 100)), 5,
                   lambda k: ["maeda", str(k)]),
            Family("hecke", hecke_pairs, 4,
                   lambda nk: ["hecke", str(nk[0]), str(nk[1])]),
            Family("eigen", tuple(cusp_weights(12, 100)), 3,
                   lambda k: ["eigen", str(k)]),
            Family("decompose", tuple(cusp_weights(12, 44)), 3,
                   lambda k: ["decompose", str(k)]),
            Family("verify_table1", ("table1",), 1,
                   lambda t: ["verify", t]),
        ],
        "analytic": [
            Family("zeros", tuple(range(1, 10)), 2,
                   lambda n: ["zeros", str(n)]),
            Family("finiteness", tuple(range(6, 15)), 5,
                   lambda l: ["finiteness", "--a", "1", "--b", "1", "--kmax", "30", "--lmax", str(l)]),
            Family("bounds", tuple(range(6, 30)), 4,
                   lambda k: ["bounds", str(k), BOUNDS_CONDUCTORS], drawn=True),
        ],
    }


FAMILIES = _families()
FAMILY_BY_NAME = {f.name: f for fams in FAMILIES.values() for f in fams}


@dataclass(frozen=True)
class Job:
    family: str
    param: object

    @property
    def argv(self) -> list[str]:
        """CLI arguments after `modforms`, with JSON output requested."""
        return FAMILY_BY_NAME[self.family].argv(self.param) + ["--output", "json"]

    def as_json(self) -> dict:
        return {"family": self.family, "param": self.param, "argv": self.argv}


def draw_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for this seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [Job(fam.name, p) for fam in FAMILIES[workload] for p in fam.draw(rng)]
    rng.shuffle(jobs)
    return jobs


def golden_jobs(families: Sequence[Family]) -> list[Job]:
    """Every job the golden file must cover for these families."""
    out = []
    for fam in families:
        params = fam.domain[-1:] if fam.golden == "prefix" else fam.reachable()
        out.extend(Job(fam.name, p) for p in params)
    return out
