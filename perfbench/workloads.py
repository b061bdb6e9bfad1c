"""The benchmark's workloads: their CLI arguments, step counts and output checks.

Every check compares the program's output files with a property the method
must have, or with a value computed here apart from the program (the
discrete energy, the Flory-Huggins bound beta).  None compares with a
stored copy of earlier output.  A check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# CLI defaults the workloads rely on: domain (0, 2 pi)^2, eps = 0.1, and the
# Flory-Huggins temperatures theta = 0.8, theta_c = 1.6.
DOMAIN = 2.0 * math.pi
EPS = 0.1
FH_THETA = 0.8
FH_THETA_C = 1.6

MBP_TOL = 1e-12
ENERGY_MATCH_RTOL = 1e-12
DISSIPATION_RTOL = 1e-10
SYMMETRY_TOL = 1e-12
RATE_SLACK = 0.25
# converge's reference run takes the smallest tau divided by this (--ref self_finer:8)
REF_DIVIDER = 8


def fh_f(u):
    return 0.5 * FH_THETA * np.log((1.0 - u) / (1.0 + u)) + FH_THETA_C * u


def fh_beta() -> float:
    """Positive root of the Flory-Huggins f, bisected until the bracket stops shrinking."""
    lo, hi = 0.5, 1.0 - 1e-15
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if fh_f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def double_well(potential: str, u: np.ndarray) -> np.ndarray:
    """F(u) of the Ginzburg-Landau or Flory-Huggins well."""
    if potential == "gl":
        return 0.25 * (1.0 - u * u) ** 2
    return 0.5 * FH_THETA * ((1.0 + u) * np.log1p(u) + (1.0 - u) * np.log1p(-u)) - 0.5 * FH_THETA_C * u * u


def energy(potential: str, grid: np.ndarray, h: float) -> float:
    """Discrete free energy: eps^2/2 times the squared interior face
    differences over h, plus F summed over the cells, times the cell area."""
    dx = np.diff(grid, axis=1) / h
    dy = np.diff(grid, axis=0) / h
    return h * h * (0.5 * EPS * EPS * (np.sum(dx * dx) + np.sum(dy * dy)) + np.sum(double_well(potential, grid)))


@dataclass(frozen=True)
class Workload:
    """One CLI invocation of etdac; ``run`` or ``converge`` on a square grid."""

    name: str
    command: str
    potential: str
    grid: int
    order: int
    rescaled: bool
    t_end: float = 2.0
    tau: float = 0.0
    taus: tuple = ()
    seeded: bool = False
    symmetric: bool = False
    must_rescale: bool = False

    def argv(self, seed: int, out: Path) -> list:
        args = [self.command, "--potential", self.potential, "--grid", str(self.grid),
                "--order", str(self.order), "--t-end", f"{self.t_end:g}",
                "--rescaled", "true" if self.rescaled else "false"]
        if self.command == "run":
            args += ["--tau", f"{self.tau:g}"]
        else:
            args += ["--taus", ",".join(f"{t:g}" for t in self.taus), "--ref", f"self_finer:{REF_DIVIDER}"]
        if self.seeded:
            args += ["--seed", str(seed % 2**32)]
        return args + ["--out", str(out)]

    @property
    def steps(self) -> int:
        """Time steps one invocation takes, the reference run included."""
        if self.command == "run":
            return round(self.t_end / self.tau)
        taus = list(self.taus) + [min(self.taus) / REF_DIVIDER]
        return sum(round(self.t_end / t) for t in taus)

    @property
    def beta(self) -> float:
        return 1.0 if self.potential == "gl" else fh_beta()

    def check(self, out: Path) -> list:
        if self.command == "run":
            return check_run(self, Path(out))
        return check_converge(self, Path(out))


def read_csv(path: Path) -> dict:
    """Columns of a CSV file with a header row, as float arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[k]) if r[k] else math.nan for r in body]) for k, name in enumerate(header)}


def field_grid(w: Workload, field: dict, failures: list) -> np.ndarray | None:
    """The (ny, nx) array of field_final.csv, or None when its cells are not
    exactly the grid's, once each, at the cell centres."""
    n = w.grid
    i, j = field["i"].astype(int), field["j"].astype(int)
    if i.size != n * n or i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n:
        failures.append(f"field: {i.size} cells or indices out of range for a {n}x{n} grid")
        return None
    grid = np.full((n, n), np.nan)
    grid[j, i] = field["u"]
    if np.isnan(grid).any():
        failures.append("field: some cells are missing or repeated")
        return None
    h = DOMAIN / n
    if np.max(np.abs(field["x"] - (i + 0.5) * h)) > 1e-12 or np.max(np.abs(field["y"] - (j + 0.5) * h)) > 1e-12:
        failures.append("field: coordinates are not the cell centres")
    return grid


def check_run(w: Workload, out: Path) -> list:
    failures = []
    diag = read_csv(out / "diagnostics.csv")
    field = read_csv(out / "field_final.csv")
    beta = w.beta

    if diag["n"].size != w.steps + 1 or diag["n"][-1] != w.steps or abs(diag["t"][-1] - w.t_end) > 1e-9:
        failures.append(f"steps: diagnostics end at n={diag['n'][-1]:g}, t={diag['t'][-1]:g}; "
                        f"want n={w.steps}, t={w.t_end:g}")
    worst = np.max(diag["max_norm"])
    if not worst <= beta + MBP_TOL:
        failures.append(f"maximum bound: diagnostics max_norm {worst:.17g} > beta {beta:.17g}")
    if not np.max(np.abs(field["u"])) <= beta + MBP_TOL:
        failures.append(f"maximum bound: a field_final cell reaches {np.max(np.abs(field['u'])):.17g} > beta {beta:.17g}")

    e = diag["energy"]
    rise = e[1:] - e[:-1] - DISSIPATION_RTOL * (1.0 + np.abs(e[:-1]))
    if not np.all(rise <= 0.0):
        k = int(np.argmax(rise)) + 1
        failures.append(f"energy: rises at row n={diag['n'][k]:g}, {e[k - 1]:.17g} -> {e[k]:.17g}")

    grid = field_grid(w, field, failures)
    if grid is None:
        return failures
    mine = energy(w.potential, grid, DOMAIN / w.grid)
    if not abs(mine - e[-1]) <= ENERGY_MATCH_RTOL * abs(mine):
        failures.append(f"energy: last diagnostics row {e[-1]:.17g}, recomputed from field_final {mine:.17g}")

    if w.symmetric:
        for label, other in (("odd in x", -grid[:, ::-1]), ("odd in y", -grid[::-1, :]), ("x<->y swap", grid.T)):
            gap = np.max(np.abs(grid - other))
            if not gap <= SYMMETRY_TOL:
                failures.append(f"symmetry: final field breaks {label} by {gap:.3g}")
    if w.must_rescale and not np.min(diag["alpha_min"][1:]) < 1.0:
        failures.append("rescaling: alpha_min is 1 on every step, so rescaling never shrank a value")
    return failures


def check_converge(w: Workload, out: Path) -> list:
    failures = []
    conv = read_csv(out / "convergence.csv")
    if not np.array_equal(conv["tau"], np.array(sorted(w.taus, reverse=True))):
        return [f"convergence: rows for tau = {list(conv['tau'])}, want {sorted(w.taus, reverse=True)}"]
    floor = w.order - RATE_SLACK
    for norm in ("linf", "l2"):
        err = conv[f"{norm}_err"]
        if not (np.all(np.isfinite(err)) and np.all(err[1:] < err[:-1])):
            failures.append(f"convergence: {norm} errors do not fall monotonically: {list(err)}")
        rates = conv[f"{norm}_rate"][1:]
        if not np.all(rates >= floor):
            failures.append(f"convergence: {norm} rates {list(rates)} below r - {RATE_SLACK} = {floor}")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-512", "run", "gl", grid=512, order=5, rescaled=True, tau=0.1, symmetric=True),
        Workload("mbp-fh", "run", "fh", grid=128, order=7, rescaled=True, tau=1.0, t_end=100.0,
                 seeded=True, must_rescale=True),
        Workload("converge-128", "converge", "gl", grid=128, order=3, rescaled=False,
                 taus=(0.1, 0.05, 0.025, 0.0125)),
    )
}
