"""Structure-preservation monitoring: energy, maximum norm, rescale activity.

Each record carries the discrete free energy, the maximum norm, the minimum
pointwise rescale factor of the step that produced the state, and two
flags: dissipation_ok compares against the previous energy with an
absolute-plus-relative roundoff guard, and mbp_ok checks the maximum bound.
States outside the logarithmic potential's domain get a +inf energy
sentinel instead of an exception, so bound-violation experiments can run to
completion and be plotted.  write_csv writes these series and every other
table the CLI makes.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields

from .grid import Field, discrete_energy, max_norm

__all__ = ["StepDiagnostics", "RunReport", "record", "write_csv", "DISSIPATION_RTOL", "MBP_TOL"]

DISSIPATION_RTOL = 1e-10
MBP_TOL = 1e-12


@dataclass(frozen=True)
class StepDiagnostics:
    n: int
    t: float
    energy: float
    max_norm: float
    alpha_min: float
    dissipation_ok: bool
    mbp_ok: bool


@dataclass
class RunReport:
    """The per-step series of a run, including the initial state."""

    series: list = field(default_factory=list)

    def append(self, diag: StepDiagnostics):
        self.series.append(diag)

    def summary(self) -> dict:
        first_diss = next((d.n for d in self.series if not d.dissipation_ok), None)
        first_mbp = next((d.n for d in self.series if not d.mbp_ok), None)
        final_energy = self.series[-1].energy if self.series else None
        return {
            "first_dissipation_violation": first_diss,
            "first_mbp_violation": first_mbp,
            "final_energy": final_energy,
        }


def record(ctx, n: int, u: Field, prev_energy: float = None, *, alpha_min: float = 1.0, t: float = None) -> StepDiagnostics:
    """Measure one state; prev_energy=None marks a state with no predecessor."""
    if t is None:
        t = n * ctx.tau
    # the energy's differences and F go through ctx's tmp row; its reshape raises unless u has ctx's cells
    mn, row = max_norm(u), ctx.workspace.tmp.reshape(u.mesh.ncells)
    try:
        energy = discrete_energy(u, ctx.plan.eps, ctx.potential, row)
    except ValueError:
        energy = float("inf")
    dissipation_ok = prev_energy is None or energy <= prev_energy + DISSIPATION_RTOL * (1.0 + abs(prev_energy))
    mbp_ok = mn <= ctx.potential.beta + MBP_TOL
    return StepDiagnostics(n, float(t), float(energy), mn, float(alpha_min), bool(dissipation_ok), bool(mbp_ok))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(rows, path, header: tuple = None) -> None:
    """Write a table: a RunReport's series under StepDiagnostics' field
    names, or rows of cells under header.  Floats as %.17g, booleans as
    0/1, None as an empty cell, ints and strings as they are."""
    if isinstance(rows, RunReport):
        header = [f.name for f in fields(StepDiagnostics)]
        rows = [astuple(d) for d in rows.series]
    try:
        with open(path, "w", newline="") as fh:
            for row in [header, *rows]:
                fh.write(",".join(map(_cell, row)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
