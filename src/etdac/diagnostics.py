"""Structure-preservation monitoring: energy, maximum norm, rescale activity.

Each record carries the discrete free energy, the maximum norm, the minimum
pointwise rescale factor of the step that produced the state, and two
flags: dissipation_ok compares against the previous energy with an
absolute-plus-relative roundoff guard, and mbp_ok checks the maximum bound.
States outside the logarithmic potential's domain get a +inf energy
sentinel instead of an exception, so bound-violation experiments can run to
completion and be plotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import Field, discrete_energy, max_norm

__all__ = ["StepDiagnostics", "RunReport", "energy_or_inf", "record", "write_csv", "DISSIPATION_RTOL", "MBP_TOL"]

DISSIPATION_RTOL = 1e-10
MBP_TOL = 1e-12

_CSV_HEADER = "n,t,energy,max_norm,alpha_min,dissipation_ok,mbp_ok"


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


def energy_or_inf(ctx, u: Field) -> float:
    """Discrete energy of u, or the +inf sentinel outside the potential's domain."""
    try:
        return discrete_energy(u, ctx.plan.eps, ctx.potential)
    except ValueError:
        return float("inf")


def record(ctx, n: int, u: Field, prev_energy: float = None, *, alpha_min: float = 1.0, t: float = None) -> StepDiagnostics:
    """Measure one state; prev_energy=None marks a state with no predecessor."""
    if t is None:
        t = n * ctx.tau
    mn = max_norm(u)
    energy = energy_or_inf(ctx, u)
    if prev_energy is None:
        dissipation_ok = True
    else:
        dissipation_ok = energy <= prev_energy + DISSIPATION_RTOL * (1.0 + abs(prev_energy))
    mbp_ok = mn <= ctx.potential.beta + MBP_TOL
    return StepDiagnostics(n, float(t), float(energy), mn, float(alpha_min), bool(dissipation_ok), bool(mbp_ok))


def write_csv(report: RunReport, path) -> None:
    """Emit the diagnostics series; floats as %.17g, booleans as 0/1."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(_CSV_HEADER + "\n")
            for d in report.series:
                fh.write(
                    f"{d.n},{d.t:.17g},{d.energy:.17g},{d.max_norm:.17g},"
                    f"{d.alpha_min:.17g},{int(d.dissipation_ok)},{int(d.mbp_ok)}\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write diagnostics to {path}: {exc}") from exc
