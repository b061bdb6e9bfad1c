"""Command-line driver: single runs, convergence studies, bound and energy
experiments, and the singular-value / step-bound reference tables.

Subcommands: run, converge, mbp-test, energy-test, tables.  A JSON config
file supplies defaults and every flag overrides its key.  Exit codes:
0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .config import (
    ConfigError,
    build_mesh,
    build_plan,
    build_potential,
    initial_field,
    resolve_config,
)
from .diagnostics import MBP_TOL, RunReport, record, write_csv
from .grid import Field, l2_norm, max_norm, write_field_csv
from .scheme import Vandermonde, make_nodes, make_scheme, sigma_min, tau_max
from .stepper import MAX_ORDER, StepContext, StepFailure, phi_keys, step

__all__ = ["main"]

# far beyond any run this solver can finish; a larger plan is a mistyped tau
MAX_STEPS = 10**7
# bytes of phi grids one step context may cache, 8 nx ny each: at 1024^2
# this admits order 8 (108 grids, 864 MiB) and refuses orders 9 and 10
# (151 and 212 grids); at 512^2 it admits every order
MAX_PHI_CACHE_BYTES = 2**30
# cells a grid may have, 4096^2, where one field takes 128 MiB.  The one
# live step context holds the plan (12 nx ny bytes or less), its phi grids
# (one field each, capped above) and, from its first step on, a workspace
# of 3r + 2 fields; each step returns one more field
MAX_CELLS = 2**24


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {s!r}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its keys")
    common.add_argument("--order", type=int, help="scheme order r")
    common.add_argument("--rescaled", type=_parse_bool, metavar="BOOL", help="pointwise rescaling on/off")
    common.add_argument("--tau", type=float, help="time step")
    common.add_argument("--t-end", type=float, dest="t_end", help="final time")
    common.add_argument("--grid", type=int, help="cells per dimension (nx = ny)")
    common.add_argument("--eps", type=float, help="interfacial width")
    common.add_argument("--potential", choices=["gl", "fh"], help="double-well kind")
    common.add_argument("--theta", type=float, help="logarithmic potential temperature")
    common.add_argument("--theta-c", type=float, dest="theta_c", help="logarithmic potential critical temperature")
    common.add_argument("--kappa", type=float, help="stabilizer override (>= potential minimum)")
    common.add_argument("--nodes", choices=["uniform", "chebyshev"], help="interpolation node family")
    common.add_argument("--seed", type=int, help="random initial data seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--paper-scale", action="store_true", help="use the full 512^2 grid")
    common.add_argument("--dump-config", action="store_true", help="echo the resolved config")

    parser = argparse.ArgumentParser(prog="etdac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[common], help="integrate one trajectory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("converge", parents=[common], help="temporal convergence study")
    p.add_argument("--taus", help="comma-separated step sizes (default 0.1/2^k, k=0..5)")
    p.add_argument("--ref", default="self_finer:8",
                   help='reference: "self_finer:K" (same scheme at finest/K) or "order_up"')
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("mbp-test", parents=[common], help="maximum-bound experiment, tau=1")
    p.set_defaults(func=cmd_mbp_test)

    p = sub.add_parser("energy-test", parents=[common], help="energy dissipation sweep")
    p.set_defaults(func=cmd_energy_test)

    p = sub.add_parser("tables", parents=[common], help="singular-value and step-bound tables")
    p.set_defaults(func=cmd_tables)
    return parser


def _split_steps(t_end: float, tau: float) -> tuple[int, float]:
    """Number of full tau steps plus the shortened remainder (0 if exact).

    A plan of more than MAX_STEPS steps, or of a non-finite count, is a
    ConfigError.
    """
    if not (tau > 0 and t_end / tau <= MAX_STEPS):
        raise ConfigError(f"t_end={t_end:g} at tau={tau:g} plans more than {MAX_STEPS} steps")
    m = int(math.floor(t_end / tau + 1e-9))
    rem = t_end - m * tau
    if rem <= 1e-9 * tau:
        rem = 0.0
    return m, rem


def _setup(cfg, runs):
    """(potential, plan, u0) of a resolved config.

    runs is the (spec, tau) of each step context the command makes; an
    over-budget grid or phi cache is a ConfigError before anything of the
    grid's size is allocated.
    """
    mesh = build_mesh(cfg)
    if mesh.ncells > MAX_CELLS:
        raise ConfigError(f"a {mesh.nx}x{mesh.ny} grid has more than the {MAX_CELLS} cells a run may have")
    for spec, tau in runs:
        cache = len(phi_keys(spec, tau)) * 8 * mesh.ncells
        if cache > MAX_PHI_CACHE_BYTES:
            raise ConfigError(
                f"order {spec.order} on a {mesh.nx}x{mesh.ny} grid caches {cache / 2**20:.0f} MiB "
                f"of phi grids, above the {MAX_PHI_CACHE_BYTES / 2**20:.0f} MiB budget"
            )
    potential = build_potential(cfg)
    plan = build_plan(cfg, mesh, potential)
    return potential, plan, initial_field(cfg, mesh, potential)


def _states(plan, potential, spec, rescaled, tau, t_end, u0):
    """The one run loop: yields (ctx, n, t, u, alpha_min) for the initial
    state (n = 0) and then after each step to t_end.

    The last step is shortened to end at t_end when tau leaves a remainder.
    A numerical failure raises from the step that hit it.
    """
    if rescaled and max_norm(u0) > potential.beta + MBP_TOL:
        raise ConfigError(
            f"initial data has max norm {max_norm(u0):.6g}, above the bound "
            f"beta={potential.beta:.6g} required for rescaled stepping"
        )
    m, rem = _split_steps(t_end, tau)
    ctx = StepContext(plan, potential, spec, tau, rescaled=rescaled)
    yield ctx, 0, 0.0, u0, 1.0
    u = u0
    for i in range(1, m + 1 + bool(rem)):
        t = i * tau
        if i > m:  # the shortened last step, which ends at t_end
            ctx, t = StepContext(plan, potential, spec, rem, rescaled=rescaled), t_end
        u, alpha_min = step(ctx, u, n=i)
        yield ctx, i, t, u, alpha_min


def _integrate(plan, potential, spec, rescaled, tau, t_end, u0):
    """Run to t_end, recording every state; returns (u, report, error-or-None).

    A numerical failure stops the run but keeps the completed records.
    """
    report = RunReport()
    try:
        for ctx, n, t, u, alpha_min in _states(plan, potential, spec, rescaled, tau, t_end, u0):
            prev_energy = report.series[-1].energy if n else None
            report.append(record(ctx, n, u, prev_energy, alpha_min=alpha_min, t=t))
            del ctx  # so that a shortened last step's context is the only one alive
    except StepFailure as exc:
        return u, report, exc
    return u, report, None


def _final(plan, potential, spec, rescaled, tau, t_end, u0) -> Field:
    """The field at t_end, recording nothing; a numerical failure raises."""
    for _, _, _, u, _ in _states(plan, potential, spec, rescaled, tau, t_end, u0):
        pass
    return u


def _outdir(cfg) -> str:
    """The output directory, made before any step so that a bad one costs none."""
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out!r}: {exc}") from exc
    return out


def cmd_run(cfg, args) -> int:
    spec = make_scheme(int(cfg["order"]), cfg["nodes"])
    potential, plan, u0 = _setup(cfg, [(spec, cfg["tau"])])
    out = _outdir(cfg)
    u, report, err = _integrate(plan, potential, spec, cfg["rescaled"], cfg["tau"], cfg["t_end"], u0)
    write_csv(report, os.path.join(out, "diagnostics.csv"))
    write_field_csv(u, os.path.join(out, "field_final.csv"))
    if err is not None:
        raise err
    s = report.summary()
    last = report.series[-1]
    print(
        f"run: order={cfg['order']} rescaled={cfg['rescaled']} tau={cfg['tau']:g} "
        f"steps={len(report.series) - 1} t={last.t:g} energy={last.energy:.12g} "
        f"max_norm={last.max_norm:.12g} "
        f"dissipation_violation={s['first_dissipation_violation']} "
        f"mbp_violation={s['first_mbp_violation']}"
    )
    print(f"wrote {os.path.join(out, 'diagnostics.csv')} and {os.path.join(out, 'field_final.csv')}")
    return 0


def _parse_ref(spec_str: str, order: int) -> tuple[int, float | None]:
    """Returns (ref_order, finest_divider); divider None means order_up."""
    if spec_str == "order_up":
        if order >= MAX_ORDER:
            raise ConfigError(f"--ref order_up needs order {order + 1}; stepping supports order <= {MAX_ORDER}")
        return order + 1, None
    name, colon, divider = spec_str.partition(":")
    if name != "self_finer" or colon and not (divider.isascii() and divider.isdigit()):
        raise ConfigError(f"unknown reference spec {spec_str!r}; expected order_up, self_finer or self_finer:K")
    k = int(divider) if colon else 8
    if k < 1:
        raise ConfigError("self_finer divider must be >= 1")
    return order, float(k)


def cmd_converge(cfg, args) -> int:
    if args.taus:
        try:
            taus = [float(s) for s in args.taus.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --taus list: {exc}") from exc
    else:
        taus = [0.1 * 2.0**-k for k in range(6)]
    taus = sorted(taus, reverse=True)
    if len(set(taus)) < len(taus):
        raise ConfigError(f"--taus repeats a step size: {args.taus}")
    if len(taus) < 3:
        raise ConfigError("a convergence study needs at least 3 step sizes")
    t_end = cfg["t_end"]
    if t_end <= 0:
        raise ConfigError("t_end must be positive for a convergence study")
    for tau in taus:
        if not (math.isfinite(tau) and tau > 0):
            raise ConfigError(f"tau={tau} in --taus is not finite and positive")
        # the rule _integrate steps by, so every solve takes whole steps of tau
        m, rem = _split_steps(t_end, tau)
        if m < 1 or rem:
            raise ConfigError(f"tau={tau} does not divide t_end={t_end}")

    order = int(cfg["order"])
    ref_order, divider = _parse_ref(args.ref, order)
    tau_ref = min(taus) if divider is None else min(taus) / divider
    _split_steps(t_end, tau_ref)  # an oversized reference plan is refused before any set-up
    ref_spec, spec = make_scheme(ref_order, cfg["nodes"]), make_scheme(order, cfg["nodes"])
    potential, plan, u0 = _setup(cfg, [(ref_spec, tau_ref)] + [(spec, tau) for tau in taus])
    out = _outdir(cfg)

    u_ref = _final(plan, potential, ref_spec, cfg["rescaled"], tau_ref, t_end, u0)
    ref_linf = max_norm(u_ref)
    ref_l2 = l2_norm(u_ref)

    rows = []
    prev_errs = None
    for tau in taus:
        u = _final(plan, potential, spec, cfg["rescaled"], tau, t_end, u0)
        diff = Field(plan.mesh, u.values - u_ref.values)
        e_linf = max_norm(diff) / ref_linf
        e_l2 = l2_norm(diff) / ref_l2
        if prev_errs is None:
            rates = (None, None)
        else:
            # an exactly-zero error (run coincides with the reference) gets
            # an infinite observed rate rather than a division error
            rates = (
                math.inf if e_linf == 0.0 else math.log2(prev_errs[0] / e_linf),
                math.inf if e_l2 == 0.0 else math.log2(prev_errs[1] / e_l2),
            )
        rows.append((tau, e_linf, rates[0], e_l2, rates[1]))
        prev_errs = (e_linf, e_l2)

    path = os.path.join(out, "convergence.csv")
    write_csv(rows, path, ("tau", "linf_err", "linf_rate", "l2_err", "l2_rate"))
    print(f"convergence: order={order} ref={'order ' + str(ref_order) if divider is None else 'self'} "
          f"tau_ref={tau_ref:g} grid={cfg['nx']}x{cfg['ny']}")
    print(f"{'tau':>12} {'Linf_err':>12} {'rate':>7} {'L2_err':>12} {'rate':>7}")
    for tau, el, rl, e2, r2 in rows:
        print(f"{tau:12.6g} {el:12.4e} {'' if rl is None else format(rl, '7.3f')} "
              f"{e2:12.4e} {'' if r2 is None else format(r2, '7.3f')}")
    print(f"wrote {path}")
    return 0


def cmd_mbp_test(cfg, args) -> int:
    if cfg["potential"]["kind"] != "fh":
        raise ConfigError("mbp-test requires the logarithmic potential (--potential fh)")
    if cfg["init"].get("kind") != "random":
        cfg = dict(cfg)
        cfg["init"] = {"kind": "random", "seed": 42, "amplitude": 1.0}
    specs = [make_scheme(order, cfg["nodes"]) for order in (3, 5, 7)]
    potential, plan, u0 = _setup(cfg, [(spec, 1.0) for spec in specs])
    out = _outdir(cfg)
    steps = 100
    rc = 0
    for rescaled in (False, True):
        variant = "rescaled" if rescaled else "standard"
        for spec in specs:
            order = spec.order
            u, report, err = _integrate(plan, potential, spec, rescaled, 1.0, float(steps), u0)
            path = os.path.join(out, f"mbp_{variant}_r{order}.csv")
            write_csv(report, path)
            peak = max(d.max_norm for d in report.series)
            note = ""
            if err is not None:
                note = f" stopped at step {err.step_index}: {err}"
            print(f"mbp-test: {variant} r={order} completed={len(report.series) - 1}/{steps} "
                  f"peak_max_norm={peak:.12g} beta={potential.beta:.12g}{note}")
            if rescaled and (err is not None or any(not d.mbp_ok for d in report.series)):
                print(f"error: rescaled r={order} violated the maximum bound", file=sys.stderr)
                rc = 3
    print(f"wrote mbp_*.csv in {out}")
    return rc


def cmd_energy_test(cfg, args) -> int:
    cfg = dict(cfg)
    cfg["init"] = {"kind": "sinprod", "amplitude": 0.5}
    specs = [make_scheme(order, cfg["nodes"]) for order in (3, 4, 5, 6)]
    taus = (0.2, 0.1, 0.01)
    potential, plan, u0 = _setup(cfg, [(spec, tau) for spec in specs for tau in taus])
    out = _outdir(cfg)
    t_end = cfg["t_end"]
    total_violations = 0
    for spec in specs:
        order = spec.order
        bound = tau_max(order, plan.kappa, cfg["nodes"], rescaled=True)
        for tau in taus:
            u, report, err = _integrate(plan, potential, spec, True, tau, t_end, u0)
            if err is not None:
                raise err
            violations = sum(1 for d in report.series if not d.dissipation_ok)
            total_violations += violations
            path = os.path.join(out, f"energy_r{order}_tau{tau:g}.csv")
            write_csv(report, path)
            print(f"energy-test: r={order} tau={tau:g} steps={len(report.series) - 1} "
                  f"tau_max={bound:.4g} dissipation_violations={violations} "
                  f"final_energy={report.series[-1].energy:.12g}")
    print(f"energy-test: total dissipation violations = {total_violations}")
    print(f"wrote energy_*.csv in {out}")
    return 0


def cmd_tables(cfg, args) -> int:
    out = _outdir(cfg)
    kappa = 2.0 if cfg["kappa"] is None else float(cfg["kappa"])
    p1 = os.path.join(out, "table_sigma_min.csv")
    write_csv([(r, kind, sigma_min(Vandermonde(make_nodes(r, kind))))
               for kind in ("uniform", "chebyshev") for r in range(1, 11)],
              p1, ("r", "kind", "sigma_min"))
    p2 = os.path.join(out, "table_tau_max.csv")
    write_csv([(r, kappa, variant, tau_max(r, kappa, cfg["nodes"], rescaled=resc))
               for variant, resc in (("standard", False), ("rescaled", True)) for r in range(1, 11)],
              p2, ("r", "kappa", "variant", "tau_max"))
    print(f"wrote {p1} and {p2}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.dump_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
        return args.func(cfg, args)
    except (ConfigError, OSError) as exc:
        # OSError: an output file the writers could not write inside --out
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StepFailure as exc:
        print(f"numerical failure at step {exc.step_index}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
