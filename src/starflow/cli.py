"""Command-line front end.

Four subcommands:

    starflow run CONFIG        evolve a profile to stationarity, write outputs
    starflow validate CONFIG   report barrier radii and exponent conditions
    starflow selfcheck         re-run the randomized property suites
    starflow curvature F CONFIG  per-node curvature table for a stored field

Run configurations are INI files with sections [flow], [F], [G], [grid],
[initial], and optionally [output]; see the bundled configs/ directory for
annotated examples.

Exit codes are part of the interface and nothing else is ever returned:

    0   success (run: converged)
    1   validate: no admissible barrier radii; selfcheck: a suite failed
    2   run aborted: diverged, cone exit (also at step 0), or star shape lost
    3   run hit the time cap
    64  usage or configuration parse error
    65  gate failure: --strict validation failed, initial data or a stored
        field not star-shaped, or a stored field not on the configured grid
    70  internal error (a bug; please report the traceback)
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import re
import sys
import tempfile
import traceback
from dataclasses import asdict, dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, flow, geometry, speed, spheregrid, symfunc

__all__ = [
    "ConfigError", "GateError", "RunSetup", "parse_config", "build_parser", "main",
    "cmd_run", "cmd_validate", "cmd_selfcheck", "cmd_curvature",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1  # validate: no admissible barriers; selfcheck: suite failed
EXIT_ABORTED = 2
EXIT_TIME_CAP = 3
EXIT_USAGE = 64
EXIT_GATE = 65
EXIT_INTERNAL = 70

_STATUS_EXIT = {
    flow.STATUS_CONVERGED: EXIT_OK,
    flow.STATUS_DIVERGED: EXIT_ABORTED,
    flow.STATUS_CONE_EXIT: EXIT_ABORTED,
    flow.STATUS_STAR_SHAPE_LOST: EXIT_ABORTED,
    flow.STATUS_TIME_CAP: EXIT_TIME_CAP,
}


class ConfigError(Exception):
    """Configuration file could not be parsed or is inconsistent."""


class GateError(Exception):
    """A validation gate refused to let the command proceed."""


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 64, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# configuration parsing


@dataclass
class RunSetup:
    config: flow.FlowConfig
    initial: object
    obj_every: int
    config_hash: str
    raw: dict


def _get(cp, section: str, key: str, conv, default=None, required: bool = False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing key {key!r} in section [{section}]")
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc


# variant -> (spec class, ((key, conversion), ...)): the [F] keys of the
# variant, which are also, in order, the arguments of a product factor
_F_VARIANTS = {
    "sigma_k_root": (symfunc.SigmaKRoot, (("k", int),)),
    "quotient_root": (symfunc.QuotientRoot, (("k", int), ("l", int))),
    "power_mean": (symfunc.PowerMean, (("p", float),)),
}


def _parse_f_spec(cp) -> object:
    variant = _get(cp, "F", "variant", str, required=True).strip().lower()
    if variant == "product":
        text = _get(cp, "F", "terms", str, required=True)
        chunks = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
        return symfunc.WeightedProduct(terms=tuple(map(_parse_product_factor, chunks)))
    if variant not in _F_VARIANTS:
        raise ConfigError(f"unknown F variant {variant!r}")
    cls, keys = _F_VARIANTS[variant]
    return cls(**{key: _get(cp, "F", key, conv, required=True) for key, conv in keys})


def _parse_product_factor(chunk: str) -> tuple:
    m = re.fullmatch(r"([0-9.eE+-]+)\s*\*\s*(\w+)\(([^)]*)\)", chunk)
    if not m:
        raise ConfigError(f"bad product term {chunk!r}; expected WEIGHT*variant(args)")
    name = m.group(2).lower()
    if name not in _F_VARIANTS:
        raise ConfigError(f"unknown product factor {name!r}")
    cls, keys = _F_VARIANTS[name]
    args = [a.strip() for a in m.group(3).split(":") if a.strip()]
    if len(args) != len(keys):
        raise ConfigError(f"bad product term {chunk!r}; {name} takes {len(keys)} argument(s)")
    try:
        weight = float(m.group(1))
        return cls(**{key: conv(arg) for (key, conv), arg in zip(keys, args)}), weight
    except ValueError as exc:
        raise ConfigError(f"bad product term {chunk!r}: {exc}") from exc


def _parse_psi_terms(text: str) -> tuple:
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != 4:
            raise ConfigError(
                f"bad psi term {chunk!r}; expected 's vx vy vz' separated by spaces"
            )
        s, vx, vy, vz = (float(p) for p in parts)
        terms.append(speed.PsiTerm(s=s, v=(vx, vy, vz)))
    return tuple(terms)


def _parse_grid(cp) -> spheregrid.Grid:
    mode = _get(cp, "grid", "mode", str, required=True).strip().lower()
    m_theta = _get(cp, "grid", "m_theta", int, required=True)
    if mode == "axisym":
        n = _get(cp, "grid", "n", int, default=2)
        return spheregrid.axisym_grid(n=n, m_theta=m_theta)
    if mode == "full_s2":
        m_phi = _get(cp, "grid", "m_phi", int, required=True)
        return spheregrid.full_s2_grid(m_theta=m_theta, m_phi=m_phi)
    raise ConfigError(f"unknown grid mode {mode!r}")


def _parse_initial(cp) -> object:
    kind = _get(cp, "initial", "kind", str, required=True).strip().lower()
    if kind == "constant":
        return flow.Constant(R=_get(cp, "initial", "radius", float, required=True))
    if kind == "spheroid":
        return flow.Spheroid(
            a=_get(cp, "initial", "a_axis", float, required=True),
            b=_get(cp, "initial", "b_axis", float, required=True),
        )
    if kind == "perturbed":
        return flow.Perturbed(
            R=_get(cp, "initial", "radius", float, required=True),
            amplitude=_get(cp, "initial", "amplitude", float, required=True),
        )
    raise ConfigError(f"unknown initial kind {kind!r}")


def parse_config(path) -> RunSetup:
    """Read an INI run configuration; raise ConfigError on any problem."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for section in ("flow", "F", "G", "grid", "initial"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    grid = _wrap_value_errors(lambda: _parse_grid(cp))
    f_spec = _parse_f_spec(cp)
    g_spec = _wrap_value_errors(
        lambda: speed.SpeedSpec(
            c=_get(cp, "G", "c", float, default=1.0),
            a=_get(cp, "G", "a", float, required=True),
            b=_get(cp, "G", "b", float, required=True),
            psi=_parse_psi_terms(_get(cp, "G", "psi", str, default="")),
        )
    )

    psi_mode = _get(cp, "flow", "psi_mode", str, default=flow.PSI_IDENTITY).strip().lower()
    cfg = _wrap_value_errors(
        lambda: flow.FlowConfig(
            grid=grid,
            F=f_spec,
            G=g_spec,
            beta=_get(cp, "flow", "beta", float, required=True),
            psi_mode=psi_mode,
            dt_safety=_get(cp, "flow", "dt_safety", float, default=0.2),
            t_max=_get(cp, "flow", "t_max", float, default=50.0),
            tol_residual=_get(cp, "flow", "tol_residual", float, default=1e-6),
            cadence=_get(cp, "flow", "cadence", int, default=50),
        )
    )
    initial = _wrap_value_errors(lambda: _parse_initial(cp))
    obj_every = _get(cp, "output", "obj_every", int, default=0) if cp.has_section("output") else 0

    raw = {s: dict(cp.items(s)) for s in cp.sections()}
    return RunSetup(
        config=cfg, initial=initial, obj_every=obj_every, config_hash=_hash_raw(raw), raw=raw
    )


def _hash_raw(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _wrap_value_errors(builder):
    try:
        return builder()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    setup = parse_config(args.config)
    overrides = {"t_max": args.t_max, "tol_residual": args.tol_residual}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    # FlowConfig validates the overrides like the file's own values
    cfg = setup.config = _wrap_value_errors(lambda: replace(setup.config, **overrides))
    # overrides enter the hashed [flow] entries too, so the hash names the
    # problem that actually ran
    setup.raw["flow"].update((key, repr(value)) for key, value in overrides.items())
    setup.config_hash = _hash_raw(setup.raw)

    if args.strict:
        radii = speed.barrier_radii(cfg.G, cfg.F, cfg.grid.n, cfg.beta)
        if not radii.ok:
            raise GateError(f"barrier validation failed: {radii.reason}")
        report = speed.monotonicity_report(cfg.G, cfg.beta)
        if not report.holds_weak("radial_scaling"):
            raise GateError(
                "monotonicity validation failed: a + b + beta = "
                f"{-report.margins['radial_scaling']:.6g} > 0"
            )

    try:
        gamma0 = flow.initial_gamma(setup.initial, cfg.grid)
    except ValueError as exc:
        raise GateError(f"initial data rejected: {exc}") from exc

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {out}: {exc}") from exc
    files = ["history.csv", "summary.json", "final_field.csv"]

    record_count = 0

    def on_record(state, rec, geom):
        nonlocal record_count
        if (
            setup.obj_every > 0
            and cfg.grid.mode == "full_s2"
            and record_count % setup.obj_every == 0
        ):
            name = f"mesh_{state.step:08d}.obj"
            geometry.export_obj(out / name, geom)
            files.append(name)
        record_count += 1

    result = flow.run(cfg, gamma0, on_record=on_record)

    diagnostics.write_history_csv(out / "history.csv", result.history)
    spheregrid.write_field_csv(out / "final_field.csv", cfg.grid, result.state.gamma)
    final = result.history[-1] if result.history else None
    summary = {
        "status": result.status,
        "detail": result.detail,
        "steps": result.steps,
        "rejected_steps": result.rejected_steps,
        "t_final": result.state.t,
        # null when the run aborted before any finite residual existed
        "final_residual": result.residual if np.isfinite(result.residual) else None,
        "wall_seconds": result.wall_seconds,
        "records": len(result.history),
        "grid": {
            "mode": cfg.grid.mode,
            "n": cfg.grid.n,
            "m_theta": cfg.grid.m_theta,
            "m_phi": cfg.grid.m_phi,
        },
        "config_hash": setup.config_hash,
        "config_file": str(args.config),
        "final_record": asdict(final) if final else None,
        "files": sorted(files),
    }
    diagnostics.write_summary_json(out / "summary.json", summary)

    print(
        f"status={result.status} steps={result.steps} t={result.state.t:.6g} "
        f"residual={result.residual:.3e} wall={result.wall_seconds:.2f}s out={out}"
    )
    if result.detail:
        print(f"detail: {result.detail}")
    return _STATUS_EXIT[result.status]


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    setup = parse_config(args.config)
    cfg = setup.config
    radii = speed.barrier_radii(cfg.G, cfg.F, cfg.grid.n, cfg.beta)
    if radii.ok:
        tag = " (coincident: forcing pins a single sphere)" if radii.equality else ""
        print(f"barrier radii: r1 = {radii.r1:.12g}, r2 = {radii.r2:.12g}{tag}")
    else:
        print(f"no admissible barrier radii: {radii.reason}")

    report = speed.monotonicity_report(cfg.G, cfg.beta)
    for name, margin in report.margins.items():
        state = "holds" if margin > 0 else ("boundary" if margin == 0 else "fails")
        print(f"condition {name}: margin = {margin:.6g} ({state})")

    if cfg.G.isotropic:
        try:
            r = speed.radius_root(cfg.G, cfg.F, cfg.grid.n, cfg.beta)
        except ValueError as exc:
            print(f"no stationary sphere radius: {exc}")
        else:
            print(f"stationary sphere radius: R = {r:.12g}")

    return EXIT_OK if radii.ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# selfcheck


def _suite_sympoly(rng) -> list[str]:
    failures = []
    for trial in range(200):
        n = int(rng.integers(2, 7))
        kappa = rng.uniform(0.05, 3.0, n)
        for k in range(1, n + 1):
            brute = sum(
                float(np.prod(kappa[list(c)])) for c in combinations(range(n), k)
            )
            fast = float(symfunc.sigma(kappa, k))
            if abs(fast - brute) > 1e-12 * max(1.0, abs(brute)):
                failures.append(
                    f"sigma recurrence vs enumeration: n={n} k={k} "
                    f"fast={fast!r} brute={brute!r}"
                )
        k = int(rng.integers(1, n + 1))
        total = float(np.sum(symfunc.sigma_grad(kappa, k)))
        expect = (n - k + 1) * float(symfunc.sigma(kappa, k - 1))
        if abs(total - expect) > 1e-10 * max(1.0, abs(expect)):
            failures.append(f"grad row-sum identity: n={n} k={k}")
        # degree-one homogeneity of each speed family
        specs = [
            symfunc.SigmaKRoot(k=min(2, n)),
            symfunc.QuotientRoot(k=min(2, n), l=min(2, n) - 1),
            symfunc.PowerMean(p=-1.5),
        ]
        for spec in specs:
            f = float(symfunc.F_eval(spec, kappa))
            euler = float(np.sum(kappa * symfunc.F_grad(spec, kappa)))
            if abs(euler - f) > 1e-9 * max(1.0, abs(f)):
                failures.append(f"Euler identity for {spec}: {euler} vs {f}")
        if n >= 2:
            m = int(rng.integers(2, n + 1))
            margin = float(symfunc.newton_maclaurin_margin(kappa, m))
            if margin < -1e-12:
                failures.append(f"mean chain inverted: n={n} m={m} margin={margin}")
    return failures


def _suite_grid(rng) -> list[str]:
    failures = []
    for mode in ("axisym", "full_s2"):
        errs = []
        for m in (16, 32):
            if mode == "axisym":
                grid = spheregrid.axisym_grid(n=2, m_theta=m)
                f = np.cos(grid.theta)
                h_tt, _, h_pp = spheregrid.covariant_hessian(grid, f)
                exact = -np.cos(grid.theta)
                errs.append(
                    max(
                        float(np.max(np.abs(h_tt - exact))),
                        float(
                            np.max(
                                np.abs(h_pp - exact * grid.sin_theta**2)
                            )
                        ),
                    )
                )
            else:
                grid = spheregrid.full_s2_grid(m_theta=m, m_phi=2 * m)
                # f = sinθ cosφ is a linear harmonic, so ∇²f = -f g exactly
                f = np.sin(grid.theta[:, None]) * np.cos(grid.phi[None, :])
                h_tt, h_tp, h_pp = spheregrid.covariant_hessian(grid, f)
                errs.append(
                    max(
                        float(np.max(np.abs(h_tt + f))),
                        float(np.max(np.abs(h_pp + f * grid.sin_theta**2))),
                        float(np.max(np.abs(h_tp))),
                    )
                )
        if errs[0] < 1e-13 and errs[1] < 1e-13:
            pass  # exactly resolved mode
        elif not errs[1] < errs[0] / 3.0:
            failures.append(
                f"{mode} Hessian not second order: errors {errs[0]:.3e} -> {errs[1]:.3e}"
            )
    # round trip
    grid = spheregrid.full_s2_grid(m_theta=8, m_phi=8)
    values = rng.normal(size=grid.shape)
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "f.csv")
        spheregrid.write_field_csv(p, grid, values)
        grid2, values2 = spheregrid.read_field_csv(p)
        if grid != grid2 or not np.array_equal(values, values2):
            failures.append("field CSV round trip is not exact")
    return failures


def _suite_geometry(rng) -> list[str]:
    failures = []
    for mode in ("axisym", "full_s2"):
        grid = (
            spheregrid.axisym_grid(n=3, m_theta=24)
            if mode == "axisym"
            else spheregrid.full_s2_grid(m_theta=24, m_phi=48)
        )
        R = float(rng.uniform(0.5, 2.0))
        state = geometry.assemble(grid, np.full(grid.shape, np.log(R)))
        if float(np.max(np.abs(state.kappa - 1.0 / R))) > 1e-12:
            failures.append(f"{mode}: sphere curvatures are not exactly 1/R")
        if float(np.max(np.abs(state.u - R))) > 1e-12:
            failures.append(f"{mode}: sphere support is not exactly R")
        amp = float(rng.uniform(0.05, 0.15))
        bumpy = (
            amp * np.cos(grid.theta)
            if mode == "axisym"
            else amp * np.sin(grid.theta[:, None]) * np.cos(grid.phi[None, :])
        )
        state = geometry.assemble(grid, bumpy)
        if np.any(state.u > state.rho + 1e-14):
            failures.append(f"{mode}: support value exceeded the radius somewhere")
        if mode == "full_s2":
            # assemble's closed-form 2x2 curvatures against the pencil (h, g) it built
            g, h = geometry.fundamental_forms(state)
            direct = np.linalg.eigvals(np.linalg.solve(g, h)).real
            if float(np.max(np.abs(np.sort(direct)[..., ::-1] - state.kappa))) > 1e-8:
                failures.append(f"{mode}: curvatures disagree with the pencil eigensolve")
    return failures


_SUITES = {
    "sympoly": _suite_sympoly,
    "grid": _suite_grid,
    "geometry": _suite_geometry,
}


def cmd_selfcheck(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    any_failed = False
    for name in names:
        rng = np.random.default_rng(args.seed)
        failures = _SUITES[name](rng)
        for failure in failures:
            any_failed = True
            print(json.dumps({"suite": name, "failure": failure}))
        if not failures:
            print(json.dumps({"suite": name, "ok": True}))
    return EXIT_CHECK_FAILED if any_failed else EXIT_OK


# ---------------------------------------------------------------------------
# curvature table


def cmd_curvature(args) -> int:
    try:
        grid, gamma = spheregrid.read_field_csv(args.field)
    except (OSError, ValueError) as exc:
        raise GateError(f"cannot read field file: {exc}") from exc
    setup = parse_config(args.config)
    cfg = setup.config
    if grid != cfg.grid:
        raise GateError(
            f"field grid ({grid.mode} {grid.m_theta}x{grid.m_phi or 1}, n={grid.n}) "
            f"does not match configured grid ({cfg.grid.mode} "
            f"{cfg.grid.m_theta}x{cfg.grid.m_phi or 1}, n={cfg.grid.n})"
        )
    with np.errstate(all="ignore"):  # the gate below reports a degenerate field
        geom = geometry.assemble(grid, gamma)
    failure = geometry.star_shape_failure(geom)
    if failure is not None:
        raise GateError(f"stored field is {failure}")

    mask = symfunc.in_cone(geom.kappa, cfg.guard)
    f_val = np.full(grid.shape, np.nan)
    q = np.full(grid.shape, np.nan)
    if np.any(mask):
        # nodes outside the cone may hit fractional powers of negatives;
        # they are masked to nan afterwards, so silence the warnings
        with np.errstate(invalid="ignore", divide="ignore"):
            f_all = symfunc.F_eval(cfg.F, geom.kappa, checked=False)
            g_all = speed.G_eval(cfg.G, geom.xi, geom.u, geom.rho)
            q_all = g_all * f_all ** (-cfg.beta)
        f_val = np.where(mask, f_all, np.nan)
        q = np.where(mask, q_all, np.nan)

    out = Path(args.out) if args.out else Path("curvature.csv")
    columns = {"rho": geom.rho, "u": geom.u}
    columns.update((f"kappa_{i + 1}", geom.kappa[..., i]) for i in range(grid.n))
    columns.update(f=f_val, q_minus_1=q - 1.0, cone_ok=mask.astype(np.int8))
    try:
        spheregrid.write_node_table(out, grid, "starflow-curvature-v1", columns)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc}") from exc
    print(f"wrote {out} ({grid.node_count} nodes)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="starflow", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"starflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve a profile to stationarity")
    p_run.add_argument("config", help="INI run configuration")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--t-max", type=float, default=None, help="override [flow] t_max")
    p_run.add_argument(
        "--tol-residual", type=float, default=None, help="override [flow] tol_residual"
    )
    p_run.add_argument(
        "--strict",
        action="store_true",
        help="refuse to run when barrier or monotonicity validation fails",
    )
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="report admissibility of a configuration")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)

    p_self = sub.add_parser("selfcheck", help="re-run randomized property suites")
    p_self.add_argument(
        "--suite",
        choices=sorted(_SUITES) + ["all"],
        default="all",
    )
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(fn=cmd_selfcheck)

    p_curv = sub.add_parser(
        "curvature", help="write a per-node curvature table for a stored field"
    )
    p_curv.add_argument("field", help="field CSV written by this package")
    p_curv.add_argument("config", help="INI configuration supplying F, G, and beta")
    p_curv.add_argument("--out", default=None, help="output CSV (default: curvature.csv)")
    p_curv.set_defaults(fn=cmd_curvature)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GateError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
