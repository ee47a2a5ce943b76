"""Command-line front end.

Three subcommands:

    starflow run CONFIG        evolve a profile to stationarity, write outputs
    starflow validate CONFIG   report barrier radii and exponent conditions
    starflow curvature F CONFIG  per-node curvature table for a stored field

Run configurations are INI files with sections [flow], [F], [G], [grid],
[initial], and optionally [output]; a section or key that nothing reads is a
configuration error.  The bundled configs/ directory holds annotated examples.

Exit codes are part of the interface and nothing else is ever returned:

    0   success (run: converged)
    1   validate: no admissible barrier radii
    2   run aborted: diverged, cone exit (also at step 0), or star shape lost
    3   run hit the time cap
    64  usage or configuration parse error
    65  gate failure: initial data or a stored field not star-shaped, or a
        stored field not on the configured grid
    70  internal error (a bug; please report the traceback)
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import re
import sys
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, flow, geometry, speed, spheregrid, symfunc

__all__ = [
    "ConfigError", "GateError", "RunSetup", "parse_config", "build_parser", "main",
    "cmd_run", "cmd_validate", "cmd_curvature",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1  # validate: no admissible barrier radii
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
    """[section] key, converted and consumed: parse_config refuses what is left."""
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing key {key!r} in section [{section}]")
        return default
    raw = cp[section].pop(key)
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


# the optional [flow] keys; FlowConfig holds their defaults
_FLOW_KEYS = {"psi_mode": str.lower, "t_max": float, "tol_residual": float, "cadence": int}


def parse_config(path) -> RunSetup:
    """Read an INI run configuration; raise ConfigError on any problem."""
    # values are taken literally: no % interpolation.  No section is named "",
    # so [DEFAULT] is an unknown section, not keys lent to every section.
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
    )
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for section in cp.sections():
        if section not in ("flow", "F", "G", "grid", "initial", "output"):
            raise ConfigError(f"unknown section [{section}]")
    for section in ("flow", "F", "G", "grid", "initial"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    raw = {s: dict(cp.items(s)) for s in cp.sections()}

    try:
        grid = _parse_grid(cp)
        f_spec = _parse_f_spec(cp)
        g_spec = speed.SpeedSpec(
            c=_get(cp, "G", "c", float, default=1.0),
            a=_get(cp, "G", "a", float, required=True),
            b=_get(cp, "G", "b", float, required=True),
            psi=_parse_psi_terms(_get(cp, "G", "psi", str, default="")),
        )
        given = {key: _get(cp, "flow", key, conv) for key, conv in _FLOW_KEYS.items()}
        cfg = flow.FlowConfig(
            grid=grid,
            F=f_spec,
            G=g_spec,
            beta=_get(cp, "flow", "beta", float, required=True),
            **{key: value for key, value in given.items() if value is not None},
        )
        initial = _parse_initial(cp)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    obj_every = _get(cp, "output", "obj_every", int, default=0)

    for section in cp.sections():
        for key in cp[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return RunSetup(
        config=cfg, initial=initial, obj_every=obj_every, config_hash=_hash_raw(raw), raw=raw
    )


def _hash_raw(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    setup = parse_config(args.config)
    cfg = setup.config
    if args.t_max is not None:
        # FlowConfig validates the override like the file's own value
        try:
            cfg = replace(cfg, t_max=args.t_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the override enters the hashed [flow] entries too, so the hash names
        # the problem that actually ran
        setup.raw["flow"]["t_max"] = repr(args.t_max)
        setup.config_hash = _hash_raw(setup.raw)

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
    try:
        r1, r2 = speed.barrier_radii(cfg.G, cfg.F, cfg.grid.n, cfg.beta)
    except ValueError as exc:
        print(f"no admissible barrier radii: {exc}")
        code = EXIT_CHECK_FAILED
    else:
        tag = " (coincident: forcing pins a single sphere)" if abs(r1 - r2) < 1e-12 else ""
        print(f"barrier radii: r1 = {r1:.12g}, r2 = {r2:.12g}{tag}")
        code = EXIT_OK

    for name, margin in speed.monotonicity_report(cfg.G, cfg.beta).items():
        state = "holds" if margin > 0 else ("boundary" if margin == 0 else "fails")
        print(f"condition {name}: margin = {margin:.6g} ({state})")

    if cfg.G.isotropic:
        try:
            r = speed.sphere_radius(cfg.G, cfg.F, cfg.grid.n, cfg.beta)
        except ValueError as exc:
            print(f"no stationary sphere radius: {exc}")
        else:
            print(f"stationary sphere radius: R = {r:.12g}")

    return code


# ---------------------------------------------------------------------------
# curvature table


def cmd_curvature(args) -> int:
    cfg = parse_config(args.config).config
    grid = cfg.grid
    try:
        gamma = spheregrid.read_field_csv(args.field, grid)
    except (OSError, ValueError) as exc:
        raise GateError(f"cannot read field file: {exc}") from exc
    with np.errstate(all="ignore"):  # the gate below reports a degenerate field
        geom = geometry.assemble(grid, gamma)
    failure = geometry.star_shape_failure(geom)
    if failure is not None:
        raise GateError(f"stored field is {failure}")

    # the run's own pass; F_fused needs κ finite (the gate) and sorted
    # (assemble).  Nodes outside the cone may hit fractional powers of
    # negatives and are masked to nan below; an overflowing forcing reads inf.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mask, f_all, _ = symfunc.F_fused(cfg.F, geom.kappa)
        g_all = speed.G_from_table(cfg.G, cfg.G_table, geom.u, geom.rho)
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
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="report admissibility of a configuration")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)

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
