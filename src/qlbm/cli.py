"""Command-line interface.

Subcommands: advdiff, cavity, fidelity, resources, verify. Every option can
also come from a manifest file of ``key = value`` lines (``#`` comments);
explicit flags override manifest entries, which override defaults. Outputs
are deterministic for fixed options (sampling draws from ``--seed``) —
anything wall-clock goes to stderr. Exit codes: 0 success,
2 configuration/manifest problem, 3 simulation or verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .errors import ConfigurationError, QLBMError
from .lattice import (
    CavitySpec,
    require_power_of_two,
    save_field_csv,
    save_field_qlbf,
    scheme_by_name,
    solve_cavity_classical,
    step_advection_diffusion,
)
from .resources import scaling_sweep, write_comparison_csv, write_comparison_json
from .solver import (
    fidelity_sweep,
    relative_error,
    run_advection_diffusion,
    run_cavity,
)
from .statevector import MAX_SHOTS, require_shots

__all__ = ["main"]


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in str(text).split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in str(text).split(","))


# per-command option table: name -> (parser, default)
_SPECS = {
    "advdiff": {
        "scheme": (str, "d1q2"),
        "extent": (int, 32),
        "steps": (int, 50),
        "velocity": (_parse_floats, (0.2,)),
        "background": (float, 0.1),
        "impulse_site": (_parse_ints, (10,)),
        "impulse_value": (float, 0.2),
        "backend": (str, "statevector"),
        "shots": (int, 1 << 14),
        "seed": (int, 0),
        "out": (str, "."),
    },
    "cavity": {
        "extent": (int, 8),
        "steps": (int, 80),
        "lid_velocity": (float, 1.0),
        "variant": (str, "frugal"),
        "out": (str, "."),
    },
    "fidelity": {
        "shots_min_exp": (int, 10),
        "shots_max_exp": (int, 18),
        "trials": (int, 5),
        "seed": (int, 0),
        "out": (str, "."),
    },
    "resources": {
        "extents": (_parse_ints, (2, 4, 8, 16, 32, 64)),
        "out": (str, "."),
    },
    "verify": {},
}


def _load_manifest(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigurationError(f"manifest {path!r} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"manifest {path!r} is not readable UTF-8 text: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    spec = _SPECS[command]
    manifest = _load_manifest(args.manifest) if args.manifest else {}
    unknown = set(manifest) - set(spec)
    if unknown:
        raise ConfigurationError(f"manifest keys not understood: {sorted(unknown)}")
    cfg = {}
    for key, (parse, default) in spec.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            raw, source = cli_value, "--" + key.replace("_", "-")
        elif key in manifest:
            raw, source = manifest[key], f"manifest key {key}"
        else:
            cfg[key] = default
            continue
        try:
            cfg[key] = parse(raw) if isinstance(raw, str) else raw
        except ValueError as exc:
            raise ConfigurationError(f"{source}: {exc}") from None
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlbm",
        description="Lattice Boltzmann transport on quantum circuits, with a classical reference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", help="key = value option file")
        return p

    p = add("advdiff", "advected scalar transport, quantum vs classical")
    p.add_argument("--scheme", choices=["d1q2", "d1q3", "d2q5"])
    p.add_argument("--extent", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--velocity", help="comma-separated components, e.g. 0.2 or 0.2,0.2")
    p.add_argument("--background", type=float)
    p.add_argument("--impulse-site", dest="impulse_site", help="x or x,y")
    p.add_argument("--impulse-value", dest="impulse_value", type=float)
    p.add_argument("--backend", choices=["statevector", "sampling"])
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("cavity", "lid-driven cavity flow")
    p.add_argument("--extent", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--lid-velocity", dest="lid_velocity", type=float)
    p.add_argument("--variant", choices=["frugal", "single", "classical"])
    p.add_argument("--out")

    p = add("fidelity", "sampling fidelity sweep against the exact state")
    p.add_argument("--shots-min-exp", dest="shots_min_exp", type=int)
    p.add_argument("--shots-max-exp", dest="shots_max_exp", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("resources", "gate/depth comparison of the circuit variants")
    p.add_argument("--extents", help="comma-separated lattice extents")
    p.add_argument("--out")

    add("verify", "quick end-to-end checks against the classical reference")

    return parser


def _ensure_out(cfg: dict) -> str:
    """The output directory, made if need be; each command calls it before its run, so a bad one fails at once."""
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output directory {out!r} cannot be made: {exc}") from None
    return out


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finite_or_null(value: float) -> float | None:
    """A run-level total as strict JSON holds it: null (None) when it is not finite."""
    return value if math.isfinite(value) else None


def _records_payload(records) -> list[dict]:
    return [
        {
            "step": r.step,
            "job": r.job,
            "zero_input": r.zero_input,
            "norm_factor": r.norm_factor,
            "select_probs": {str(q): p for q, p in r.select_probs.items()},
            "success_prob": r.success_prob,
        }
        for r in records
    ]


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _initial_field(scheme, cfg) -> np.ndarray:
    extent = cfg["extent"]
    require_power_of_two(extent, name="--extent")
    for key in ("background", "impulse_value"):
        if not math.isfinite(cfg[key]):
            raise ConfigurationError(f"--{key.replace('_', '-')} must be finite, got {cfg[key]}")
    field = np.full((extent,) * scheme.dimension, cfg["background"])
    site = cfg["impulse_site"]
    if len(site) != scheme.dimension:
        raise ConfigurationError(
            f"impulse site {site} does not match dimension {scheme.dimension}"
        )
    if any(not 0 <= c < extent for c in site):
        raise ConfigurationError(f"impulse site {site} lies outside the {extent} lattice")
    field[tuple(reversed(site))] = cfg["impulse_value"]  # (x, y) -> [y, x]
    return field


def _cmd_advdiff(cfg: dict) -> int:
    scheme = scheme_by_name(cfg["scheme"])
    if len(cfg["velocity"]) != scheme.dimension:
        raise ConfigurationError(
            f"velocity {cfg['velocity']} does not match dimension {scheme.dimension}"
        )
    require_shots(cfg["shots"], "--shots")
    field0 = _initial_field(scheme, cfg)
    out = _ensure_out(cfg)
    result = run_advection_diffusion(
        scheme, field0, cfg["velocity"], cfg["steps"],
        backend=cfg["backend"], shots=cfg["shots"], seed=cfg["seed"],
    )
    reference = field0.copy()
    for _ in range(cfg["steps"]):
        reference = step_advection_diffusion(scheme, reference, cfg["velocity"])
    max_err = float(relative_error(result.final, reference).max())
    save_field_csv(os.path.join(out, "field_final.csv"), result.final)
    save_field_qlbf(os.path.join(out, "field_final.qlbf"), result.final)
    _write_json(os.path.join(out, "advdiff_summary.json"), {
        "scheme": scheme.name,
        "extent": cfg["extent"],
        "steps": cfg["steps"],
        "velocity": list(cfg["velocity"]),
        "backend": cfg["backend"],
        "final_mass": float(result.final.sum()),
        "max_relative_error_vs_classical": max_err,
        "success_prob": _finite_or_null(result.success_prob),
        "shot_multiplier": _finite_or_null(result.shot_multiplier),
        "records": _records_payload(result.records),
    })
    print(f"advdiff {scheme.name} {cfg['extent']} sites, {cfg['steps']} steps: "
          f"max relative error vs classical = {max_err:.3e}")
    print(f"wrote {out}/field_final.csv, field_final.qlbf, advdiff_summary.json")
    return 0


def _cmd_cavity(cfg: dict) -> int:
    spec = CavitySpec(n=cfg["extent"], lid_velocity=cfg["lid_velocity"], steps=cfg["steps"])
    out = _ensure_out(cfg)
    if cfg["variant"] == "classical":
        hist = solve_cavity_classical(spec)
        psi, omega = hist.psi[-1], hist.omega[-1]
        records: list = []
        success_prob = shot_multiplier = None  # no circuit runs
    else:
        run = run_cavity(spec, variant=cfg["variant"])
        psi, omega = run.psi[-1], run.omega[-1]
        records = run.records
        success_prob, shot_multiplier = _finite_or_null(run.success_prob), _finite_or_null(run.shot_multiplier)
    save_field_csv(os.path.join(out, "psi_final.csv"), psi)
    save_field_qlbf(os.path.join(out, "psi_final.qlbf"), psi)
    save_field_csv(os.path.join(out, "omega_final.csv"), omega)
    save_field_qlbf(os.path.join(out, "omega_final.qlbf"), omega)
    _write_json(os.path.join(out, "cavity_summary.json"), {
        "variant": cfg["variant"],
        "extent": cfg["extent"],
        "steps": cfg["steps"],
        "lid_velocity": cfg["lid_velocity"],
        "reynolds": spec.reynolds,
        "psi_min": float(psi.min()),
        "psi_max": float(psi.max()),
        "success_prob": success_prob,
        "shot_multiplier": shot_multiplier,
        "records": _records_payload(records),
    })
    print(f"cavity {cfg['extent']}x{cfg['extent']} ({cfg['variant']}), {cfg['steps']} steps: "
          f"psi in [{psi.min():.6e}, {psi.max():.6e}]")
    print(f"wrote {out}/psi_final.csv, psi_final.qlbf, omega_final.csv, omega_final.qlbf, cavity_summary.json")
    return 0


def _cmd_fidelity(cfg: dict) -> int:
    if cfg["shots_min_exp"] < 0:
        raise ConfigurationError(f"shots-min-exp must be >= 0, got {cfg['shots_min_exp']}")
    if cfg["shots_min_exp"] >= cfg["shots_max_exp"]:
        raise ConfigurationError("shots-min-exp must be less than shots-max-exp")
    top = MAX_SHOTS.bit_length() - 1
    if cfg["shots_max_exp"] > top:
        raise ConfigurationError(f"shots-max-exp must be <= {top}, got {cfg['shots_max_exp']}")
    shots = [1 << e for e in range(cfg["shots_min_exp"], cfg["shots_max_exp"] + 1)]
    out = _ensure_out(cfg)
    result = fidelity_sweep(shots, cfg["trials"], cfg["seed"])
    with open(os.path.join(out, "fidelity.csv"), "w", newline="") as fh:
        fh.write("shots,trial,fidelity\n")
        for s, t, f in result.rows:
            fh.write(f"{s},{t},{f!r}\n")
    _write_json(os.path.join(out, "fidelity_summary.json"), {
        "shots": result.shots,
        "mean_infidelity": result.mean_infidelity,
        "slope": result.slope,
        "trials": cfg["trials"],
        "seed": cfg["seed"],
    })
    print(f"fidelity sweep: mean infidelity slope = {result.slope:.4f} "
          f"(1/shots scaling has slope 1)")
    print(f"wrote {out}/fidelity.csv, fidelity_summary.json")
    return 0


def _cmd_resources(cfg: dict) -> int:
    out = _ensure_out(cfg)
    comparisons = scaling_sweep(cfg["extents"])
    write_comparison_csv(os.path.join(out, "resources.csv"), comparisons)
    write_comparison_json(os.path.join(out, "resources.json"), comparisons)
    for comp in comparisons:
        print(
            f"extent {comp.extent:3d}: single {comp.single_cnot} CNOTs / depth {comp.single_depth}; "
            f"pair {comp.frugal_nb_cnot} CNOTs / depth {comp.concurrent_depth_nb}; "
            f"reduction {100 * comp.cnot_reduction:.1f}% CNOT, {100 * comp.depth_reduction:.1f}% depth"
        )
    print(f"wrote {out}/resources.csv, resources.json")
    return 0


def _cmd_verify(cfg: dict) -> int:
    checks: list[tuple[str, bool, str]] = []

    def run_advdiff_check(name, scheme_name, extent, steps, velocity, site):
        scheme = scheme_by_name(scheme_name)
        field = np.full((extent,) * scheme.dimension, 0.1)
        field[tuple(reversed(site))] = 0.2
        result = run_advection_diffusion(scheme, field, velocity, steps)
        reference = field.copy()
        for _ in range(steps):
            reference = step_advection_diffusion(scheme, reference, velocity)
        err = float(relative_error(result.final, reference).max())
        checks.append((name, err <= 1e-8, f"max relative error {err:.3e} (tol 1e-08)"))
        return result

    result = run_advdiff_check("advdiff-d1q2", "d1q2", 16, 10, (0.2,), (10,))
    mass_drift = float(np.abs(result.fields.sum(axis=tuple(range(1, result.fields.ndim)))
                              - result.fields[0].sum()).max())
    checks.append(("mass-conservation", mass_drift <= 1e-8, f"max drift {mass_drift:.3e}"))
    run_advdiff_check("advdiff-d1q3", "d1q3", 16, 10, (0.2,), (10,))
    run_advdiff_check("advdiff-d2q5", "d2q5", 8, 5, (0.2, 0.2), (4, 4))

    spec = CavitySpec(n=8, lid_velocity=1.0, steps=10)
    classical = solve_cavity_classical(spec)
    frugal = run_cavity(spec, variant="frugal")
    single = run_cavity(spec, variant="single")
    err_c = max(
        float(relative_error(frugal.psi[-1], classical.psi[-1]).max()),
        float(relative_error(frugal.omega[-1], classical.omega[-1]).max()),
    )
    checks.append(("cavity-vs-classical", err_c <= 1e-6, f"max relative error {err_c:.3e} (tol 1e-06)"))
    err_s = max(
        float(relative_error(single.psi[-1], frugal.psi[-1]).max()),
        float(relative_error(single.omega[-1], frugal.omega[-1]).max()),
    )
    checks.append(("single-vs-pair", err_s <= 1e-6, f"max relative error {err_s:.3e} (tol 1e-06)"))

    failures = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 3
    print(f"all {len(checks)} checks passed")
    return 0


_HANDLERS = {
    "advdiff": _cmd_advdiff,
    "cavity": _cmd_cavity,
    "fidelity": _cmd_fidelity,
    "resources": _cmd_resources,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _resolve_config(args.command, args)
        code = _HANDLERS[args.command](cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QLBMError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
