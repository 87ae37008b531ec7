"""Command-line entry points.

Exit codes: 0 success, 2 configuration or mesh error (also a check-cfl
violation), 3 field blow-up, 4 solver failure (a singular step matrix, a
non-finite right-hand side or an unconverged first step).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .dynamics import BlowUpError, cfl_max_timestep
from .harness import (ConfigError, SCENARIO_NAMES, build_mesh_for,
                      load_config, run, run_convergence_study, scenario)
from .mesh import MeshError
from .sparse_solve import SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_SOLVER = 4

_NO_FILES = "no files written (empty --out)"


def _parse_h(text: str) -> list:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            if "/" in tok:
                num, den = tok.split("/")
                out.append(float(num) / float(den))
            else:
                out.append(float(tok))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"invalid mesh size '{tok}'") from None
    return out


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.snapshot_every is not None:
        config = replace(config, snapshot_every=args.snapshot_every)
    out = config.out_dir if args.out is None else args.out
    result = run(config, out_dir=out)
    wrote = f"wrote {len(result.snapshots)} snapshots to {out}" if out else _NO_FILES
    print(f"completed {config.n_steps} steps; {wrote}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    hs = _parse_h(args.h)
    table = run_convergence_study(args.mode, hs, tau=args.tau,
                                  n_steps=args.steps, final_time=args.final_time)
    print(table)
    return EXIT_OK


def _cmd_scenario(args) -> int:
    config = scenario(args.name)
    if args.steps is not None:
        config = replace(config, n_steps=args.steps)
    config = replace(config, out_dir=args.out)
    result = run(config)
    print(f"scenario '{args.name}' finished at step {result.state.step}; "
          + (f"output in {args.out}" if args.out else _NO_FILES))
    return EXIT_OK


def _cmd_check_cfl(args) -> int:
    config = load_config(args.config)
    mesh = build_mesh_for(config)
    params = config.resolved_material()
    bound = cfl_max_timestep(params, mesh, config.cfl)
    h = min(mesh.h_x, mesh.h_y)
    wave = h / (2.0 * config.cfl.c_in * params.c_v)
    status = "OK" if config.tau <= bound else "VIOLATED"
    print(f"h = {h:.6e} m")
    print(f"cfl max timestep = {bound:.6e} s "
          f"(wave-speed term h/(2 C_in c) = {wave:.6e} s)")
    print(f"configured tau   = {config.tau:.6e} s  [{status}]")
    return EXIT_OK if config.tau <= bound else EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sppfetd",
        description="2-D FETD simulator for TEz Maxwell with graphene interfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a JSON-configured simulation")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.add_argument("--snapshot-every", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("convergence", help="manufactured-solution rate study")
    p.add_argument("--mode", choices=("fixed", "coupled"), required=True)
    p.add_argument("--h", required=True, help="comma list, e.g. 1/10,1/20,1/40")
    p.add_argument("--tau", type=float, default=1e-4)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--T", dest="final_time", type=float, default=0.01)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("scenario", help="run a published setup by name")
    p.add_argument("name", choices=SCENARIO_NAMES)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("check-cfl", help="report the stable time-step bound")
    p.add_argument("config")
    p.set_defaults(func=_cmd_check_cfl)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MeshError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
