"""Command-line front end: simulate, theory curves, identification, diffs.

Subcommands
-----------
simulate     settle the forced oscillator and export one orbit period
htf-theory   harmonic transfer functions of the switched linearization
identify     chirp experiments -> estimated HTFs -> (k, c) fit
compare      diff two HTF CSV files against magnitude/phase tolerances

Every command but `compare` reads an optional JSON configuration
(``--config``) and echoes the settings it ran with to
``resolved_config.json``; `htfid.commands` holds the defaults and the
checks.

Importing this module loads the standard library and `htfid.errors`
only, not numpy: ``--help`` and a usage error cost no numeric import.
`main` imports `htfid.commands`, and with it numpy and the whole
library, once the arguments are parsed, and runs the command there.

numpy's OpenBLAS runs on one thread in a CLI process: importing this
module sets ``OPENBLAS_NUM_THREADS=1`` unless numpy is already loaded or
one of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` is set.  The solves are too small to gain from a
worker pool, which costs CPU time to start and spin.  The library
modules leave BLAS alone.

Exit codes: 0 success, 2 configuration or usage error (an unreadable
input file, an output directory that cannot be created and a setting
the library refuses included), 3 numerical failure (no settling,
singular solve, unusable data), a malformed HTF file or an allocation
failure (``error: out of memory: ...``).
"""

from __future__ import annotations

import argparse
import os
import sys

#: The variables by which OpenBLAS takes its thread count.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# OpenBLAS reads its thread count once, as numpy loads it, so this takes
# effect only before numpy is imported; a count the user chose is kept.
if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import ConfigError, HtfidError

#: `compare`'s default tolerances, which `identify` also counts its
#: theory-versus-estimate bins against.
TOL_MAG_REL = 0.05
TOL_PHASE_DEG = 5.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htfid",
        description="Harmonic transfer function identification for the "
        "one-way-damper oscillator.",
    )
    # `identify` counts its bins against the tolerances too
    parser.set_defaults(tol_mag=TOL_MAG_REL, tol_phase=TOL_PHASE_DEG)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument(
            "--out", metavar="DIR", default=".", help="output directory (default: .)"
        )
        p.add_argument(
            "--alpha", type=float, help="override estimate.alpha (smoothing weight)"
        )
        p.add_argument(
            "--nh",
            type=int,
            help="override harmonic truncation (theory.n_h and estimate.n_harmonics)",
        )
        p.add_argument("--dt", type=float, help="override sim.dt (integrator step)")

    p_sim = sub.add_parser(
        "simulate", help="settle the forced oscillator and export one orbit period"
    )
    add_common(p_sim)
    p_th = sub.add_parser(
        "htf-theory",
        help="harmonic transfer functions of the switched linearization",
    )
    add_common(p_th)
    p_id = sub.add_parser(
        "identify", help="run chirp experiments, estimate HTFs and fit (k, c)"
    )
    add_common(p_id)
    p_cmp = sub.add_parser("compare", help="diff two HTF CSV files")
    p_cmp.add_argument("reference", help="reference HTF CSV")
    p_cmp.add_argument("candidate", help="candidate HTF CSV to check")
    p_cmp.add_argument("--out", metavar="DIR", default=None, help="write compare.json here")
    p_cmp.add_argument(
        "--tol-mag",
        type=float,
        default=TOL_MAG_REL,
        help=f"relative magnitude tolerance (default {TOL_MAG_REL})",
    )
    p_cmp.add_argument(
        "--tol-phase",
        type=float,
        default=TOL_PHASE_DEG,
        help=f"phase tolerance in degrees (default {TOL_PHASE_DEG})",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import commands  # numpy and the library load here, once the arguments are read

    try:
        return commands.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HtfidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
