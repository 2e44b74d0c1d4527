"""Run the full pole-removal / conjugation pipeline on soliton data.

Solves the same problem twice, once directly on the augmented contour
and once after the symmetrizing conjugation, maps both solutions back,
and prints their disagreement at a ring of probe points.  With zero
reflection the closed-form soliton solution is printed alongside.

    python3 scripts/soliton_pipeline.py --pole 2 0 1 0 --pole 3 1 1 0 \\
        --r-slope 0.2 --nodes 128
"""

import argparse
import sys

import numpy as np

import rhcircles as rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pole",
        nargs=4,
        type=float,
        action="append",
        metavar=("RE", "IM", "C_RE", "C_IM"),
        help="pole location and norming constant, repeatable",
    )
    parser.add_argument("--n", type=int, default=0, help="lattice site")
    parser.add_argument(
        "--r-slope",
        type=float,
        default=0.0,
        help="reflection coefficient r(z) = slope * z",
    )
    parser.add_argument("--nodes", type=int, default=64)
    parser.add_argument("--probes", type=int, default=12)
    args = parser.parse_args(argv)

    poles = tuple(
        (complex(p[0], p[1]), complex(p[2], p[3])) for p in args.pole or []
    )
    slope = args.r_slope
    r = (lambda z: slope * z) if slope else None
    spec = rc.IdnlsSpec(r=r, n=args.n, poles=poles, sign="focusing")

    ap = rc.remove_poles(spec, pole_nodes=args.nodes, unit_nodes=args.nodes)
    conj = rc.conjugate(ap, node_count=args.nodes)
    plain = rc.solve_augmented(ap)
    mapped = rc.solve_augmented(conj)

    # the conjugated operator has an alias kernel at the Nyquist seams of
    # its outer and inner circles; the solve leaves those modes out, so its
    # sigma_min is that of the operator less them, and the path is
    # printed beside it
    for label, sol in (("plain:     ", plain), ("conjugated:", mapped)):
        print(f"{label} residual {sol.residual_jump:.3e}  "
              f"sigma_min {sol.smallest_singular_value:.3e}  "
              f"path {sol.solution.solver_path}")
    if poles:
        worst = rc.residue_condition_residuals(plain.evaluate, ap)
        print(f"residue conditions (plain):      {worst:.3e}")
        worst = rc.residue_condition_residuals(mapped.evaluate, ap)
        print(f"residue conditions (conjugated): {worst:.3e}")
    sym = rc.check_inversion_hypotheses(conj.jump)
    print(f"conjugated jump: symmetry deviation {sym.max_symmetry_deviation:.3e}, "
          f"min Re eig on circle {sym.min_re_eig_on_circle:.3f}")

    oracle = None
    if poles and r is None:
        oracle = rc.soliton_oracle(spec)

    probes = rc.off_contour_points(conj.system, args.probes, rel_margin=0.45)
    print(f"\n{'probe z':>24s}  {'|plain - conj|':>14s}"
          + (f"  {'|plain - oracle|':>16s}" if oracle else ""))
    for z in probes:
        a = plain.evaluate(z)
        b = mapped.evaluate(z)
        line = f"{z:>24.4f}  {np.max(np.abs(a - b)):>14.3e}"
        if oracle is not None:
            line += f"  {np.max(np.abs(a - oracle(z))):>16.3e}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
