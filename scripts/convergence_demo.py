"""Residual decay under node doubling for three contrasting jumps.

The rational jump on a radius-6 circle and the defocusing unit-circle
jump are resolved almost immediately, so their residuals sit at the
rounding floor for every node count; the third jump has analytic
continuation singularities close to the contour and shows the genuine
geometric decay of the trapezoid discretization.

    python3 scripts/convergence_demo.py --nodes 16 32 64 128 256
"""

import argparse
import csv
import sys

import rhcircles as rc


def rational_radius_six(nodes: int) -> float:
    system = rc.build_contour([rc.Circle(0j, 6.0, rc.CCW, nodes)])
    jump = rc.JumpData.from_evaluator(system, lambda z: (z - 0.4) / (z - 2.5))
    return rc.solve(rc.RHProblem.from_jump(jump)).residual_jump


def defocusing_unit(nodes: int) -> float:
    spec = rc.IdnlsSpec(r=lambda z: 0.3 * z, n=0, sign="defocusing")
    jump = rc.build_defocusing_jump(spec, node_count=nodes)
    return rc.solve(rc.RHProblem.from_jump(jump)).residual_jump


def poles_near_circle(nodes: int) -> float:
    system = rc.build_contour([rc.Circle(0j, 1.0, rc.CCW, nodes)])
    jump = rc.JumpData.from_evaluator(
        system, lambda z: (z - 0.8) * (z - 1.25) / ((z - 0.7) * (z - 1.4))
    )
    return rc.solve(rc.RHProblem.from_jump(jump)).residual_jump


PROBLEMS = {
    "rational_radius_six": rational_radius_six,
    "defocusing_unit": defocusing_unit,
    "poles_near_circle": poles_near_circle,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--nodes",
        type=int,
        nargs="+",
        default=[16, 32, 64, 128, 256],
        help="node counts to sweep",
    )
    parser.add_argument("--out", help="optional CSV output path")
    args = parser.parse_args(argv)

    rows = []
    header = ["nodes"] + list(PROBLEMS)
    print("  ".join(f"{name:>22s}" for name in header))
    for nodes in args.nodes:
        row = [nodes] + [PROBLEMS[name](nodes) for name in PROBLEMS]
        rows.append(row)
        print(
            f"{nodes:>22d}  "
            + "  ".join(f"{value:>22.3e}" for value in row[1:])
        )

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
