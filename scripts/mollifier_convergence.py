"""Mean-value defect vs grid spacing, for a harmonic map and a control.

The harmonic map's mollified values should converge to its pointwise values
as the grid refines (the defect is pure discretization error); the defect of
the non-harmonic control |x|^2 converges to the kernel's second moment and
stays bounded away from zero.  Prints the defect table with observed orders
and writes it as CSV.  About a second at the default spacings on a 2-core x86 box.

usage: python3 scripts/mollifier_convergence.py [--delta 0.25] [--degree 4] [--out mollifier.csv]
"""

import argparse
import pathlib
from fractions import Fraction

from ballharmonics.harmonics import zonal_solid_harmonic
from ballharmonics.mollifier import MollifierSpec, mean_value_convergence
from ballharmonics.polynomials import MultiPoly
from ballharmonics.reporting import render_csv
from ballharmonics.suite import MEAN_VALUE_POINTS

SPACINGS = (1 / 16, 1 / 32, 1 / 64, 1 / 128)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--delta", type=float, default=0.25)
    ap.add_argument("--degree", type=int, default=4)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("mollifier.csv"))
    args = ap.parse_args()

    spec = MollifierSpec(dimension=2, delta=args.delta)
    harmonic = zonal_solid_harmonic(2, args.degree)
    control = MultiPoly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    moment = spec.second_moment()

    harmonic_run, control_run = (
        mean_value_convergence(u, spec, MEAN_VALUE_POINTS, SPACINGS) for u in (harmonic, control)
    )
    rows = list(
        zip(
            SPACINGS,
            harmonic_run.sup_errors,
            (None, *harmonic_run.orders),
            control_run.sup_errors,
            (None, *control_run.orders),
        )
    )
    for h, harmonic_defect, harmonic_order, control_defect, _ in rows:
        order_txt = "" if harmonic_order is None else f" (order {harmonic_order:.2f})"
        print(f"h = {h:<10g} harmonic defect {harmonic_defect:.3e}{order_txt}"
              f"  control defect {control_defect:.6f}")

    print(f"kernel second moment: {moment:.6f} "
          f"(control defect converges here, gap {abs(rows[-1][3] - moment):.2e})")

    csv = render_csv(
        ("spacing", "harmonic_defect", "harmonic_order", "control_defect", "control_order"),
        rows,
        comments=(f"delta {args.delta}", f"zonal degree {args.degree}",
                  f"kernel second moment {moment!r}"),
    )
    args.out.write_text(csv, encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
