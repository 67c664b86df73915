"""Mean-value defect vs grid spacing, for a harmonic map and a control.

The harmonic map's mollified values should converge to its pointwise values
as the grid refines (the defect is pure discretization error); the defect of
the non-harmonic control |x|^2 converges to the kernel's second moment and
stays bounded away from zero.  Prints the defect table with observed orders
and writes it as CSV.  About a second at the default spacings on a 2-core x86 box.

usage: python3 scripts/mollifier_convergence.py [--delta 0.25] [--degree 4] [--out mollifier.csv]
"""

import argparse
import math
import pathlib
from fractions import Fraction

from ballharmonics.harmonics import zonal_solid_harmonic
from ballharmonics.mollifier import MollifierSpec, mean_value_check
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

    rows = []
    previous: dict[str, float] = {}
    for h in SPACINGS:
        line = {"spacing": h}
        for label, u in (("harmonic", harmonic), ("control", control)):
            defect = mean_value_check(u, spec, MEAN_VALUE_POINTS, spacing=h).sup_error
            order = None
            if label in previous:
                order = math.log(previous[label] / defect) / math.log(2)
            line[label] = defect
            line[f"{label}_order"] = order
            previous[label] = defect
        rows.append(
            (line["spacing"], line["harmonic"], line["harmonic_order"],
             line["control"], line["control_order"])
        )
        order_txt = "" if line["harmonic_order"] is None else f" (order {line['harmonic_order']:.2f})"
        print(f"h = {h:<10g} harmonic defect {line['harmonic']:.3e}{order_txt}"
              f"  control defect {line['control']:.6f}")

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
