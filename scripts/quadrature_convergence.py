#!/usr/bin/env python3
"""Log quadrature error against resolution for a few Dirichlet densities.

The cell rule is degree-1 exact, so constants and linear densities sit at
floating-point noise while genuinely curved ones shrink at second order.
"""

import sys

from cptforge.dirichlet import HyperParams, cell_rule_integrals

CASES = [
    HyperParams((1, 1, 1)),   # constant: exact at every resolution
    HyperParams((2, 1, 1)),   # linear: exact at every resolution
    HyperParams((3, 2, 2)),   # curved: second-order convergence
    HyperParams((8, 2, 2)),   # strongly peaked
]

RESOLUTIONS = [50, 100, 200, 400, 800]


def main() -> int:
    header = "alpha".ljust(12) + "".join(f"res={r}".rjust(12) for r in RESOLUTIONS)
    print(header)
    for alpha in CASES:
        errs = [abs(cell_rule_integrals([alpha], [(0,) * alpha.n], res)[0] - 1.0)
                for res in RESOLUTIONS]
        print(
            str(alpha.counts).ljust(12)
            + "".join(f"{e:12.2e}" for e in errs)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
