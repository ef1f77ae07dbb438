#!/usr/bin/env python
"""Figs. 2/3/5/6 companion: explore the geometry behind the guarantees.

Prints, for a 2D exploration space:
  * the optimal-cost surface statistics (Fig. 3's OCS);
  * each iso-cost contour with its cost, member count and plan set
    (Fig. 2's bouquet structure);
  * the plans chosen for spill-mode execution per dimension -- the
    P^j_max selection of Fig. 5;
  * which contours are aligned, natively or after induced replacement,
    and at what penalty (Fig. 6 / Table 2).

Run:
    python examples/contour_explorer.py [workload] [resolution]
"""

import sys

import numpy as np

from repro import RobustSession
from repro.algorithms import AlignedBound
from repro.common.reporting import format_table


def main(name="2D_Q91", resolution=32):
    space, contours = RobustSession(
        resolution=resolution).space_and_contours(name)
    query = space.query

    print("=== %s over grid %s ===" % (query.name, space.grid.shape))
    print("POSP cardinality: %d plans" % space.posp_size())
    print("optimal cost range: [%.4g, %.4g]  (%.1f doublings)\n" % (
        space.c_min, space.c_max,
        np.log2(space.c_max / space.c_min)))

    alignment = AlignedBound(space, contours).alignment()
    remaining = frozenset(query.epps)
    rows = []
    for i in range(len(contours)):
        members = contours.members(i)
        plan_ids = sorted(set(int(p) for p in members.plan_ids))
        # P^j_max choice per dimension (Fig. 5).
        choices = []
        for d, epp in enumerate(query.epps):
            best = None
            for pos in range(len(members)):
                plan = space.plans[int(members.plan_ids[pos])]
                target = plan.spill_target(remaining)
                if target and target[0] == epp:
                    coord = members.coords[pos][d]
                    if best is None or coord > best[0]:
                        best = (coord, plan.id)
            choices.append(
                "P%d" % (best[1] + 1) if best else "-")
        penalty = alignment.penalties[i]
        rows.append((
            "IC%d" % (i + 1),
            contours.cost(i),
            len(members),
            ",".join("P%d" % (p + 1) for p in plan_ids),
            " ".join(choices),
            "native" if penalty == 1.0 else "%.2f" % penalty,
        ))
    print(format_table(
        ["contour", "cost", "locations", "plans on contour",
         "spill choice/dim", "alignment"],
        rows,
        title="Iso-cost contours, bouquet plans and alignment",
    ))

    print("\nDensest contour rho = %d  =>  PlanBouquet guarantee %.1f" % (
        contours.max_density(), 4 * 1.2 * contours.max_density()))
    print("SpillBound guarantee D^2+3D = %d (D = %d), by inspection." % (
        query.dimensions ** 2 + 3 * query.dimensions, query.dimensions))
    print("Contours natively aligned: %.0f%%; aligned within penalty 2: "
          "%.0f%%." % (
              100 * alignment.fraction_aligned(1.0),
              100 * alignment.fraction_aligned(2.0)))


if __name__ == "__main__":
    args = sys.argv[1:]
    main(
        args[0] if args else "2D_Q91",
        int(args[1]) if len(args) > 1 else 32,
    )
