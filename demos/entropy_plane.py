"""The entropy plane: where qubit channels live.

Every channel maps to a point (S^map, S^rec).  This demo samples a few
ensembles, prints the corners and boundary curves, and draws a coarse ASCII
scatter so the allowed region is visible without any plotting stack.
"""

import math

from qchan import (
    depolarizing_curve_point,
    identity_channel,
    map_entropy,
    maximally_depolarizing,
    random_bistochastic,
    random_cptp,
    random_interval_channel,
    receiver_entropy,
    rng_substreams,
)

SIZE = 2.0 * math.log(2.0)  # both axes run from 0 to 2 ln 2
ROWS, COLS = 18, 44


def point(ch, q=1.0):
    return map_entropy(ch, q), receiver_entropy(ch, q)


def main():
    print("corners of the plane (q = 1):")
    for ch in (identity_channel(2), maximally_depolarizing(2)):
        s_map, s_rec = point(ch)
        print(f"  {ch.label:28s} -> ({s_map:.4f}, {s_rec:.4f})")

    print("\nexact depolarizing-family curve (S^map, S^rec) at a few mixing values:")
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        s_map, s_rec = depolarizing_curve_point(alpha)
        print(f"  alpha = {alpha:4.2f}: ({s_map:.4f}, {s_rec:.4f})")

    grid = [[" "] * COLS for _ in range(ROWS)]

    def mark(s_map, s_rec, symbol):
        col = min(COLS - 1, int(s_map / SIZE * (COLS - 1) + 0.5))
        row = min(ROWS - 1, int(s_rec / SIZE * (ROWS - 1) + 0.5))
        cell = grid[ROWS - 1 - row][col]
        if cell == " " or symbol == "*":
            grid[ROWS - 1 - row][col] = symbol

    for i, rng in enumerate(rng_substreams(1, range(400))):
        mark(*point(random_cptp(2, 2 if i % 2 == 0 else 4, rng)), "o")
    for i, rng in enumerate(rng_substreams(2, range(200))):
        mark(*point(random_bistochastic(2, i % 4 + 1, rng)), "+")
    for rng in rng_substreams(3, range(100)):
        mark(*point(random_interval_channel(rng)), "x")
    for i in range(101):
        mark(*depolarizing_curve_point(i / 100.0), "*")

    print("\nS^rec")
    for row in grid:
        print("  |" + "".join(row))
    print("  +" + "-" * COLS + "-> S^map")
    print("  o random CP-TP   + unitary mixtures   x interval maps   * depolarizing curve")
    print("\nunitary mixtures hug the diagonal's upper region; interval maps sit on")
    print("the vertical line S^map = ln 2; nothing crosses the starred boundary arc.")


if __name__ == "__main__":
    main()
