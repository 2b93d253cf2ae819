"""Which channels are entanglement breaking?

Sweeps the depolarizing family across its separability threshold, then
classifies a random ensemble and tallies the regions: A (entropic criteria
certify entanglement), C (partial transpose certifies separability, N = 2),
and B (no certificate either way).
"""

from collections import Counter

from qchan import classify_region, depolarizing, random_cptp, rng_substreams


def main():
    print("depolarizing family: alpha sweep at q = 2")
    print(f"{'alpha':>6s} {'region':>7s} {'ppt min eig':>12s} {'realign':>8s}  criteria slacks")
    for i in range(11):
        alpha = i / 10.0
        v = classify_region(depolarizing(2, alpha), 2.0)
        slacks = " ".join(f"{r.slack:+.3f}" for r in v.criteria)
        print(f"{alpha:6.2f} {v.region:>7s} {v.ppt_min_eigenvalue:12.4f} "
              f"{v.realignment_value:8.4f}  {slacks}")
    print("\nthe sign flip of the PPT eigenvalue and the first negative criterion")
    print("slack both happen at alpha = 1/3: the entropic test is tight here.")

    print("\nrandom CP-TP qubit channels, q = 2:")
    counts = Counter()
    examples = {}
    for i, rng in enumerate(rng_substreams(23, range(2000))):
        ch = random_cptp(2, 2 if i % 2 == 0 else 4, rng)
        v = classify_region(ch, 2.0)
        counts[v.region] += 1
        examples.setdefault(v.region, (i, v))
    for region in ("A", "B", "C"):
        n = counts.get(region, 0)
        print(f"  region {region}: {n:5d} channels ({100.0 * n / 2000:.1f}%)")
    print("\none sample per region:")
    for region, (i, v) in sorted(examples.items()):
        print(f"  [{region}] index {i}: ppt_pass={v.ppt_pass} "
              f"realignment={v.realignment_value:.4f} "
              f"violated={[r.id for r in v.criteria if not r.satisfied]}")
    print("\nregion A never contains a PPT channel — the entropic certificates")
    print("are sound, they only claim entanglement when it is really there.")


if __name__ == "__main__":
    main()
