"""How good is the variational estimate of sigma1?

sigma1 is the largest singular value of the superoperator; the variational
search maximizes |Phi(rho)|_2 / |rho|_2 over density matrices only, so it can
never exceed the true value beyond roundoff.  Its warm start, the positive
part of the top right-singular vector, is exact on every completely positive
map: Phi^dag Phi is then completely positive too, and by the Perron-Frobenius
theorem for positive maps a density matrix attains sigma1.  So every budget
reproduces sigma1 to machine precision here; the random probes are the part
of the estimate that does not rely on the SVD.
"""

from qchan import (
    depolarizing,
    identity_channel,
    random_cptp,
    rng_substream,
    sigma1_variational,
    spontaneous_emission,
)

BUDGETS = (10, 100, 1000)


def main():
    print("channels where a density matrix attains the top singular vector:")
    for ch in (identity_channel(2), spontaneous_emission(), depolarizing(2, 0.4)):
        est = sigma1_variational(ch, budget=100, seed=1)
        print(f"  {ch.label:28s} sigma1 = {ch.sigma1:.8f}  estimate = {est:.8f}  "
              f"gap = {ch.sigma1 - est:.2e}")

    print("\nrandom channels: worst and mean gap over 60 samples per budget")
    channels = [
        random_cptp(2, 2 if i % 2 == 0 else 4, rng_substream(31, i)) for i in range(60)
    ]
    for budget in BUDGETS:
        gaps = []
        overshoot = 0
        for i, ch in enumerate(channels):
            est = sigma1_variational(ch, budget=budget, seed=100 + i)
            gaps.append(ch.sigma1 - est)
            if est > ch.sigma1 + 1e-9:
                overshoot += 1
        worst = max(gaps)
        mean = sum(gaps) / len(gaps)
        print(f"  budget {budget:5d}: worst gap {worst:.3e}  mean gap {mean:.3e}  "
              f"overshoots {overshoot}")

    print("\nup to roundoff the gap stays nonnegative: the reported value is attained")
    print("by a feasible state, so the search certifies sigma1 from below.")


if __name__ == "__main__":
    main()
