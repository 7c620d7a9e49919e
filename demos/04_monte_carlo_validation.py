"""Trust, but simulate.

Every closed form in the library is backed by a seeded Monte Carlo harness
that executes the actual procedures on synthetic populations.  This demo
runs the comparisons end to end - including the one place the classical
formulas are only approximations, where simulation is the ground truth.
"""

from poolscreen import (
    ArrayDesign,
    DilutionScenario,
    DorfmanDesign,
    GibbsGowerPlan,
    HypercubeDesign,
    SterrettDesign,
    array_expected_tests_exact,
    array_expected_tests_per_person,
    dorfman_expected_tests_per_person,
    gg_mse,
    hypercube_expected_tests_exact,
    hypercube_expected_tests_per_person,
    monte_carlo,
    pooled_false_negative_rate,
    sterrett_expected_tests_per_batch,
)

REPS = 50_000

print("=" * 72)
print("Closed forms vs 50,000 simulated runs")
print("=" * 72)
print()

out = monte_carlo(DorfmanDesign(5), 0.05, 100, REPS, seed=101)
print(f"Dorfman, pools of 5 @ 5% prevalence")
print(f"  formula {dorfman_expected_tests_per_person(0.05, 5):.5f}"
      f"  simulated {out.mean_tests:.5f} (se {out.se_tests:.5f})")

out = monte_carlo(SterrettDesign(9), 0.03, 90, REPS, seed=102)
print(f"Sterrett, pools of 9 @ 3% prevalence")
print(f"  closed form {sterrett_expected_tests_per_batch(0.03, 9) / 9:.5f}"
      f"  simulated {out.mean_tests:.5f} (se {out.se_tests:.5f})")

plan = GibbsGowerPlan(28, 100)
out = monte_carlo(plan, 0.05, None, REPS, seed=103)
print(f"Pooled estimation, 100 pools of 28 @ 5% prevalence")
print(f"  exact rmse {gg_mse(0.05, 28, 100) ** 0.5:.3e}"
      f"  simulated {out.empirical_rmse:.3e}")

print()
print("=" * 72)
print("Array/hypercube: where the textbook formula is only approximate")
print("=" * 72)
print()
print("The classical array cost treats positive rows and columns as")
print("independent; really they are correlated through the shared cell, so")
print("the procedure uses *more* tests than the formula says.  The library")
print("also ships the exact expectation; simulation sides with it.")
print()
out = monte_carlo(ArrayDesign(8), 0.05, 64, REPS, seed=104)
print(f"8x8 array @ 5% prevalence, tests per person:")
print(f"  approximation {array_expected_tests_per_person(0.05, 8):.5f}")
print(f"  exact         {array_expected_tests_exact(0.05, 8):.5f}")
print(f"  simulated     {out.mean_tests:.5f} (se {out.se_tests:.5f})")
print()
out = monte_carlo(HypercubeDesign(8, 3), 0.01, 512, REPS, seed=105)
print(f"8x8x8 cube @ 1% prevalence, tests per person:")
print(f"  approximation {hypercube_expected_tests_per_person(0.01, 8, 3):.5f}")
print(f"  exact         {hypercube_expected_tests_exact(0.01, 8, 3):.5f}")
print(f"  simulated     {out.mean_tests:.5f} (se {out.se_tests:.5f})")
print()
print("Moral: the product-form cube approximation is fine only at very low")
print("prevalence; validate a design by simulation before deploying it.")

print()
print("=" * 72)
print("Noise in the loop: dilution false negatives")
print("=" * 72)
print()
noise = DilutionScenario(
    aliquot_volume=1.0, sample_volume=20.0, concentration=5.0,
    pool_size=10, prevalence=0.01,
)
out = monte_carlo(DorfmanDesign(10), 0.01, 100, REPS, seed=106, noise=noise)
print("Dorfman pools of 10 with weak positives (100 particles/sample):")
print(f"  modeled pooled miss rate  {pooled_false_negative_rate(noise):.3f}")
print(f"  simulated pooled miss rate {out.pool_miss_rate:.3f}")
print(f"  resulting sensitivity      {out.sensitivity:.3f}")
print()
print("=" * 72)
print("Reproducibility")
print("=" * 72)
print()
again = monte_carlo(DorfmanDesign(10), 0.01, 100, REPS, seed=106, noise=noise)
parallel = monte_carlo(DorfmanDesign(10), 0.01, 100, REPS, seed=106, noise=noise, workers=4)
print(f"  identical seed, rerun    : {'bit-identical' if again == out else 'MISMATCH'}")
print(f"  identical seed, 4 workers: {'bit-identical' if parallel == out else 'MISMATCH'}")
