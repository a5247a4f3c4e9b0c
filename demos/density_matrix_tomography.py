"""Reconstruct a density matrix from displaced photon statistics.

Displace the signal by gamma = |gamma| e^{i phi} over a uniform phase grid,
record the photon distribution at each phase, Fourier-separate the grid in
phi, and solve one small least-squares system per matrix diagonal.  The
exact backend closes the loop to machine precision.  The paper's photon
counter, a CascadeConfig with one stage per photon-number row, then counts
each phase's photons and shows the same pipeline with sampling noise.
"""

import argparse

import numpy as np

from fockfilter import (CascadeConfig, ProbeDetector, StateSpec, TomographyPlan,
                        make_state, measure_distributions, reconstruct, trace_distance)


def describe(rec, truth, label):
    print(f"\n--- {label} ---")
    print(f"  trace distance to the true state: {trace_distance(rec.nu_hat, truth):.2e}")
    print(f"  reconstructed trace             : {rec.trace:.6f}")
    print("  per-diagonal residual / condition:")
    for s, (r, c) in enumerate(zip(rec.residual_norms, rec.condition_numbers)):
        print(f"    s = {s}:  residual {r:.2e}   condition {c:.2f}")
    if rec.flags:
        for f in rec.flags:
            print("  FLAG:", f)
    else:
        print("  no flags raised")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-fock", type=int, default=5)
    ap.add_argument("--samples", type=int, default=10_000,
                    help="Monte Carlo samples per phase setting")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    M = args.max_fock
    truth = make_state(StateSpec.coherent(1.0), cutoff=M, tail=None)
    print(f"True state: coherent signal truncated at n = {M}")
    print("largest coherences:",
          ", ".join(f"<{n + 1}|nu|{n}> = {truth[n + 1, n].real:+.4f}"
                    for n in range(3)))

    rows = 2 * M + 2
    plan = TomographyPlan(gamma_abs=1.0, n_phases=2 * M + 6, max_fock=M, n_rows=rows)
    P = measure_distributions(truth, plan)
    print(f"\nmeasured {P.shape[0]} phases x {P.shape[1]} photon rows")
    describe(reconstruct(plan, P), truth, "exact measurement backend")

    # stage k of the counter is tuned to n = k: one stage per photon row
    counter = CascadeConfig(
        n_top=rows - 1, tau=1e-4, chi_t=0.1, probe=ProbeDetector(alpha=20.0, eta=0.8),
        samples=args.samples, rng_seed=args.seed)
    noisy_plan = TomographyPlan(gamma_abs=1.0, n_phases=2 * M + 6, max_fock=M,
                                n_rows=rows, backend=counter)
    P_mc = measure_distributions(truth, noisy_plan)
    describe(reconstruct(noisy_plan, P_mc), truth,
             f"cascade counter, {args.samples} samples/phase")

    print("\nThe exact loop closes at machine precision; with sampled counts")
    print("the residuals grow to the shot-noise level but the least-squares")
    print("systems stay well conditioned, so the state comes back faithfully.")


if __name__ == "__main__":
    main()
