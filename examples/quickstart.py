#!/usr/bin/env python3
"""Quickstart: build an SPN, query it through one session, compile it, run it.

This walks through the full public API in a few dozen lines:

1. build a small sum-product network by hand,
2. bind it to an `InferenceSession` — the single front door for every
   query kind — and answer marginal, conditional and MPE queries as typed
   objects (batched, log-domain where it matters), plus the analysis
   kinds: `Classify` (posterior over one variable, with the classic
   explaining-away effect) and seeded conditional `Sample`,
3. measure the same model on the CPU and GPU platform engines through the
   very same session (the paper's ops/cycle metric),
4. compile it for the paper's ``Ptree`` processor configuration and execute
   the compiled program on the cycle-accurate simulator,
5. run a *batched* conditional on a larger network and compare it against
   the per-row scalar path (correctness and speed) — the workload the
   typed query API makes fast.
"""

import time

import numpy as np

from repro.api import MPE, Classify, Conditional, InferenceSession, Marginal, Sample
from repro.compiler import compile_spn
from repro.processor import ptree_config
from repro.spn import (
    RatSpnConfig,
    SPN,
    evaluate,
    generate_rat_spn,
    random_evidence,
)


def build_weather_model() -> SPN:
    """A toy model over three binary variables: cloudy, sprinkler, wet grass."""
    spn = SPN()
    cloudy = SPN.bernoulli_leaf(spn, 0, 0.4)

    # Sprinkler and wet-grass behaviour differs between the two weather regimes,
    # so the model is a mixture over the "cloudy" variable's children.
    def regime(p_sprinkler: float, p_wet: float) -> int:
        return spn.add_product(
            [SPN.bernoulli_leaf(spn, 1, p_sprinkler), SPN.bernoulli_leaf(spn, 2, p_wet)]
        )

    cloudy_yes = spn.add_product([spn.add_indicator(0, 1), regime(0.1, 0.8)])
    cloudy_no = spn.add_product([spn.add_indicator(0, 0), regime(0.5, 0.4)])
    root = spn.add_sum([cloudy_yes, cloudy_no], weights=[0.4, 0.6])
    spn.set_root(root)
    spn.check_valid()
    return spn


def main() -> None:
    spn = build_weather_model()
    print("model:", spn.stats())

    # --- one session, every query kind ------------------------------------ #
    session = InferenceSession(spn)
    print("\nqueries (one InferenceSession, typed query objects):")
    p_wet = session.run(Marginal({2: 1}))[0]
    print("  P(wet grass)               =", round(p_wet, 4))
    p_wet_given_cloudy = session.run(Conditional(query={2: 1}, evidence={0: 1}))[0]
    print("  P(wet grass | cloudy)      =", round(p_wet_given_cloudy, 4))
    p_wet_given_clear = session.run(Conditional(query={2: 1}, evidence={0: 0}))[0]
    print("  P(wet grass | not cloudy)  =", round(p_wet_given_clear, 4))
    print("  most probable explanation  =", session.run(MPE({2: 1}))[0])
    plan = session.plan(Conditional(query={2: 1}, evidence={0: 1}))
    print(
        f"  (a Conditional plans into exactly {plan.n_evaluations} log-domain "
        "tape passes, whatever the batch size)"
    )

    # --- analysis queries: classification and sampling --------------------- #
    # Classify is predict_proba: the posterior over one variable's states
    # given everything observed — here, "was it cloudy?" from the grass.
    print("\nanalysis queries (same session):")
    posterior = session.run(Classify(evidence={2: 1}, target=0))[0]
    print("  P(cloudy | wet grass)      =", round(posterior[1], 4),
          " (clear:", str(round(posterior[0], 4)) + ")")
    posterior = session.run(Classify(evidence={1: 1, 2: 1}, target=0))[0]
    print("  P(cloudy | sprinkler, wet) =", round(posterior[1], 4),
          " -- the sprinkler explains the grass away")
    # Seeded conditional sampling: complete the unobserved variables by
    # exact ancestral draws.  Same seed, same rows -> same samples, always.
    draws = session.run(Sample(evidence={2: 1}, n_samples=5, seed=4))[0]
    print("  5 sampled worlds | wet     =", draws.tolist(),
          " (columns: cloudy, sprinkler, wet)")

    # --- platform throughput through the same session ---------------------- #
    print("\nplatform engines (ops/cycle, same session):")
    for platform in ("CPU", "GPU"):
        result = session.throughput(platform)
        print(f"  {platform:4s}: {result.ops_per_cycle:6.3f} ops/cycle ({result.cycles} cycles)")

    # --- the custom processor ---------------------------------------------- #
    kernel = compile_spn(spn, ptree_config())
    result = kernel.run({2: 1})  # every transported value is checked
    reference = evaluate(spn, {2: 1})
    print("\nSPN processor (Ptree):")
    print(f"  compiled to {kernel.program.n_instructions} VLIW instructions "
          f"({kernel.stats.n_cones} cones, {kernel.stats.n_loads} vector loads)")
    print(f"  result {result.value:.6f} (reference {reference:.6f})")
    print(f"  throughput {result.ops_per_cycle:6.3f} ops/cycle ({result.cycles} cycles)")
    assert abs(result.value - reference) < 1e-9

    # --- batched conditionals on a larger network --------------------------- #
    big = generate_rat_spn(
        RatSpnConfig(n_vars=64, depth=64, repetitions=2, n_sums=2,
                     split_balance=0.1, seed=7)
    )
    fast = InferenceSession(big, warm=True)          # vectorized tape, pinned
    reference_session = InferenceSession(big, engine="python")

    n_rows = 500
    evidence = random_evidence(64, observed_fraction=0.8, seed=0, n_samples=n_rows)
    evidence[:, 0] = -1                               # the queried variable
    query = np.full_like(evidence, -1)
    query[:, 0] = 1
    batch = Conditional(evidence=evidence, query=query)

    start = time.perf_counter()
    batched = fast.run(batch)                         # two tape passes, all rows
    t_batched = time.perf_counter() - start

    n_scalar = 50                                     # per-row path, a sample
    start = time.perf_counter()
    per_row = np.array([
        reference_session.run(Conditional(evidence=evidence[i], query=query[i]))[0]
        for i in range(n_scalar)
    ])
    t_per_row = (time.perf_counter() - start) / n_scalar * n_rows

    assert np.allclose(batched[:n_scalar], per_row, rtol=1e-9, atol=0.0)

    print(f"\nbatched conditionals ({n_rows} rows, 64-variable network):")
    print(f"  per-row scalar path (reference walk)  {t_per_row * 1e3:8.1f} ms (extrapolated)")
    print(f"  one batched Conditional (2 passes)    {t_batched * 1e3:8.1f} ms")
    print(f"  speedup: batched queries are {t_per_row / t_batched:.1f}x "
          "faster than the per-row scalar path")


if __name__ == "__main__":
    main()
