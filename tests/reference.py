"""Plain references the tests compare votesim with: one call per drawn value."""

from votesim.experiments import TrialConfig
from votesim.hevs import resolve_sample_size
from votesim.seeding import spawn


def empirical_sample_reliability(n: int, m: int, t: int, trials: int, seed: int = 1) -> float:
    """Monte Carlo estimate of one sample avoiding m fixed bad voters.

    Draws t indices with replacement per trial, matching the sampling plan;
    the estimate converges on reliability_probability_with_replacement, not
    on the without-replacement formula.
    """
    rng = spawn("sample-reliability", seed)
    clean = 0
    for _ in range(trials):
        if all(rng.randrange(n) >= m for _ in range(t)):
            clean += 1
    return clean / trials


def symbolic_trial(config: TrialConfig, seed: int) -> bool:
    """The symbolic verdict of ``run_trial(config, seed)``, drawn value by value:
    an honesty flag per voter, a vote per honest voter, then the plan."""
    world = spawn(seed, "world")
    honest = [world.random() >= config.p_fail for _ in range(config.n)]
    for _ in range(sum(honest)):
        world.randrange(2)
    bad = {voter for voter, flag in enumerate(honest, 1) if not flag}
    t = resolve_sample_size(config.t_policy, config.n)
    samples = [[world.randrange(1, config.n + 1) for _ in range(t)] for _ in range(config.k)]
    return sum(bad.isdisjoint(sample) for sample in samples) >= config.min_consistency
