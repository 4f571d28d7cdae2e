"""Offline RL with an inaccurate simulator.

Trains SAC agents on a mix of a fixed offline dataset and rollouts from a
perturbed simulator. A GAN fit to the offline state marginal supplies both
the rollout restart distribution and a per-state weight that discounts
simulated transitions where the dataset already has coverage.

Modules: nets (dense nets + autodiff), envs (pendulum / pointgoal), data
(packed transition rows: buffers, datasets), datasets (reference runs and
tiers), gan, sac, loop (the training loop and its variants), config (the
JSON codec of the config dataclasses), harness (experiments, scoring,
sweeps), presets (the paper's studies and the tiers each env gets), files
(atomic output files and the binary record format), errors (the shared
error types), cli.
"""
