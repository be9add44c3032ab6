"""Per-sample reference link: one symbol's samples and its detected bits.

Plain numpy and the public noisemod names only, none of noisemod.harness,
so that the engine's sufficient-statistic sampler is checked against an
independent model.
"""

from bisect import bisect_right

import numpy as np


def received(state, n, sigma_w, gen):
    """n samples of Normal(mean, variance), state = (mean, variance), plus
    channel noise of standard deviation sigma_w (no draws at sigma_w = 0)."""
    x = state[0] + np.sqrt(state[1]) * gen.standard_normal(n)
    return x + sigma_w * gen.standard_normal(n) if sigma_w else x


def layout_bits(scheme, mean_index, var_index):
    """The symbol bits, in scheme.layout, that select the two level indices."""
    bits = [0] * scheme.bits_per_symbol
    for positions, index in zip(scheme.layout, (mean_index, var_index)):
        for k, p in enumerate(positions):
            bits[p] = index >> k & 1
    return tuple(bits)


def detect(scheme, bank, samples=None, moments=None):
    """The symbol bits of the regions that the samples' mean and 1/N
    variance (or moments, that pair) fall in; a tie goes to the upper one."""
    mean_hat, var_hat = moments or (np.mean(samples), np.var(samples))
    return layout_bits(scheme, bisect_right(bank.mean_thresholds, mean_hat),
                       bisect_right(bank.effective_var_thresholds, var_hat))
