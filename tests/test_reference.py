"""Checks of the per-sample reference link (tests/reference.py) that the
engine's sampler and detector are compared with."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from noisemod import NoiseSource, Scheme, threshold_bank
from reference import detect, received


class TestReceived:
    def test_zero_variance_is_constant(self):
        block = received((7.0, 0.0), 5, 0.0, NoiseSource(1).generator)
        assert np.all(block == 7.0)

    def test_law_of_large_numbers(self):
        x = received((6e-3, 2.1e-9), 1_000_000, 0.0, NoiseSource(3).generator)
        assert abs(x.mean() - 6e-3) < 5.0 * np.sqrt(2.1e-9 / 1e6)
        assert x.var() == pytest.approx(2.1e-9, rel=1e-2)

    @pytest.mark.parametrize("sigma_w", [0.0, 0.5])
    def test_deterministic_given_key(self, sigma_w):
        a = received((1.0, 4.0), 64, sigma_w, NoiseSource(7, 5).generator)
        b = received((1.0, 4.0), 64, sigma_w, NoiseSource(7, 5).generator)
        assert np.array_equal(a, b)

    def test_streams_differ_across_ids(self):
        a = received((0.0, 1.0), 64, 0.0, NoiseSource(7, 5).generator)
        b = received((0.0, 1.0), 64, 0.0, NoiseSource(7, 6).generator)
        assert not np.array_equal(a, b)

    def test_normality_sanity(self):
        x = received((0.0, 1.0), 1_000_000, 0.0, NoiseSource(11).generator)
        kurtosis = np.mean(x**4) / np.mean(x**2) ** 2
        assert 2.9 < kurtosis < 3.1

    def test_zero_noise_draws_nothing(self):
        gen, twin = NoiseSource(22).generator, NoiseSource(22).generator
        block = received((1.5, 2.0), 100, 0.0, gen)
        assert np.array_equal(block, 1.5 + math.sqrt(2.0) * twin.standard_normal(100))
        assert gen.standard_normal() == twin.standard_normal()

    def test_noise_statistics(self):
        out = received((0.0, 0.0), 1_000_000, 2e-5, NoiseSource(23).generator)
        assert out.var() == pytest.approx(4e-10, rel=1e-2)


@pytest.fixture
def gqnm_bank(canonical_subs):
    return threshold_bank(Scheme.GQNM, canonical_subs[0])


def _at(bank, mean_threshold, var_threshold):
    """The bank with its one mean and one variance threshold moved by hand."""
    return dataclasses.replace(bank, mean_thresholds=(mean_threshold,),
                               effective_var_thresholds=(var_threshold,))


class TestDetectEstimates:
    def test_hand_arithmetic(self, gqnm_bank):
        # [1, 2, 3] has mean 2 and 1/N variance 2/3 exactly: on those
        # thresholds both bits go up, and an ulp above them both stay down
        block = [1.0, 2.0, 3.0]
        assert detect(Scheme.GQNM, _at(gqnm_bank, 2.0, 2.0 / 3.0), block) == (1, 1)
        above = _at(gqnm_bank, math.nextafter(2.0, 3.0), math.nextafter(2.0 / 3.0, 1.0))
        assert detect(Scheme.GQNM, above, block) == (0, 0)

    def test_two_samples_use_the_one_over_n_divisor(self, gqnm_bank):
        # [0, 2]: variance 1 with the 1/N divisor, 2 with 1/(N - 1)
        assert detect(Scheme.GQNM, _at(gqnm_bank, 1.0, 1.5), [0.0, 2.0]) == (1, 0)

    def test_constant_block(self, gqnm_bank):
        block = [7.0] * 64
        assert detect(Scheme.GQNM, _at(gqnm_bank, 7.0, 0.0), block) == (1, 1)
        assert detect(Scheme.GQNM, _at(gqnm_bank, 7.0, 5e-324), block) == (1, 0)


def test_reference_imports_nothing_from_the_engine():
    # the sampler check is independent only while the reference shares no
    # code with noisemod.harness: it imports numpy and bisect alone
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"bisect", "numpy"}
