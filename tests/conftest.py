import pytest

from noisemod import SchemeConfig, SubchannelParams


@pytest.fixture
def canonical_subs():
    """Reference subchannels of the default derived configuration."""
    sub0 = SubchannelParams(m_L=1e-3, m_H=2e-2, var_0=1e-10, var_1=5e-10)
    sub1 = SubchannelParams(m_L=5e-3, m_H=1e-1, var_0=2e-9, var_1=1e-8)
    return sub0, sub1


@pytest.fixture
def literal_config():
    """Subchannels given directly, with the quoted component sigmas squared."""
    sub0 = SubchannelParams(m_L=1e-3, m_H=2e-2, var_0=1e-5**2, var_1=1.4142e-5**2)
    sub1 = SubchannelParams(m_L=5e-3, m_H=1e-1, var_0=2.2361e-5**2, var_1=1e-4**2)
    return SchemeConfig(sub0, sub1)
