"""Unit tests for the configuration object and its derived quantities."""

import pytest

from repro.core.config import GBIT, MB, DataCyclotronConfig


def test_paper_defaults():
    cfg = DataCyclotronConfig()
    assert cfg.n_nodes == 10
    assert cfg.bandwidth == pytest.approx(10 * GBIT)
    assert cfg.link_delay == pytest.approx(350e-6)
    assert cfg.bat_queue_capacity == 200 * MB
    assert cfg.ring_capacity == 2000 * MB  # the paper's 2 GB
    assert cfg.loit_levels == (0.1, 0.6, 1.1)
    assert cfg.loit_high_watermark == pytest.approx(0.80)
    assert cfg.loit_low_watermark == pytest.approx(0.40)
    assert cfg.cores_per_node == 4
    assert not cfg.cpu_constrained
    assert cfg.request_absorption
    assert not cfg.requests_clockwise


def test_validation_errors():
    with pytest.raises(ValueError):
        DataCyclotronConfig(n_nodes=0)
    with pytest.raises(ValueError):
        DataCyclotronConfig(bandwidth=0)
    with pytest.raises(ValueError):
        DataCyclotronConfig(bat_queue_capacity=0)
    with pytest.raises(ValueError):
        DataCyclotronConfig(loit_levels=())
    with pytest.raises(ValueError):
        DataCyclotronConfig(loit_levels=(0.5, 0.5))
    with pytest.raises(ValueError):
        DataCyclotronConfig(loit_initial_level=9)
    with pytest.raises(ValueError):
        DataCyclotronConfig(loit_low_watermark=0.9, loit_high_watermark=0.5)
    with pytest.raises(ValueError):
        DataCyclotronConfig(cores_per_node=0)
    with pytest.raises(ValueError):
        DataCyclotronConfig(load_priority="random")


def test_derived_resend_timeout_scales_with_ring():
    small = DataCyclotronConfig(n_nodes=2)
    large = DataCyclotronConfig(n_nodes=20)
    mean_size = 5 * MB
    assert large.derived_resend_timeout(mean_size) > small.derived_resend_timeout(
        mean_size
    )


def test_derived_resend_timeout_covers_loaded_rotation():
    """The timeout must exceed a full-ring drain, else owners declare
    circulating BATs lost and flood the ring with duplicates."""
    cfg = DataCyclotronConfig(n_nodes=2)
    loaded_rotation = cfg.ring_capacity / cfg.bandwidth + 2 * cfg.link_delay
    assert cfg.derived_resend_timeout(10.0) >= loaded_rotation
    # tiny rings with tiny queues still respect the absolute floor
    small = DataCyclotronConfig(n_nodes=2, bat_queue_capacity=1024)
    assert small.derived_resend_timeout(10.0) == pytest.approx(0.1)


def test_explicit_resend_timeout_wins():
    cfg = DataCyclotronConfig(resend_timeout=7.5)
    assert cfg.derived_resend_timeout(5 * MB) == 7.5


def test_network_cpu_factor_by_mode():
    """Figure 1 integrated: RDMA is near-free, legacy saturates the host."""
    rdma = DataCyclotronConfig(transfer_mode="rdma")
    legacy = DataCyclotronConfig(transfer_mode="legacy")
    offload = DataCyclotronConfig(transfer_mode="offload")
    assert rdma.network_cpu_factor() == 0.0
    # ~1 GHz/Gb/s on a 9.32 GHz host at 10 Gb/s: all four cores busy
    assert legacy.network_cpu_factor() > 3.5
    assert rdma.network_cpu_factor() < offload.network_cpu_factor() < legacy.network_cpu_factor()


def test_transfer_mode_validation():
    with pytest.raises(ValueError):
        DataCyclotronConfig(transfer_mode="carrier-pigeon")


def test_total_data_tightens_timeout():
    cfg = DataCyclotronConfig(n_nodes=4)
    loose = cfg.derived_resend_timeout(MB)
    cfg.note_total_data(10 * MB)  # far less data than ring capacity
    tight = cfg.derived_resend_timeout(MB)
    assert tight < loose
    # more data than capacity: capacity stays the binding constraint
    cfg.note_total_data(10**12)
    assert cfg.derived_resend_timeout(MB) == pytest.approx(loose)
