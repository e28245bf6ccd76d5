"""Unit tests for the host CPU and disk device cost models."""

import pytest

from repro.hardware.disk import DiskDevice
from repro.hardware.host import HostCPU


class TestHostCPU:
    def test_hash_matches_scpu_functionally(self):
        from repro import demo_keyring
        from repro.hardware.scpu import SecureCoprocessor
        host = HostCPU()
        scpu = SecureCoprocessor(keyring=demo_keyring())
        chunks = [b"alpha", b"beta" * 100]
        assert host.hash_record_data(chunks).root \
            == scpu.hash_record_data(chunks)

    def test_host_hashing_much_cheaper_than_card(self):
        from repro import demo_keyring
        from repro.hardware.scpu import SecureCoprocessor
        host = HostCPU()
        scpu = SecureCoprocessor(keyring=demo_keyring())
        data = [b"x" * (256 * 1024)]
        host.hash_record_data(data)
        scpu.hash_record_data(data)
        host_cost = host.meter.by_operation()["sha"]
        scpu_cost = scpu.meter.by_operation()["sha"]
        assert scpu_cost > 5 * host_cost

    def test_table_touch_scales_with_entries(self):
        host = HostCPU()
        host.table_touch(10)
        assert host.meter.by_operation()["vrdt"] == pytest.approx(5e-5)

    def test_table_touch_rejects_negative(self):
        with pytest.raises(ValueError):
            HostCPU().table_touch(-1)

    def test_verify_cost_charged_by_bits(self):
        host = HostCPU()
        host.verify_signature_cost(512)
        host.verify_signature_cost(1024)
        ops = host.meter.by_operation()
        assert "rsa_verify_512" in ops and "rsa_verify_1024" in ops
        assert ops["rsa_verify_1024"] > ops["rsa_verify_512"]

    def test_memcpy_linear(self):
        host = HostCPU()
        host.memcpy_cost(1024 * 1024)
        one_mb = host.meter.total_seconds
        host.memcpy_cost(2 * 1024 * 1024)
        assert host.meter.total_seconds == pytest.approx(3 * one_mb)


class TestDiskDevice:
    def test_read_write_metered_separately(self):
        disk = DiskDevice()
        disk.write(4096)
        disk.read(4096)
        ops = disk.meter.by_operation()
        assert set(ops) == {"disk_write", "disk_read"}

    def test_random_access_pays_positioning(self):
        disk = DiskDevice()
        random_cost = disk.read(4096, sequential=False)
        sequential_cost = disk.read(4096, sequential=True)
        assert random_cost > 50 * sequential_cost

    def test_cost_returned_matches_meter(self):
        disk = DiskDevice()
        cost = disk.write(8192)
        assert disk.meter.total_seconds == pytest.approx(cost)

    def test_paper_latency_band(self):
        """§5: '3-4ms+ latencies for individual block disk access'."""
        disk = DiskDevice()
        assert disk.read(4096) >= 0.003
