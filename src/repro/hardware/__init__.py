"""Hardware models: the SCPU, host CPU, and disk, with Table 2 calibration."""

from repro.hardware.calibration import (
    ENTERPRISE_DISK,
    HOST_P4_3_4GHZ,
    SCPU_IBM_4764,
    CryptoProfile,
    DiskProfile,
)
from repro.hardware.device import OpMeter, TimedDevice
from repro.hardware.disk import DiskDevice
from repro.hardware.host import HostCPU
from repro.hardware.pool import ScpuPool
from repro.hardware.scpu import ScpuKeyring, SecureCoprocessor, Strength
from repro.hardware.tamper import TamperedError, TamperResponder

__all__ = [
    "ENTERPRISE_DISK",
    "HOST_P4_3_4GHZ",
    "SCPU_IBM_4764",
    "CryptoProfile",
    "DiskProfile",
    "OpMeter",
    "TimedDevice",
    "DiskDevice",
    "HostCPU",
    "ScpuPool",
    "ScpuKeyring",
    "SecureCoprocessor",
    "Strength",
    "TamperedError",
    "TamperResponder",
]
