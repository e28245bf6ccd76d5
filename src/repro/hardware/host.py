"""The untrusted main CPU (host) cost model.

The host (Table 2's P4 @ 3.4 GHz column) runs everything outside the
enclosure: VRDT maintenance, data placement, client request handling and
— in the §4.2.2 "slightly weaker" verify-later mode — data hashing on
behalf of the SCPU during bursts.  Like the SCPU it meters every
operation's virtual cost; unlike the SCPU it holds no secrets (anything
it stores, the insider can rewrite).
"""

from __future__ import annotations

from typing import Iterable

from repro.crypto.hashing import DataTree, data_tree
from repro.hardware.calibration import HOST_P4_3_4GHZ, CryptoProfile
from repro.hardware.device import OpMeter

__all__ = ["HostCPU"]

#: Fixed bookkeeping cost for VRDT table maintenance per operation — a few
#: microseconds of pointer/index work on a 3.4 GHz core.
_TABLE_TOUCH_SECONDS = 5e-6


class HostCPU:
    """The unsecured main processor: fast, plentiful, and untrusted."""

    def __init__(self, profile: CryptoProfile = HOST_P4_3_4GHZ,
                 hash_block_size: int = 64 * 1024) -> None:
        self.profile = profile
        self.meter = OpMeter()
        self.hash_block_size = hash_block_size

    def hash_record_data(self, chunks: Iterable[bytes]) -> DataTree:
        """Hash a VR's data tree at host speed (verify-later burst mode).

        The same tree and the same charge rule as the card's hashing
        pass; the SCPU later re-hashes the data to check the root.
        """
        records = list(chunks)
        tree = data_tree(records)
        total = sum(len(record) for record in records)
        self.meter.charge("sha", self.profile.sha_seconds(
            total + tree.node_bytes, self.hash_block_size))
        return tree

    def table_touch(self, entries: int = 1) -> None:
        """Charge VRDT bookkeeping cost for *entries* table operations."""
        if entries < 0:
            raise ValueError("entry count must be non-negative")
        self.meter.charge("vrdt", _TABLE_TOUCH_SECONDS * entries)

    def verify_signature_cost(self, bits: int) -> None:
        """Charge one host-side RSA verification (client proof checking)."""
        self.meter.charge(f"rsa_verify_{bits}", self.profile.rsa_verify_seconds(bits))

    def memcpy_cost(self, nbytes: int) -> None:
        """Charge a host memory copy (staging data for DMA or clients)."""
        self.meter.charge("memcpy", self.profile.dma_seconds(nbytes))
