"""Ablation — windows (O(1)) vs Merkle (O(log n)) vs RSA accumulator.

§2.3/§4.1: "To escape the O(log n) per update cost of the straight-forward
choice of deploying Merkle trees ... we introduce a novel mechanism with
identical assurances but constant cost per update."  PAPERS.md adds the
third contender: a trapdoor-assisted dynamic RSA accumulator whose SCPU
update is also O(1), but signed per write rather than amortized.

All three run as first-class backends behind ``StoreConfig.auth_scheme``
(the ``repro.baselines.merkle_worm`` special case this file's predecessor
measured is superseded), through one measurement core —
:mod:`repro.sim.ablation` — shared with :mod:`repro.perf`, which
generates the committed ``BENCH_ablation_auth_<scheme>.json``
artifacts.  Expected shape, checked below:

* **update cost**: windows flat and cheapest; Merkle grows with log n;
  accumulator flat but with a per-write signature premium;
* **proof size**: windows and accumulator constant; Merkle O(log n);
* **reads**: SCPU-free for every scheme (the design invariant);
* **state size**: windows ~constant; Merkle and accumulator O(n).

Run a subset with ``--scheme`` (repeatable), e.g.::

    pytest benchmarks/test_ablation_auth_schemes.py --scheme windows \
        --scheme accumulator
"""

from __future__ import annotations

import pytest

from repro.sim.ablation import run_auth_ablation
from repro.sim.metrics import format_table

from conftest import ALL_SCHEMES

_STORE_SIZES = [64, 512, 4096]


@pytest.fixture(scope="module")
def sweeps(paper_keyring, request):
    """One full sweep per scheme selected via ``--scheme`` (default: all)."""
    selected = request.config.getoption("--scheme") or list(ALL_SCHEMES)
    return {scheme: run_auth_ablation(scheme, paper_keyring,
                                      sizes=_STORE_SIZES)
            for scheme in selected}


def _need(sweeps, *schemes):
    missing = [s for s in schemes if s not in sweeps]
    if missing:
        pytest.skip(f"scheme(s) {missing} deselected via --scheme")


def _column(sweeps, scheme, key):
    return [point[key] for point in sweeps[scheme]["points"]]


def test_three_way_cost_table(sweeps, benchmark, paper_keyring):
    rows = [[scheme] + [f"{v * 1e6:.0f}"
                        for v in _column(sweeps, scheme,
                                         "scpu_seconds_per_write")]
            for scheme in sweeps]
    print()
    print(format_table(
        ["scheme \\ prefill"] + [str(n) for n in _STORE_SIZES], rows,
        title="SCPU µs per write — windows / merkle / accumulator"))
    benchmark.pedantic(run_auth_ablation,
                       args=("windows", paper_keyring), kwargs={"sizes": [64]},
                       rounds=1, iterations=1)


def test_window_write_cost_flat(sweeps, benchmark):
    """O(1) amortized: per-write SCPU time independent of store size."""
    _need(sweeps, "windows")
    values = _column(sweeps, "windows", "scpu_seconds_per_write")
    assert max(values) / min(values) < 1.05
    benchmark(lambda: None)


def test_merkle_write_cost_grows(sweeps, benchmark):
    """O(log n): per-write SCPU time strictly grows with store size."""
    _need(sweeps, "merkle")
    values = _column(sweeps, "merkle", "scpu_seconds_per_write")
    assert values[0] < values[1] < values[2]
    benchmark(lambda: None)


def test_accumulator_write_cost_flat_with_signature_premium(sweeps, benchmark):
    """O(1) like windows, but paying a fresh signature every write."""
    _need(sweeps, "accumulator", "windows")
    values = _column(sweeps, "accumulator", "scpu_seconds_per_write")
    assert max(values) / min(values) < 1.05
    window_values = _column(sweeps, "windows", "scpu_seconds_per_write")
    assert min(values) > max(window_values)
    benchmark(lambda: None)


def test_merkle_gap_widens_with_store_size(sweeps, benchmark):
    _need(sweeps, "merkle", "windows")
    merkle = _column(sweeps, "merkle", "scpu_seconds_per_write")
    window = _column(sweeps, "windows", "scpu_seconds_per_write")
    gaps = [m - w for m, w in zip(merkle, window)]
    assert gaps[0] < gaps[1] < gaps[2]
    benchmark(lambda: None)


def test_reads_are_scpu_free_in_every_scheme(sweeps, benchmark):
    """The shared invariant: the active-read path never touches the card."""
    for scheme in sweeps:
        assert all(v == 0.0
                   for v in _column(sweeps, scheme, "read_scpu_seconds")), \
            scheme
    benchmark(lambda: None)


def test_witness_catchup_is_accumulator_only(sweeps, benchmark):
    """Cold-witness directory catch-up: the accumulator's host-side cost."""
    for scheme in ("windows", "merkle"):
        if scheme in sweeps:
            assert all(v == 0.0
                       for v in _column(sweeps, scheme,
                                        "witness_catchup_seconds")), scheme
    if "accumulator" in sweeps:
        values = _column(sweeps, "accumulator", "witness_catchup_seconds")
        assert all(v > 0.0 for v in values)
        assert values[0] < values[1] < values[2]  # staleness grows with n
    benchmark(lambda: None)


def test_proof_sizes(sweeps, benchmark):
    """Membership-proof bandwidth: constant / O(log n) / constant."""
    rows = [[scheme] + [str(int(v))
                        for v in _column(sweeps, scheme, "proof_bytes")]
            for scheme in sweeps]
    print()
    print(format_table(
        ["scheme \\ prefill"] + [str(n) for n in _STORE_SIZES], rows,
        title="Proof bytes per active read"))
    # "Constant" up to the decimal SN frontier inside the signed
    # statement — a digit per 10x growth, never a path per 2x.
    for scheme in ("windows", "accumulator"):
        if scheme in sweeps:
            values = _column(sweeps, scheme, "proof_bytes")
            assert max(values) - min(values) <= 4, scheme
    if "merkle" in sweeps:
        merkle = _column(sweeps, "merkle", "proof_bytes")
        assert merkle[2] - merkle[0] >= 32  # at least one more sibling
    benchmark(lambda: None)


def test_state_sizes(sweeps, benchmark):
    """Scheme-owned state: windows stays small; tree and cache grow O(n)."""
    if "windows" in sweeps:
        window = _column(sweeps, "windows", "state_bytes")
        assert max(window) - min(window) <= 8  # SN digits only
    for scheme in ("merkle", "accumulator"):
        if scheme in sweeps:
            values = _column(sweeps, scheme, "state_bytes")
            assert values[0] < values[1] < values[2]
    benchmark(lambda: None)
