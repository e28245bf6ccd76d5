"""W007 verify-before-trust: the interprocedural taint fixtures.

Every fixture is a small virtual project (``{path: source}``) linted
with :func:`repro.lint.lint_project_sources` — the same entry point the
real project run uses, minus the filesystem.
"""

from __future__ import annotations

from textwrap import dedent
from typing import Dict

from repro.lint import lint_project_sources


def rules(sources: Dict[str, str], select=("W007",)):
    return [f for f in lint_project_sources(
        {path: dedent(src) for path, src in sources.items()}, select=select)]


# ------------------------------------------------------------------ positives

def test_block_store_bytes_reaching_catalog_import_are_flagged():
    findings = rules({"src/repro/core/fixture.py": """
        class Importer:
            def rebuild(self, sn):
                payload = self.blocks.get(sn)
                self.catalog.index_record(sn, payload)
    """})
    assert [f.rule for f in findings] == ["W007"]
    assert "index_record" in findings[0].message


def test_taint_flows_through_a_helper_function():
    # The read, the (missing) verify, and the sink span two functions —
    # the per-file rules are blind to exactly this.
    findings = rules({"src/repro/core/fixture.py": """
        class Importer:
            def _fetch(self, sn):
                return self.blocks.get(sn)

            def rebuild(self, sn):
                payload = self._fetch(sn)
                self.catalog.index_record(sn, payload)
    """})
    assert [f.rule for f in findings] == ["W007"]


def test_taint_flows_across_modules():
    findings = rules({
        "src/repro/storage/reader.py": """
            def fetch_raw(blocks, sn):
                return blocks.get(sn)
        """,
        "src/repro/core/fixture.py": """
            from repro.storage.reader import fetch_raw

            class Importer:
                def rebuild(self, sn):
                    payload = fetch_raw(self.blocks, sn)
                    self.catalog.index_record(sn, payload)
        """,
    })
    assert [(f.path, f.rule) for f in findings] == [
        ("src/repro/core/fixture.py", "W007")]


def test_seeded_verify_skip_on_one_path_is_caught():
    # The acceptance-criterion bug: the sanitizer call was removed on
    # ONE branch.  Union-merge at the join means the value is tainted
    # when it reaches the sink.
    findings = rules({"src/repro/core/fixture.py": """
        class Importer:
            def rebuild(self, sn, fast_path):
                payload = self.blocks.get(sn)
                if fast_path:
                    pass   # verify call was deleted here
                else:
                    self.client.verify_read(payload, sn)
                self.catalog.index_record(sn, payload)
    """})
    assert [f.rule for f in findings] == ["W007"]


def test_replica_payload_replayed_without_vrd_check_is_flagged():
    findings = rules({"src/repro/recovery/fixture.py": """
        class Replayer:
            def replay(self, shard_id):
                image = self.replica.materialize_shard(shard_id)
                for entry in image:
                    self.store.import_records([(entry.attr, entry.payload)])
    """})
    assert [f.rule for f in findings] == ["W007"]


def test_tainted_return_from_client_surface_is_flagged():
    findings = rules({"src/repro/core/fixture.py": """
        class WormClient:
            def read_record(self, sn):
                raw = self.blocks.get(sn)
                return raw
    """})
    assert [f.rule for f in findings] == ["W007"]
    assert "WormClient.read_record" in findings[0].message


def test_retry_wrapped_block_store_read_is_a_source():
    findings = rules({"src/repro/core/fixture.py": """
        class Importer:
            def rebuild(self, sn):
                raw = self.retry.call("block_store.get", self.blocks.get, sn)
                self.catalog.index_record(sn, raw)
    """})
    assert [f.rule for f in findings] == ["W007"]


# ------------------------------------------------------------------ negatives

def test_verified_on_every_path_is_clean():
    findings = rules({"src/repro/core/fixture.py": """
        class Importer:
            def rebuild(self, sn, fast_path):
                payload = self.blocks.get(sn)
                if fast_path:
                    self.client.verify_read(payload, sn)
                else:
                    self.client.verify_read(payload, sn)
                self.catalog.index_record(sn, payload)
    """})
    assert findings == []


def test_sanitizer_before_sink_is_clean():
    findings = rules({"src/repro/core/fixture.py": """
        class Importer:
            def rebuild(self, sn):
                payload = self.blocks.get(sn)
                vrd = self.client.verify_read(payload, sn)
                self.catalog.index_record(sn, payload)
    """})
    assert findings == []


def test_sanitizer_result_is_clean_at_the_sink():
    findings = rules({"src/repro/core/fixture.py": """
        class Importer:
            def rebuild(self, sn):
                verified = self.client.verify_read(self.blocks.get(sn), sn)
                self.catalog.index_record(sn, verified)
    """})
    assert findings == []


def test_parameters_are_not_treated_as_tainted():
    # Run-A semantics: W007 asks whether untrusted *reads* reach sinks,
    # not whether arbitrary arguments do — otherwise every verify_read
    # returning its own argument's fields would flag.
    findings = rules({"src/repro/core/fixture.py": """
        class WormClient:
            def verify_read(self, result, requested_sn):
                self._check_envelope(result)
                return result
    """})
    assert findings == []


def test_untainted_import_is_clean():
    findings = rules({"src/repro/core/fixture.py": """
        class Importer:
            def rebuild(self, sn):
                payload = self.journal[sn]
                self.catalog.index_record(sn, payload)
    """})
    assert findings == []


def test_suppression_comment_silences_w007():
    findings = rules({"src/repro/core/fixture.py": """
        class Importer:
            def rebuild(self, sn):
                payload = self.blocks.get(sn)
                self.catalog.index_record(sn, payload)  # wormlint: disable=W007
    """})
    assert findings == []
