"""Golden-stream guard: pinned digests of sampled batches and reports.

The sampler's output is a pure function of (inputs, stream state), and the
Monte Carlo reports are pure functions of the config.  These pins catch any
change to either, including ones that keep every statistical band passing.
A change that moves the stream on purpose (a new draw order, a different
sort) updates the pins here and says so in CHANGES.md; a pure speed-up must
leave them alone.  A different numpy version may also move them.
"""

import hashlib

import numpy as np
import pytest

import pathform as pf
from pathform import StreamConfig
from pathform.harness import default_config, run_suite
from pathform.sampler import sample_path_batch


def _batch_sha256(batch) -> str:
    h = hashlib.sha256()
    for arr in (batch.counts, batch.times, batch.marks, batch.path_ids):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_lattice_batch_stream_pinned():
    batch = sample_path_batch(pf.uniform_pm1(), 1.0,
                              StreamConfig(seed=20260809).rng(), 65536)
    assert _batch_sha256(batch) == (
        "fa649869ef8a47be21b562cae0c6ba01e3eab7a63e80d60917ec42321653987d")


def test_continuous_batch_stream_pinned():
    batch = sample_path_batch(pf.gauss_shifted(0.5, 1.0), 4.0,
                              StreamConfig(seed=8101).rng(), 20000)
    assert _batch_sha256(batch) == (
        "8ac906771ce2267b508522e3f0e4ce01f99362d1fb8ddd8384085623037ca090")


@pytest.mark.parametrize("suite, digest", [
    ("qi", "560490929e8ed66b8a47750b8649b7a3e7b9ca4878cba27d6b78758e06a51e12"),
    ("generator", "2ee624ca502205278069326c7eb4e83c40019c69a2e07a49e3d8ceda04ce5944"),
])
def test_report_digest_pinned(suite, digest):
    cfg = default_config(samples=20000,
                         params={"generator": {"rank_samples": 20000}})
    report = run_suite(suite, cfg)
    assert report.overall_pass
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
