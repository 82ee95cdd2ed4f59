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
    ("qi", "6dbc44422199ce08070c2a1707c35dcd0232229f9165cb0b3ade6231321daa31"),
    ("generator", "dac32bc7fa3b232c9e64fbe5fa81701fec86bbae534b05b3a325bc52b3377dad"),
    ("poincare", "8fdf0e1d13c440ec94ee8c24d1523ff189140cbc7725f35bb8cd4e34e2240efc"),
    ("semigroup", "24950c3daf13d7fa277e6cb89f5376c2391c224966018268a88c6dd4a03df7bb"),
    ("smalltime", "89ae6372a8e644d3fe6f3ae66fcbb230d78e8bb3c377f45c6c2d1c92ba0bb62b"),
    ("lsi", "23586f365eabbd1fcb4a0a293e3126be6a22899e1c2e168daf0d4efe0d35414e"),
    ("coupling", "ef928aa553cb89cff0ccbc02d7aa95378a5ff46f8e9d397c4b5b20853472dded"),
    ("sample", "15945258c024f80f1a2186b77c50fcbe9732029112d2ce2d45192cc3691f69be"),
])
def test_report_digest_pinned(suite, digest):
    cfg = default_config(samples=20000,
                         params={"generator": {"rank_samples": 20000}})
    report = run_suite(suite, cfg)
    assert report.overall_pass
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


# qi falls back to its continuous corpus here and coupling reads the
# Lipschitz corpus, so these pins cover the functionals the lattice ones miss
@pytest.mark.parametrize("suite, digest", [
    ("qi", "fe8dc0eba4dcdfca291270fc0302cce6ca860436d7d72e0543e3bac84cccbbe4"),
    ("coupling", "fb98e5d8ae067f95125da6c8158874e2e172e7f66c85827b79cca97a7bbdba24"),
])
def test_continuous_report_digest_pinned(suite, digest):
    cfg = default_config(measure={"builtin": "gauss_shifted(0.5,1)"},
                         samples=20000)
    report = run_suite(suite, cfg)
    assert report.overall_pass
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


# the exact_lattice benchmark config: 3 atoms, T=2, a 4-time corpus
EXACT_LATTICE = {
    "measure": {"type": "discrete", "dimension": 1,
                "atoms": [[[-1.0], 0.3], [[1.0], 0.5], [[2.0], 0.2]]},
    "T": 2.0, "samples": 2000, "seed": 20260809,
    "params": {suite: {"corpus": [
        {"family": "product_indicator", "times": [0.5, 1.0, 1.5, 2.0],
         "values": [0.0, 0.0, 0.0, 0.0]},
        {"family": "product_indicator", "times": [2.0 / 3.0, 4.0 / 3.0, 2.0],
         "values": [1.0, 0.0, 1.0]},
        {"family": "coordinate", "time": 2.0, "lo": -3.0, "hi": 3.0},
        {"family": "indicator_at", "time": 1.0, "value": 1.0},
    ]} for suite in ("poincare", "qi")},
}


@pytest.mark.parametrize("suite, digest", [
    ("poincare", "ccae2d90313b8c9289734fa99e4a198ef37f564ddd4f1134bdec1afbde3515a9"),
    ("qi", "bf79e187fca3dffa7f9d2ffdbe557931a758d812fa4ede74346fb7d367daf744"),
])
def test_exact_report_digest_pinned(suite, digest):
    report = run_suite(suite, pf.config_from_dict(EXACT_LATTICE))
    assert report.overall_pass
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
