"""The byte-identical set (ROADMAP's re-baselining rule) matches the
committed manifest: every CLI artifact and every demo's stdout, bit for bit.

A change that re-baselines on purpose rewrites the manifest with
`PYTHONPATH=src python tests/golden_manifest.py` and names each changed entry.
"""
from golden_manifest import (
    describe_change,
    fresh_texts,
    load_manifest,
    load_reference,
    sha256,
    versions,
)


def test_reference_texts_are_the_manifests():
    manifest = load_manifest()
    assert {name: sha256(text) for name, text in load_reference().items()} \
        == manifest["sha256"]


def _assert_matches_manifest(texts):
    manifest = load_manifest()
    assert sorted(texts) == sorted(manifest["sha256"])
    reference = load_reference()
    changed = [describe_change(name, reference[name], text)
               for name, text in texts.items() if sha256(text) != manifest["sha256"][name]]
    made_with = {key: manifest[key] for key in versions()}
    assert not changed, (f"manifest made with {made_with}, this run has {versions()}:\n"
                         + "\n".join(changed))


def test_byte_identical_set_matches_the_manifest(tmp_path):
    _assert_matches_manifest(fresh_texts(tmp_path))


def test_byte_identical_set_is_the_same_at_two_openblas_threads(tmp_path):
    _assert_matches_manifest(fresh_texts(tmp_path, threads=2))
