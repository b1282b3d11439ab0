"""The canonical JSON writer against the standard library.

Every instance file, allocation file and report is written by
``fileio._canonical_json``, which must give exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reservematch as rm
from reservematch.cli import main
from reservematch.fileio import _canonical_json


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)


# JSON's own punctuation, escapes, non-ASCII text, the line separator and
# control characters: nothing inside a string may pass for structure.
ALPHABET = list('{}[],:"\\\n') + [
    "a", " ", "\u00e9", "\u2603", "\U0001f600", "\u2028", "\x00", "\x1f", "\t",
]
text = st.text(alphabet=ALPHABET, max_size=6)
floats = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
scalars = st.none() | st.booleans() | st.integers() | floats | text
flat_rows = st.dictionaries(text, scalars, min_size=1, max_size=3)
# lists of flat rows, with an empty row now and then; dicts of flat lists
row_lists = st.lists(flat_rows | st.just({}), min_size=1, max_size=4)
list_dicts = st.dictionaries(text, st.lists(scalars, max_size=3), max_size=3)
trees = st.recursive(
    scalars | row_lists | list_dicts | st.just([[]]) | st.just({"": {}}),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(text, children, max_size=4)
    ),
    max_leaves=8,
)


def test_the_writer_is_the_stdlib_on_random_trees(monkeypatch):
    # each tree is written twice: by the C encoder and, with the C encoder
    # gone, by the fallback
    @settings(max_examples=2000, deadline=None, database=None)
    @given(trees)
    def agrees(doc):
        expected = stdlib(doc)
        assert _canonical_json(doc) == expected
        with monkeypatch.context() as patch:
            patch.setattr(json.encoder, "c_make_encoder", None)
            assert _canonical_json(doc) == expected

    agrees()


@pytest.mark.parametrize("doc", [{1: "a", 2: [1]}, {"a": [{"b": 1}, {2: 3}]}, [{None: 0.5}]])
def test_non_str_keys_go_to_the_stdlib(doc):
    assert _canonical_json(doc) == stdlib(doc)


def test_what_the_stdlib_refuses_the_writer_refuses_alike():
    cyclic: list = []
    cyclic.append(cyclic)
    for doc in ({"a": {1, 2}}, [{"a": 1}, {"b": object()}], cyclic):
        with pytest.raises(Exception) as expected:
            stdlib(doc)
        with pytest.raises(type(expected.value)):
            _canonical_json(doc)


def test_generated_market_files_and_transcript_are_the_stdlibs_bytes(capsys, tmp_path):
    params = rm.GeneratorParams(students=200, schools=10, types=3, seed=1)
    instance = rm.generate_random_instance(params)
    path = tmp_path / "market.instance"
    rm.save_instance(instance, path)
    document = rm.fileio.instance_to_document(instance)
    assert path.read_text(encoding="utf-8") == stdlib(document) + "\n"

    allocation_path = tmp_path / "market.allocation"
    code = main(
        ["match", str(path), "--transcript", "--format", "machine",
         "--save-allocation", str(allocation_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert len(report["transcript"]) > 200
    assert out == stdlib(report) + "\n"
    saved = allocation_path.read_text(encoding="utf-8")
    assert saved == stdlib(json.loads(saved)) + "\n"
