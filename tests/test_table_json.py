"""The table reader of `.json` inputs against the standard library's
`json.loads`: plain decimal integer arrays are read straight into int64
arrays, and every other document decodes, or fails, as under `json.loads`."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trusskit.cli
from trusskit import FiniteHeap, heap_from_group, make_group, make_ring_zn, module_zn, ring_as_truss
from trusskit.cli import _TableDecoder, main
from trusskit.errors import json_ints


def _as_lists(value):
    """`value` with every int64 array turned back into a list of ints."""
    if isinstance(value, np.ndarray):
        assert value.dtype == np.int64 and value.ndim == 1
        return value.tolist()
    if isinstance(value, list):
        return [_as_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    return value


def _outcome(decode, text: str):
    try:
        return "value", decode(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def _same_as_loads(text: str) -> None:
    ours = _outcome(lambda s: _as_lists(json.loads(s, cls=_TableDecoder)), text)
    assert ours == _outcome(json.loads, text), text[:80]


_MARK = '"@@"'  # stands for the array under test in the dumped document


def _docs():
    """(flag, document text with the value at `path` replaced by `_MARK`,
    that value's entries) for a heap, a truss and a module file; an integer
    field stands for the one-entry array of its value."""
    heap = heap_from_group(make_group([2])).to_json_dict()
    truss = ring_as_truss(make_ring_zn(2)).to_json_dict()
    module = module_zn(3).to_json_dict()
    cases = [("--heap", heap, ("ternary",)), ("--heap", heap, ("size",))]
    cases += [("--truss", truss, ("mult",)), ("--truss", truss, ("unit",))]
    cases += [("--module", module, path) for path in (("ring", "orders"), ("ring", "one"), ("module", "orders"), ("module", "action"))]
    for flag, doc, path in cases:
        doc = json.loads(json.dumps(doc))
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        entries, holder[path[-1]] = holder[path[-1]], "@@"
        yield flag, json.dumps(doc), entries if isinstance(entries, list) else [entries], "/".join(path)


_DOCS = list(_docs())
_DEEP = 100_000


def _bodies(entries: list[int]) -> list[str]:
    """Array texts around `entries`: well formed, with odd whitespace, with
    one entry edited, and broken in each way the plain reader must refuse."""
    ints = [str(v) for v in entries]

    def edited(token: str) -> str:
        return "[" + ", ".join([token] + ints[1:]) + "]"

    bodies = ["[" + ", ".join(ints) + "]", "[]", "[ ]", "[\t" + ",\r\n".join(ints) + " \n]", "[" + ",".join(ints) + "]"]
    for token in ("01", "-0", "-1", "1.0", "1e2", "true", "null", '"1"', "١", "1١",
                  "123456789012345678", "1234567890123456789", "9999999999999999999", "99999999999999999999",
                  "[0]", "[[0]]"):
        bodies.append(edited(token))
    bodies += [
        "[" + ", ".join(ints) + ",]",
        "[," + ", ".join(ints) + "]",
        "[" + ints[0] + ",," + ", ".join(ints[1:]) + "]",
        "[" + ints[0] + " " + ", ".join(ints[1:]) + "]",
        "[" + ", ".join(ints),
        "[1,]", "[,1]", "[1,,2]", "[1 2]", "[,1 2]", "[1 2,]", "[[0]]", '"1"', "true", "null", "1",
        "[" * _DEEP + "]" * _DEEP,
        '{"a": ' * 600 + "[0]" + "}" * 600,
    ]
    return bodies


def _run(capsys, flag: str, path: str) -> tuple[int, str, str]:
    code = main(["validate", flag, path, "--json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("flag,text,entries,where", _DOCS, ids=[f"{d[0][2:]}-{d[3]}" for d in _DOCS])
def test_cli_reads_every_body_as_the_standard_decoder_does(flag, text, entries, where, tmp_path, capsys, monkeypatch):
    # exit code, report and `error:` line are those of the json.loads path,
    # run here by handing `_load_json` the standard decoder
    file = tmp_path / "doc.json"
    for body in _bodies(entries):
        file.write_text(text.replace(_MARK, body))
        ours = _run(capsys, flag, str(file))
        with monkeypatch.context() as m:
            m.setattr(trusskit.cli, "_TableDecoder", json.JSONDecoder)
            assert _run(capsys, flag, str(file)) == ours, body[:80]
        assert ours[0] != 2 or (ours[1] == "" and ours[2].startswith("error: ") and ours[2].count("\n") == 1)


def test_plain_arrays_become_int64_arrays_and_others_stay_lists():
    # 19 digits are one too many for a plain int, even below 2^63
    doc = json.loads(
        '{"a": [0, 7, 123456789012345678, 42], "b": [\t]\n, "c": [-1, 2], "d": [1.0], "e": [[0]], "f": [0, 1], '
        '"g": [1234567890123456789], "h": [9999999999999999999, 5]}',
        cls=_TableDecoder,
    )
    assert {k: type(v).__name__ for k, v in doc.items()} == {
        "a": "ndarray", "b": "ndarray", "c": "list", "d": "list", "e": "list", "f": "ndarray", "g": "list", "h": "list",
    }
    assert doc["a"].tolist() == [0, 7, 123456789012345678, 42] and doc["b"].size == 0
    assert doc["g"] == [1234567890123456789] and doc["h"] == [9999999999999999999, 5]


def test_a_long_array_is_read_across_blocks():
    # the body is checked a block at a time, cut after commas; a number,
    # run of whitespace or fault can sit anywhere, the cuts included
    size = 3 * trusskit.cli._BLOCK
    entries = [(i * 7919) % 100003 for i in range(size // 4)]
    text = "[" + ", ".join(map(str, entries)) + "]"
    assert np.array_equal(json.loads(text, cls=_TableDecoder), entries)
    spaced = "[" + (" " * size) + "5" + (" " * size) + ", 6]"
    assert json.loads(spaced, cls=_TableDecoder).tolist() == [5, 6]
    _same_as_loads("[1," + (" " * size) + ", 2]")  # a block of whitespace alone between commas
    for fault in (",,", ", -1,", ", 01,", ", 1.0,", ",]"):
        for at in (1, trusskit.cli._BLOCK // 2, len(text) // 2, len(text) - 2):
            cut = text.rfind(",", 0, at)
            if cut > 0:
                _same_as_loads(text[:cut] + fault + text[cut + 1 :])


def _innermost(value):
    """The value under the nested `{"a": ...}` objects or `[...]` arrays
    that `value` opens with, reached without recursion."""
    kind = type(value)
    while type(value) is kind and value:
        value = value["a"] if kind is dict else value[0]
    return value


def test_deep_nesting_is_the_standard_decoders():
    # objects nested beyond the Python parse's reach are decoded by the C
    # decoder alone, as json.loads does, to the same value or error
    for depth in (400, 900, 5000):
        for text in ('{"a": ' * depth + "[0]" + "}" * depth, "[" * depth + "]" * depth):
            ours, ref = (_outcome(decode, text) for decode in (lambda s: json.loads(s, cls=_TableDecoder), json.loads))
            assert ours[0] == ref[0]
            if ref[0] == "value":
                assert _as_lists(_innermost(ours[1])) == _innermost(ref[1])
            else:
                assert ours == ref


def test_json_ints_takes_an_array_or_a_list():
    array = json.loads("[3, 4]", cls=_TableDecoder)
    assert json_ints(array, "x") is array
    assert json_ints([3, 4], "x").dtype == np.int64 and json_ints([], "x").size == 0
    wide = json_ints([2**70, 1], "x")  # kept exact for the caller's range check
    assert wide.tolist() == [2**70, 1]
    for bad in ([True], [1.0], "1", [[1]], np.array([1.0])):
        with pytest.raises(ValueError, match="x must be a list of integers"):
            json_ints(bad, "x")


def test_a_decoded_table_is_kept_and_a_writable_one_copied(tmp_path):
    # the read-only int64 arrays `_load_json` decodes and `json_ints` reads
    # from a list become the table as they are; a writable array is copied
    # and stays writable
    heap = heap_from_group(make_group([3]))
    file = tmp_path / "heap.json"
    file.write_text(json.dumps(heap.to_json_dict()))
    doc = trusskit.cli._load_json(str(file))
    assert not doc["ternary"].flags.writeable
    assert np.shares_memory(FiniteHeap.from_json_dict(doc).ternary_table, doc["ternary"])
    listed = json_ints(heap.ternary_table.ravel().tolist(), "x")
    assert not listed.flags.writeable and np.shares_memory(FiniteHeap(3, listed).ternary_table, listed)
    writable = heap.ternary_table.copy()
    copied = FiniteHeap(3, writable)
    assert writable.flags.writeable and not np.shares_memory(copied.ternary_table, writable)
    assert not copied.ternary_table.flags.writeable and copied == heap


_TOKENS = ["[", "]", "{", "}", ",", ":", " ", "\t", "\n", "\r", "0", "1", "7", "00", "12", "-", ".", "e",
           '"a"', '"', "true", "null", "١", "18446744073709551616", "999999999999999999"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30))
def test_token_soup_decodes_as_json_loads(tokens):
    _same_as_loads("".join(tokens))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.integers(0, 10**18 - 1)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON, st.sampled_from([(", ", ": "), (",", ":"), (" ,\n", " :\t")]), st.booleans())
def test_documents_decode_as_json_loads(value, separators, indent):
    _same_as_loads(json.dumps(value, separators=separators, indent=1 if indent else None))
