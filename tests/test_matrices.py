import contextlib
import decimal
import gc
import importlib.machinery
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import orjson
import pytest

from spectra_perturb import (
    as_matrix,
    as_spectrum,
    frobenius_norm,
    is_hermitian,
    is_normal,
    load_matrix,
    matrices,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
    strict_lower,
    strict_upper,
)
from spectra_perturb.matrices import _commutator_defects, _compiled_module, _too_deep_for_orjson

from conftest import haar_rotated_diagonal, random_complex
from oracles import naive_frobenius


def test_as_matrix_accepts_lists_and_arrays():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m.dtype == np.complex128


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[float("nan"), 0], [0, 1]])


def test_as_spectrum():
    s = as_spectrum([1, 2j, 3])
    assert s.shape == (3,)
    assert s[1] == 2j
    # nested sequences flatten
    assert as_spectrum([[1, 2]]).shape == (2,)
    with pytest.raises(ValueError):
        as_spectrum([])
    with pytest.raises(ValueError):
        as_spectrum([1, math.nan])


def test_frobenius_norm_against_naive(rng):
    for _ in range(10):
        m = random_complex(rng, (5, 5))
        assert abs(frobenius_norm(m) - naive_frobenius(m)) < 1e-12 * (1 + naive_frobenius(m))


def test_frobenius_norm_known_value():
    assert frobenius_norm([[3, 0], [0, 4]]) == 5.0


def test_triangular_parts_partition(rng):
    m = random_complex(rng, (6, 6))
    recombined = strict_lower(m) + np.diag(np.diag(m)) + strict_upper(m)
    assert np.array_equal(recombined, as_matrix(m))
    assert np.all(strict_lower(m)[np.triu_indices(6)] == 0)
    assert np.all(strict_upper(m)[np.tril_indices(6)] == 0)


def test_commutator_defect_zero_for_normal(rng):
    a = haar_rotated_diagonal(rng, 5)
    assert _commutator_defects(a[None])[0] <= 1e-12 * max(1.0, frobenius_norm(a) ** 2)


def test_commutator_defect_positive_for_jordan_block():
    m = np.array([[[0, 1], [0, 0]]], dtype=complex)
    # [M, M*] = diag(1, -1)
    assert abs(_commutator_defects(m)[0] - math.sqrt(2)) < 1e-15


def test_is_normal_and_is_hermitian(rng):
    d = np.diag([1.0 + 1.0j, 2.0, -3.0j])
    assert is_normal(d)
    assert not is_hermitian(d)
    h = random_complex(rng, (4, 4))
    h = (h + h.conj().T) / 2
    assert is_hermitian(h)
    assert is_normal(h)
    assert not is_normal([[0, 1], [0, 0]])


def test_is_normal_scales_with_magnitude(rng):
    # the tolerance must follow the squared norm, or large matrices fail
    a = 1e6 * haar_rotated_diagonal(rng, 4)
    assert is_normal(a)


def test_compiled_module_without_extension_file_is_the_public_module():
    import scipy.linalg.lapack

    assert _compiled_module("scipy.linalg._no_such_extension", "scipy.linalg.lapack") is scipy.linalg.lapack
    assert "scipy.linalg._no_such_extension" not in sys.modules


@pytest.mark.parametrize("step", ["create_module", "exec_module"])
def test_compiled_module_that_fails_to_load_is_the_public_module(step, monkeypatch):
    import scipy.optimize

    def refuse(self, arg):
        raise ImportError("refused")

    # the extension file is there, but loading it fails
    monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, step, refuse)
    assert _compiled_module("scipy.optimize._lsap", "scipy.optimize") is scipy.optimize
    assert "scipy.optimize._lsap" not in sys.modules


def test_matrix_json_round_trip(rng):
    m = random_complex(rng, (3, 3))
    again = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(again, as_matrix(m))


def test_matrix_json_layout():
    j = matrix_to_json([[1, 2j], [3, 4]])
    assert j["n"] == 2
    # row-major [re, im] pairs
    assert j["entries"] == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]


def test_matrix_from_json_validation():
    with pytest.raises(ValueError):
        matrix_from_json({"entries": [[0, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "entries": [[0, 0]] * 3})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 1, "entries": [[0, 0, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 1, "entries": [[True, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 1, "entries": [[math.inf, 0]]})


def _entries_16x16(rng):
    m = random_complex(rng, (16, 16))
    return [[float(z.real), float(z.imag)] for z in m.ravel()]


def test_matrix_from_json_decodes_bit_identically(rng):
    m = random_complex(rng, (64, 64))
    entries = json.loads(json.dumps([[float(z.real), float(z.imag)] for z in m.ravel()]))
    entries[3] = [7, -2]  # integer entries convert like float(x)
    entries[5] = [2**60 + 1, 0]
    entries[9] = [-0.0, 5e-324]
    reference = np.array(
        [complex(float(re), float(im)) for re, im in entries], dtype=np.complex128
    ).reshape(64, 64)
    decoded = matrix_from_json({"n": 64, "entries": entries})
    assert decoded.dtype == np.complex128 and decoded.shape == (64, 64)
    assert np.array_equal(decoded.view(np.float64), reference.view(np.float64))


def test_matrix_from_json_accepts_tuples_numpy_floats_and_ints():
    obj = {"n": 2, "entries": [(1, 2.5), [np.float64(-3.0), 4], (5.5, np.float64(6)), [7, 8]]}
    assert np.array_equal(
        matrix_from_json(obj), np.array([[1 + 2.5j, -3 + 4j], [5.5 + 6j, 7 + 8j]])
    )


@pytest.mark.parametrize(
    "bad",
    [[True, 0], ["1.0", 0], [None, 0], [np.int64(1), 0], [1, 2, 3], {"re": 1}],
    ids=["bool", "string", "null", "int64", "triple", "object"],
)
def test_matrix_from_json_names_malformed_entry(rng, bad):
    entries = _entries_16x16(rng)
    entries[37] = bad
    with pytest.raises(ValueError, match=r"^entry 37 is not a \[re, im\] pair of numbers$"):
        matrix_from_json({"n": 16, "entries": entries})


@pytest.mark.parametrize(
    "bad",
    [[math.nan, 0], [0, math.inf], [-math.inf, 1], [10**400, 0], [0, -(10**400)]],
    ids=["nan", "inf", "-inf", "huge-int", "-huge-int"],
)
def test_matrix_from_json_names_non_finite_entry(rng, bad):
    entries = _entries_16x16(rng)
    entries[37] = bad
    with pytest.raises(ValueError, match=r"^entry 37 is not finite$"):
        matrix_from_json({"n": 16, "entries": entries})


def test_matrix_from_json_names_first_bad_entry_in_order(rng):
    entries = _entries_16x16(rng)
    entries[5] = [math.nan, 0]
    entries[37] = [True, 0]
    with pytest.raises(ValueError, match=r"^entry 5 is not finite$"):
        matrix_from_json({"n": 16, "entries": entries})
    entries[5], entries[37] = entries[37], entries[5]
    with pytest.raises(ValueError, match=r"^entry 5 is not a \[re, im\] pair"):
        matrix_from_json({"n": 16, "entries": entries})


def test_load_matrix_rejects_integer_beyond_float_range(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1, "entries": [[1' + "0" * 400 + ', 0]]}')
    with pytest.raises(ValueError, match="entry 0 is not finite"):
        load_matrix(path)


def test_matrix_to_json_text_matches_per_entry_encoding(rng):
    m = random_complex(rng, (4, 4))
    m[0, 0] = complex(-0.0, 0.0)
    m[0, 1] = complex(5e-324, -0.0)
    m[1, 2] = complex(1e308, -1e308)
    m[2, 3] = complex(3.0, -7.0)
    m[3, 3] = 0
    for a in (m, m.T, [[1, 2j], [3, 4]]):  # C- and Fortran-ordered, and a list
        am = as_matrix(a)
        old = {"n": am.shape[0], "entries": [[float(z.real), float(z.imag)] for z in am.ravel()]}
        assert json.dumps(matrix_to_json(a)) == json.dumps(old)


def test_save_and_load_matrix(tmp_path, rng):
    m = random_complex(rng, (4, 4))
    path = tmp_path / "m.json"
    save_matrix(path, m)
    data = json.loads(path.read_text())
    assert data["n"] == 4
    assert np.array_equal(load_matrix(path), as_matrix(m))


def test_load_matrix_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: not valid JSON")):
        load_matrix(path)
    bad = tmp_path / "bad_entry.json"
    bad.write_text(_text_with_bad_entry_37())
    with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: entry 37 ")):
        load_matrix(bad)


def _text_with_bad_entry_37() -> str:
    entries = [[float(k), -float(k)] for k in range(64)]
    entries[37] = [1.0, "2"]
    return json.dumps({"n": 8, "entries": entries})


def _special_256(rng):
    """An n = 256 matrix with the float edge cases the JSON decoder must keep."""
    m = random_complex(rng, (256, 256))
    m.flat[1] = complex(-0.0, 5e-324)
    m.flat[2] = complex(1e308, -1e308)
    m.flat[3] = complex(-5e-324, -0.0)
    m.flat[4] = complex(7, -2)  # written below as the integers [7, -2]
    return m


@pytest.mark.parametrize("layout", ["save_matrix", "json.dumps"])
def test_load_matrix_round_trips_bit_for_bit_at_n_256(tmp_path, rng, layout):
    m = _special_256(rng)
    path = tmp_path / "m.json"
    if layout == "save_matrix":  # one trailing newline
        save_matrix(path, m)
    else:  # the benchmark's writer: no newline
        path.write_text(json.dumps(matrix_to_json(m)))
    text = path.read_text()
    assert text.endswith("\n") == (layout == "save_matrix")
    assert text.count("[7.0, -2.0]") == 1
    path.write_text(text.replace("[7.0, -2.0]", "[7, -2]"))
    loaded = load_matrix(path)
    assert loaded.dtype == np.complex128 and loaded.shape == (256, 256)
    assert np.array_equal(loaded.view(np.float64), m.view(np.float64))


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    """The collector in the state the test is for, restored afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"n": 1, "entries": [[1, 0]]}', None),
        ('{"n": 1, "entries": [[1, 0]', ValueError),
        (_text_with_bad_entry_37(), ValueError),
        (None, OSError),
    ],
    ids=["good", "not-json", "bad-entry", "missing"],
)
def test_load_matrix_leaves_the_collector_as_it_found_it(tmp_path, gc_state, text, error):
    path = tmp_path / "m.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(error) if error else contextlib.nullcontext():
        load_matrix(path)
    assert gc.isenabled() is gc_state


class _Decoded(dict):
    """A decoded object that records, when it is freed, whether the collector ran."""

    def __init__(self, obj, calls):
        super().__init__(obj)
        self.calls = calls

    def __del__(self):
        self.calls.append(("freed", gc.isenabled()))


def test_load_matrix_decodes_with_the_collector_paused(tmp_path, monkeypatch, gc_state):
    # the decode, the validation and the release of the decoded object
    calls = []
    for module, name in [(orjson, "loads"), (json, "loads"), (matrices, "matrix_from_json")]:
        original = getattr(module, name)

        def watched(arg, _original=original, _name=f"{module.__name__}.{name}"):
            calls.append((_name, gc.isenabled()))
            result = _original(arg)
            return result if _original is matrix_from_json else _Decoded(result, calls)

        monkeypatch.setattr(module, name, watched)
    path = tmp_path / "m.json"
    for text, steps in [
        ('{"n": 1, "entries": [[1, 2]]}', ["orjson.loads"]),
        ('{"n": 1, "entries": [[1, 2]], "note": NaN}', ["orjson.loads", "json.loads"]),  # orjson refuses NaN
    ]:
        calls.clear()
        path.write_text(text)
        assert np.array_equal(load_matrix(path), [[1 + 2j]])
        steps = [*steps, "spectra_perturb.matrices.matrix_from_json", "freed"]
        assert calls == [(step, False) for step in steps]
        assert gc.isenabled() is gc_state


def test_load_matrix_sets_off_no_collection(tmp_path, rng):
    # 16,384 entry lists, far past the threshold of a young collection
    m = random_complex(rng, (128, 128))
    path = tmp_path / "m.json"
    save_matrix(path, m)
    collections = []

    def watch(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()  # so that no collection is due before the file is decoded
    gc.callbacks.append(watch)
    try:
        loaded = load_matrix(path)
    finally:
        gc.callbacks.remove(watch)
        (gc.enable if was_enabled else gc.disable)()
    assert collections == []
    assert np.array_equal(loaded, m)


# The stdlib reference of load_matrix: the text a text-mode read gives,
# decoded by json, with load_matrix's error prefixes.  load_matrix decodes
# with orjson and must give the same array, bit for bit, or the same message.
def _stdlib_load(path):
    try:
        return matrix_from_json(json.loads(path.read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        return f"{path}: not valid JSON ({exc})"
    except ValueError as exc:
        return f"{path}: {exc}"


def _load(path):
    try:
        return load_matrix(path)
    except ValueError as exc:
        return str(exc)


def _assert_same_load(path):
    got, want = _load(path), _stdlib_load(path)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    return got


def _random_doubles(count: int) -> list:
    """Finite float64 values of uniformly random bit patterns (every
    exponent, subnormals included), after the edge values."""
    x = np.random.default_rng(26).integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308, 1e308, -1e308]
    return edges + [float(v) for v in x[np.isfinite(x)]]


def _midpoint(v: float) -> str:
    """The exact decimal halfway between |v| and the next double up: a
    correctly rounding decoder must round it to even."""
    v = abs(v)
    return format((decimal.Decimal(v) + decimal.Decimal(math.nextafter(v, math.inf))) / 2, "e")


def _large_integers(count: int) -> list:
    """Integers from 2^64 to just below where they round to infinity,
    random and exactly halfway between two doubles."""
    r = random.Random(26)
    found = [2**64, 2**64 + 2**11, 2**64 + 3 * 2**11, 2**1024 - 2**970 - 1]
    while len(found) < count:
        e = r.randrange(64, 1023)
        found.append(r.getrandbits(e) | 1 << e)
        found.append(-(((r.getrandbits(52) | 1 << 52) * 2 + 1) << (e - 53)))
    return [str(x) for x in found]


_NUMBER_TEXTS = {
    "repr": lambda: [repr(v) for v in _random_doubles(32768)],
    "%.17g": lambda: ["%.17g" % v for v in _random_doubles(32768)],
    "%.25e": lambda: ["%.25e" % v for v in _random_doubles(32768)],
    "%.40g": lambda: ["%.40g" % v for v in _random_doubles(32768)],
    "midpoints": lambda: [_midpoint(v) for v in _random_doubles(4096) if math.nextafter(abs(v), math.inf) < math.inf],
    "integers-above-2^64": lambda: _large_integers(16384),
}


@pytest.mark.parametrize("kind", _NUMBER_TEXTS)
def test_load_matrix_decodes_every_number_as_the_stdlib(tmp_path, kind):
    with decimal.localcontext(decimal.Context(prec=1200)):
        texts = _NUMBER_TEXTS[kind]()
    n = math.isqrt(len(texts) // 2)
    entries = ", ".join(f"[{texts[2 * k]}, {texts[2 * k + 1]}]" for k in range(n * n))
    path = tmp_path / "m.json"
    path.write_text(f'{{"n": {n}, "entries": [{entries}]}}')
    assert _assert_same_load(path).shape == (n, n)


# Text that orjson refuses and the stdlib decodes or judges, and a
# duplicate key, which both decoders resolve to the last value: each
# gives the array or the exact message it gave when the stdlib was the
# one decoder.
_ONE = b'"n": 1, "entries": [[1, 2]]'


@pytest.mark.parametrize(
    "data, expected",
    [
        (b'{"n": 1, "entries": [[NaN, 0]]}', "entry 0 is not finite"),
        (b"{" + _ONE + b', "note": NaN}', [[1 + 2j]]),
        (b'{"n": 1, "entries": [[0, Infinity]]}', "entry 0 is not finite"),
        (b'{"n": 1, "entries": [[-Infinity, 0]]}', "entry 0 is not finite"),
        (b'{"n": 1, "entries": [[1' + b"0" * 400 + b", 0]]}", "entry 0 is not finite"),
        (b'{"\\ud800": 0, ' + _ONE + b"}", [[1 + 2j]]),
        (
            b"\xef\xbb\xbf{" + _ONE + b"}",
            "not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0))",
        ),
        (
            b"{" + _ONE + b', "note": "\xff"}',
            "'utf-8' codec can't decode byte 0xff in position 39: invalid start byte",
        ),
        (b'{"n": 2, "entries": [[1, 2]], "n": 1}', [[1 + 2j]]),
        (
            b'{\r\n "n": 1,\r\n "entries": [[1, 2]\r\n}\r\n',
            "not valid JSON (Expecting ',' delimiter: line 4 column 1 (char 31))",
        ),
    ],
    ids=["nan", "nan-elsewhere", "infinity", "-infinity", "integer-beyond-float", "lone-surrogate-key",
         "bom", "invalid-utf8", "duplicate-key", "crlf-error"],
)
def test_load_matrix_judges_what_orjson_refuses_as_the_stdlib(tmp_path, data, expected):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    got = _assert_same_load(path)
    if isinstance(expected, str):
        assert got == f"{path}: {expected}"
    else:
        assert np.array_equal(got, expected)


def test_load_matrix_refuses_text_nested_past_the_recursion_limit(tmp_path, gc_state):
    # orjson refuses the NaN, and the stdlib decoder then runs out of depth
    path = tmp_path / "m.json"
    path.write_bytes(b"{" + _ONE + b', "note": NaN, "deep": ' + b"[" * 3000 + b"]" * 3000 + b"}")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: not valid JSON (maximum recursion depth")):
        load_matrix(path)
    assert gc.isenabled() is gc_state


def _nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


_PAIRS = b"[" + b"[1, 2], " * 150_000 + b"[1, 2]]"  # 300,002 brackets three deep, as an n = 512 file has


@pytest.mark.parametrize(
    "data, too_deep",
    [
        (b"{" + _ONE + b', "deep": ' + _nested(300_000) + b"}", True),
        (b"{" + _ONE + b', "deep": ' + _nested(99_999) + b"}", True),  # 100,000 levels with the object
        (b"{" + _ONE + b', "deep": ' + _nested(99_998) + b"}", False),
        (b"{" + _ONE + b', "note": "' + b"[" * 300_000 + b'"}', False),
        (b"{" + _ONE + b', "note": "' + b"]" * 300_000 + b'", "deep": ' + _nested(300_000) + b"}", True),
        (b"{" + _ONE + b', "pairs": ' + _PAIRS + b"}", False),
        (b"{" + _ONE + b', "note": "\\"", "pairs": ' + _PAIRS + b"}", True),  # no string bounds without escapes
    ],
    ids=["deep", "at-the-limit", "below-the-limit", "openers-in-a-string", "closers-in-a-string", "many-pairs",
         "many-pairs-and-an-escape"],
)
def test_the_nesting_guard_finds_text_nested_100000_deep(data, too_deep):
    assert _too_deep_for_orjson(data) is too_deep


@pytest.mark.parametrize(
    "data, decoder",
    [
        (b"{" + _ONE + b', "deep": ' + _nested(300_000) + b"}", "json"),
        (b"{" + _ONE + b', "note": "' + b"[" * 300_000 + b'"}', "orjson"),
        (b"{" + _ONE + b', "pairs": ' + _PAIRS + b"}", "orjson"),
    ],
    ids=["deep", "openers-in-a-string", "many-pairs"],
)
def test_load_matrix_gives_orjson_only_text_nested_less_than_100000_deep(tmp_path, monkeypatch, data, decoder):
    # orjson 3.8 nests on the C stack without a limit, and 300,000 levels crash the
    # process: here orjson is not called on the text that must not reach it
    decoders = []

    def watched(text, _loads=orjson.loads):
        decoders.append("orjson")
        assert decoder == "orjson", "orjson was given text nested 100,000 deep"
        return _loads(text)

    monkeypatch.setattr(orjson, "loads", watched)
    monkeypatch.setattr(json, "loads", lambda text, _loads=json.loads: decoders.append("json") or _loads(text))
    path = tmp_path / "m.json"
    path.write_bytes(data)
    if decoder == "json":
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: not valid JSON (maximum recursion depth")):
            load_matrix(path)
    else:
        assert np.array_equal(load_matrix(path), [[1 + 2j]])
    assert decoders == [decoder]


def test_outside_the_main_thread_the_nesting_guard_stops_at_1000_levels():
    found = {}

    def guard():
        for depth in (998, 999, 3000):
            found[depth] = _too_deep_for_orjson(b"{" + _ONE + b', "deep": ' + _nested(depth) + b"}")

    thread = threading.Thread(target=guard)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert found == {998: False, 999: True, 3000: True}  # the object is one more level


_LOAD_IN_A_SMALL_STACK = """
import sys, threading
from spectra_perturb import load_matrix
threading.stack_size(512 * 1024)
found = []
def load():
    try:
        load_matrix(sys.argv[1])
    except ValueError as exc:
        found.append(str(exc))
thread = threading.Thread(target=load)
thread.start()
thread.join()
print(*found)
"""


def test_load_matrix_in_a_thread_with_a_512_kib_stack_refuses_text_nested_20000_deep(tmp_path):
    # orjson 3.8 crashes the process at 9,000 levels on a 512 KiB stack; the
    # stdlib decoder raises RecursionError there instead
    path = tmp_path / "m.json"
    path.write_bytes(b"{" + _ONE + b', "deep": ' + _nested(20_000) + b"}")
    src = str(Path(matrices.__file__).resolve().parents[1])
    argv = [sys.executable, "-c", _LOAD_IN_A_SMALL_STACK, str(path)]
    # a shell that sets the child's core file limit to 0, so a crash leaves no core file
    done = subprocess.run(
        ["sh", "-c", 'ulimit -c 0 && exec "$@"', "sh", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, (done.returncode, done.stderr)
    assert done.stdout.startswith(f"{path}: not valid JSON (maximum recursion depth"), done.stdout
