import ast
import contextlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cremona
from cremona import FiberedMarking, P1Point, jonquieres_involution_matrix
from cremona import classifier, cli, jsonio, square_class, suites
from cremona.classifier import classify, link_feasibility
from cremona.cli import main
from cremona.corpus import cubic_coxeter_matrix, exceptional_model, four_lines_model
from cremona.errors import InvalidDescriptor, excerpt

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_verdicts.json").read_text())
TRIPLET_444 = [[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 8, 9, 10, 11], [4, 5, 6, 7, 8, 9, 10, 11]]

FOUR_LINES_DOC = {
    "lines": [[1, 0, -1], [0, 1, -1], [1, 1, -3], [1, -1, -2]],
    "center": [0, 0, 1],
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, argv, doc=None):
    """Run the CLI against a JSON document, returning (exit code, report)."""
    if doc is not None:
        argv = argv + ["--input", write_doc(tmp_path, "in.json", doc)]
    out = str(tmp_path / "out.json")
    code = main(argv + ["--output", out])
    report = None
    try:
        report = json.loads((tmp_path / "out.json").read_text())
    except FileNotFoundError:
        pass
    return code, report


# quotes, backslashes, control characters, non-ASCII and astral characters
json_texts = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='"\\/\x00\x1f\x7f\b\t\n\u00e9\u2028\U0001f600ab', max_size=8))
json_ints = st.one_of(st.integers(), st.integers(-10 ** 300, 10 ** 300))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), json_ints, json_texts, st.lists(json_ints, max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(json_texts, inner, max_size=5)),
    max_leaves=30)


def _int_matrix(columns):
    row = st.lists(json_ints, min_size=columns, max_size=columns)
    return st.lists(row | row.map(tuple), min_size=1, max_size=15)


def _with_entry(matrix, i, j, value):
    rows = [list(r) for r in matrix]
    rows[i % len(rows)][j % len(rows[0])] = value
    return rows


# rectangular int matrices of lists and tuples, ragged and empty rows, 3-D
# arrays, and a bool, None or float in place of one entry
int_matrices = st.integers(1, 15).flatmap(_int_matrix)
matrix_docs = st.one_of(
    int_matrices, int_matrices.map(tuple),
    st.lists(st.lists(json_ints, max_size=4), min_size=1, max_size=6),
    st.integers(1, 4).flatmap(lambda c: st.lists(_int_matrix(c), min_size=1, max_size=3)),
    st.builds(_with_entry, int_matrices, st.integers(0, 14), st.integers(0, 14),
              st.sampled_from([True, False, None, 2.0, -0.5])))
matrix_docs = matrix_docs | st.dictionaries(json_texts, matrix_docs, min_size=1, max_size=2)


def _with_nested(doc, path, value):
    """A deep copy of the JSON value ``doc`` with ``value`` at ``path``."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    inner = doc
    for i in outer:
        inner = inner[i]
    inner[last] = value
    return doc


def _floats_in(doc):
    if isinstance(doc, dict):
        return any(map(_floats_in, doc.values()))
    if isinstance(doc, (list, tuple)):
        return any(map(_floats_in, doc))
    return isinstance(doc, float)


class TestJsonEmission:
    def test_dumps_is_sorted_and_newline_terminated(self):
        text = jsonio.dumps({"b": 1, "a": [2, {"d": 3, "c": 4}]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"c"') < text.index('"d"')

    @staticmethod
    def assert_json_bytes(doc, *texts):
        # _dumps is called on every interpreter, dumps on the writer it selected;
        # lines are compared as lists, so a failure names the first wrong line
        # at once (pytest's diff of two long strings runs for minutes)
        expected = (json.dumps(doc, sort_keys=True, indent=2) + "\n").split("\n")
        for text in (jsonio._dumps(doc), jsonio.dumps(doc), *texts):
            assert text.split("\n") == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(json_values)
    def test_writer_writes_json_bytes(self, doc):
        self.assert_json_bytes(doc)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(matrix_docs)
    def test_writer_writes_json_bytes_of_matrices(self, doc):
        if _floats_in(doc):  # json writes floats, reports never hold one
            with pytest.raises(TypeError):
                jsonio._dumps(doc)
        else:
            self.assert_json_bytes(doc)

    @pytest.mark.parametrize("key", [*sorted(GOLDEN), "z22-444-model", "minus-one-8-list"])
    def test_writer_writes_json_bytes_of_reports(self, key):
        texts = ()
        if key in GOLDEN:
            doc = GOLDEN[key]
        elif key == "z22-444-model":
            doc = jsonio.z22_model_json(jsonio.parse_model({"triplet": TRIPLET_444}, "z22"))
        else:  # the bytes the command writes, too
            code, text = run_on_stdin(["lattice", "minus-one-count", "--r", "8", "--list"], None)
            assert code == 0
            doc, texts = json.loads(text), (text,)
        self.assert_json_bytes(doc, *texts)

    @pytest.mark.parametrize("doc, error", [
        (10 ** 4300, ValueError),
        ([-10 ** 4300, 1], ValueError),  # an integer row
        ({"a": [True, 10 ** 4300]}, ValueError),
        (1.5, TypeError),
        ([1, 2.0], TypeError),
        ({"a": {1, 2}}, TypeError),
        ({1: 2}, TypeError),
        ([[1, 10 ** 4300]], ValueError),
        ([[1, 2.0]], TypeError),
    ], ids=["int", "int-row", "int-in-list", "float", "float-in-row", "set", "int-key",
            "int-in-matrix", "float-in-matrix"])
    def test_writer_refuses_what_reports_never_hold(self, doc, error):
        # ValueError is what cli._write_report turns into IntegerTooLong
        with pytest.raises(error):
            jsonio._dumps(doc)

    def test_verdict_shapes(self):
        from cremona import DelPezzoDescriptor, HirzebruchDescriptor

        maximal = jsonio.verdict_json(classify(HirzebruchDescriptor(2)))
        assert maximal == {"outcome": "maximal", "family": 4, "invariant": {"n": 2}}
        chain = jsonio.verdict_json(classify(DelPezzoDescriptor(7)))
        assert chain["outcome"] == "not_maximal"
        assert chain["chain"][-1] == {
            "move": "maximal-family", "detail": "family 2", "k_squared": None}


class TestP1PointParsing:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (5, P1Point(5, 1)),
            ("2/3", P1Point(2, 3)),
            ("-7", P1Point(-7, 1)),
            ("inf", P1Point.infinity()),
            ("oo", P1Point.infinity()),
            ("infinity", P1Point.infinity()),
            ([3, 4], P1Point(3, 4)),
            ([2, 4], P1Point(1, 2)),
        ],
    )
    def test_accepted_forms(self, raw, expected):
        assert jsonio.parse_p1_point(raw, "$") == expected

    @pytest.mark.parametrize("raw", [[0, 0], True, 1.5, "abc", "1/0", [1], [1, 2, 3]])
    def test_rejected_forms(self, raw):
        with pytest.raises(InvalidDescriptor):
            jsonio.parse_p1_point(raw, "$")

    def test_error_names_the_location(self):
        with pytest.raises(InvalidDescriptor, match=r"at \$\.delta\[1\]"):
            jsonio.parse_p1_points([1, [0, 0]], "$.delta")


class TestPlaneParsing:
    def test_p2_point_and_line(self):
        assert jsonio.parse_p2_point([2, 4, 6], "$").coords() == (1, 2, 3)
        assert jsonio.parse_line([1, -1, 0], "$").coeffs() == (1, -1, 0)
        with pytest.raises(InvalidDescriptor):
            jsonio.parse_p2_point([0, 0, 0], "$")
        with pytest.raises(InvalidDescriptor):
            jsonio.parse_line([0, 0, 0], "$")

    def test_conic_defaults_and_unknown_keys(self):
        conic = jsonio.parse_conic({"xx": 1, "yz": -1}, "$")
        assert conic.coeffs() == (1, 0, 0, 0, 0, -1)
        # null is absent: a null coefficient is 0, and a null key is not refused
        assert jsonio.parse_conic({"xx": 1, "yz": -1, "xy": None, "ww": None}, "$") == conic
        with pytest.raises(InvalidDescriptor, match=r"^at \$\.conic\.ww: not read by the conic$"):
            jsonio.parse_conic({"xx": 1, "ww": 2}, "$.conic")
        with pytest.raises(InvalidDescriptor, match=r"at \$\.conic: the zero form"):
            jsonio.parse_conic({"xx": 0}, "$.conic")


class TestTripletRoundTrip:
    def test_parse_then_emit(self):
        raw = [[0, 1], [2, "inf"], [0, 1, 2, "inf"]]
        triplet = jsonio.parse_triplet(raw, "$")
        assert triplet.profile == (1, 1, 2)
        emitted = jsonio.triplet_json(triplet)
        assert jsonio.parse_triplet(emitted, "$") == triplet


class TestDescriptorParsing:
    def test_unknown_kind(self):
        with pytest.raises(InvalidDescriptor, match=r"at \$\.kind"):
            jsonio.parse_descriptor({"kind": "abelian-variety"})

    def test_extra_keys_are_refused(self):
        with pytest.raises(InvalidDescriptor, match=r"^at \$\.note: not read by the hirzebruch row$"):
            jsonio.parse_descriptor({"kind": "hirzebruch", "n": 3, "note": "hi"})

    def test_null_is_absent(self):
        # a null field, read or not by the row, and a null unknown key are absent
        doc = {"kind": "del-pezzo", "degree": 8, "p1xp1": None, "action": None, "note": None}
        assert jsonio.parse_descriptor(doc) == jsonio.parse_descriptor({"kind": "del-pezzo",
                                                                         "degree": 8})

    @pytest.mark.parametrize("kind", ["z22", "exceptional"])
    def test_construct_keys_are_what_the_row_does_not_read(self, kind):
        # a model document is a classify input: the keys its emitter writes
        # and the row does not read are the ones checked against the rebuilt model
        if kind == "z22":
            doc = jsonio.z22_model_json(four_lines_model())
        else:
            doc = jsonio.exceptional_model_json(exceptional_model())
        fields = classifier.RULES[kind, None][0]
        assert set(jsonio.CONSTRUCT_KEYS[kind]) == doc.keys() - {"kind", *fields}

    @pytest.mark.parametrize("kind, key, change", [
        ("exceptional", "n", lambda n: True),  # construct writes 1, and True == 1 in Python
        ("exceptional", "k_squared", float),
        ("exceptional", "aut", lambda aut: dict(aut, stabilizer_order=2)),
        # a null that construct writes inside a key is part of its text, not absent
        ("exceptional", "aut", lambda aut: {k: v for k, v in aut.items() if v is not None}),
        ("exceptional", "aut", lambda aut: dict(aut, equals_full_automorphisms=1)),
        ("exceptional", "aut", lambda aut: dict(aut, extra=None)),
        ("z22", "k", str),
        ("z22", "generators", lambda generators: generators[::-1]),
        ("z22", "generators", lambda g: [g[1], g[0], *g[2:]]),
        ("z22", "generators", lambda g: _with_nested(g, (0, 0, 0), True)),
        ("z22", "generators", lambda g: _with_nested(g, (1, 2, 3), float(g[1][2][3]))),
    ], ids=["true-for-1", "float", "aut", "aut-without-null", "aut-one-for-true",
            "aut-extra-key", "string", "generators", "two-generators-swapped",
            "true-entry", "float-entry"])
    def test_construct_keys_must_be_what_construct_writes(self, kind, key, change):
        # the model is rebuilt from the row's fields, and a key that construct
        # writes must be what it writes for that model, as JSON text
        if kind == "z22":
            doc = jsonio.z22_model_json(four_lines_model())
        else:
            doc = jsonio.exceptional_model_json(jsonio.parse_model({"delta": [0, 1]}, kind))
        doc = json.loads(json.dumps(doc))
        rebuilt = jsonio.parse_descriptor(doc)
        assert classify(rebuilt).outcome != "indeterminate"
        assert jsonio.parse_descriptor(dict(doc, **{key: None})) == rebuilt
        tampered = change(doc[key])
        assert json.dumps(tampered, sort_keys=True) != json.dumps(doc[key], sort_keys=True)
        with pytest.raises(InvalidDescriptor) as info:
            jsonio.parse_descriptor(dict(doc, **{key: tampered}))
        assert str(info.value) == f"at $.{key}: construct writes {excerpt(doc[key])}, not {excerpt(tampered)}"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_values, json_values | st.sampled_from([0, 1, 0.0, 1.0, False, True]),
           st.sampled_from(["same", "keys-reversed", "other"]))
    def test_same_json_is_equal_json_text(self, written, other, given_as):
        # on JSON values the comparison agrees with the equality of the sorted
        # json.dumps texts, whatever the order of an object's keys
        def keys_reversed(v):
            if isinstance(v, dict):
                return {k: keys_reversed(v[k]) for k in reversed(list(v))}
            return [keys_reversed(x) for x in v] if isinstance(v, list) else v

        written = json.loads(json.dumps(written))
        given = {"same": written, "keys-reversed": keys_reversed(written), "other": other}[given_as]
        given = json.loads(json.dumps(given))
        assert jsonio._same_json(given, written) == (
            json.dumps(given, sort_keys=True) == json.dumps(written, sort_keys=True))

    def test_z22_model_round_trip_keeps_the_certificate(self):
        model = four_lines_model()
        doc = jsonio.z22_model_json(model)
        rebuilt = jsonio.parse_descriptor(doc)
        verdict = classify(rebuilt)
        assert verdict.outcome == "maximal" and verdict.family == 11

    def test_tampered_certificate_is_rejected(self):
        doc = jsonio.z22_model_json(four_lines_model())
        doc["certificate"]["matrix"][0][1] = 5
        with pytest.raises((InvalidDescriptor, ValueError)):
            jsonio.parse_descriptor(doc)


FAMILY_08_CUBIC = {"kind": "del-pezzo", "degree": 3,
                   "action": {"r": 6, "generators": [jsonio.matrix_json(cubic_coxeter_matrix())]},
                   "fixed_point_report": "all-on-exceptional",
                   "cubic_family": "triple-cover", "parameter": "0"}


class TestClassifyCommand:
    def test_plane_is_family_one(self, tmp_path):
        code, report = run(tmp_path, ["classify"], {"kind": "del-pezzo", "degree": 9})
        assert code == 0
        assert report == {"outcome": "maximal", "family": 1, "invariant": "point"}

    def test_links_flag(self, tmp_path):
        doc = {"kind": "del-pezzo", "degree": 4}
        code, report = run(tmp_path, ["classify", "--links"], doc)
        assert code == 0
        links = report["links"]["links"]
        assert len(links) == 4
        assert links[3]["status"] == "possibly_open"
        assert links[3]["witness"] == [1, -1]

    def test_links_classify_once(self, tmp_path, monkeypatch):
        # --links hands the verdict it has already reached to link_feasibility,
        # so the descriptor is classified once; the bytes equal those of the
        # library calls
        descriptor = jsonio.parse_descriptor(FAMILY_08_CUBIC)
        verdict = classify(descriptor)
        expected = jsonio.dumps({**jsonio.verdict_json(verdict),
                                 "links": jsonio.link_report_json(link_feasibility(descriptor, verdict))})
        calls = []
        monkeypatch.setattr(classifier, "classify", lambda d: calls.append(d) or classify(d))
        code, report = run(tmp_path, ["classify", "--links"], FAMILY_08_CUBIC)
        assert code == 0 and len(calls) == 1
        assert report["family"] == 8
        assert (tmp_path / "out.json").read_text() == expected

    def test_family_08_links_report(self, tmp_path):
        code, report = run(tmp_path, ["classify", "--links"], FAMILY_08_CUBIC)
        assert code == 0 and report["family"] == 8
        assert report["links"]["k_squared"] == 3 and len(report["links"]["links"]) == 4
        reasons = {link["link_type"]: link["reason"] for link in report["links"]["links"]}
        assert "integer solution a" in reasons[4]

    def test_indeterminate_exit_code(self, tmp_path):
        doc = {"kind": "z22",
               "triplet": [[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]]}
        code, report = run(tmp_path, ["classify"], doc)
        assert code == 2
        assert report["outcome"] == "indeterminate"

    def test_family_5_links_report(self, tmp_path):
        # the exceptional bundle over four points: 2n = 4 singular fibers, K^2 = 4
        doc = {"kind": "exceptional", "delta": [0, 1, 2, 3]}
        code, report = run(tmp_path, ["classify", "--links"], doc)
        assert code == 0
        excluded = [
            "a type I link starts from a point case, not a fibration",
            "the group acts without fixed point on every smooth fiber",
            "K^2 = 4 is not in {3, 5, 6}",
            "the surface carries two sections of self-intersection <= -2, "
            "so it is not del Pezzo and has no second fibration",
        ]
        assert report == {
            "outcome": "maximal", "family": 5,
            "invariant": {"delta": [[3, -1], [0, 1], [1, 1], [1, 0]]},
            "links": {"family": 5, "k_squared": 4, "links": [
                {"link_type": t, "status": "excluded", "reason": reason, "witness": None}
                for t, reason in enumerate(excluded, start=1)]},
        }

    def test_invalid_descriptor_exit_code(self, tmp_path):
        code, _ = run(tmp_path, ["classify"], {"kind": "del-pezzo", "degree": 17})
        assert code == 1

    def test_s4_cubic_restriction_holds_off_the_maximal_branch(self, tmp_path):
        # the fixed point report sends this cubic down the reduction chain;
        # lambda = 0 is still not an S_4 cubic
        doc = {"kind": "del-pezzo", "degree": 3,
               "action": {"r": 6, "generators": [jsonio.matrix_json(cubic_coxeter_matrix())]},
               "fixed_point_report": "off-exceptional",
               "cubic_family": "s4-lambda", "parameter": "0"}
        code, report = run(tmp_path, ["classify"], doc)
        assert code == 1 and report is None

    @pytest.mark.parametrize("delta", [[0, 1, 1, 2, 3], [0, "0/5", [0, 7], 1]])
    def test_repeated_branch_point_is_invalid_input(self, tmp_path, capsys, delta):
        code, report = run(tmp_path, ["classify"], {"kind": "exceptional", "delta": delta})
        assert code == 1 and report is None
        assert "DuplicatePoint: repeated point in the branch set" in capsys.readouterr().err

    def test_malformed_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", "--input", str(path)]) == 1

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["classify", "--input", str(tmp_path / "absent.json")]) == 1

    def test_reports_are_byte_stable(self, tmp_path):
        doc = {"kind": "exceptional", "delta": [0, 1, 2, 3]}
        path = write_doc(tmp_path, "in.json", doc)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["classify", "--input", path, "--output", out1]) == 0
        assert main(["classify", "--input", path, "--output", out2]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_stdin_and_stdout_defaults(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO('{"kind": "hirzebruch", "n": 2}'))
        assert main(["classify"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {
            "outcome": "maximal", "family": 4, "invariant": {"n": 2}}
        assert out.endswith("\n")


class TestConstructCommand:
    def test_four_lines_pipeline(self, tmp_path):
        code, model_doc = run(tmp_path, ["construct", "four-lines"], FOUR_LINES_DOC)
        assert code == 0
        assert model_doc["kind"] == "z22"
        assert model_doc["profile"] == [2, 2, 2]
        assert model_doc["certificate"]["source"] == "four-lines"
        code2, verdict = run(tmp_path, ["classify"], model_doc)
        assert code2 == 0
        assert verdict["family"] == 11

    def test_z22_444_pipeline(self, tmp_path):
        code, model_doc = run(tmp_path, ["construct", "z22"], {"triplet": TRIPLET_444})
        assert code == 0
        code2, verdict = run(tmp_path, ["classify"], model_doc)
        assert code2 == 0
        assert verdict["family"] == 11

    def test_three_lines_conic(self, tmp_path):
        doc = {
            "lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]],
            "conic": {"xx": 1, "yz": -1},
            "d1": [1, 7, 3],
            "d2": [0, 0, 1],
        }
        code, model_doc = run(tmp_path, ["construct", "three-lines-conic"], doc)
        assert code == 0
        assert model_doc["profile"] == [2, 2, 3]
        assert model_doc["certificate"]["source"] == "three-lines-conic"

    @pytest.mark.parametrize("kind, doc", [
        ("four-lines", FOUR_LINES_DOC),
        ("three-lines-conic", {"lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]],
                               "conic": {"xx": 1, "yz": -1}, "d1": [1, 7, 3], "d2": [0, 0, 1]}),
        ("z22", {"triplet": TRIPLET_444}),
        ("exceptional", {"delta": [0, 1, 2, 3]}),
    ], ids=["four-lines", "three-lines-conic", "z22", "exceptional"])
    def test_every_model_document_classifies(self, tmp_path, kind, doc):
        code, model_doc = run(tmp_path, ["construct", kind], doc)
        assert code == 0
        code, verdict = run(tmp_path, ["classify"], model_doc)
        assert code == 0 and verdict["outcome"] == "maximal"

    def test_degenerate_configuration_fails_cleanly(self, tmp_path):
        doc = dict(FOUR_LINES_DOC, center=[1, 0, 1])  # center on the first line
        code, report = run(tmp_path, ["construct", "four-lines"], doc)
        assert code == 1 and report is None

    def test_bare_z22(self, tmp_path):
        doc = {"triplet": [[0, 1], [2, 3], [0, 1, 2, 3]]}
        code, model_doc = run(tmp_path, ["construct", "z22"], doc)
        assert code == 0
        assert model_doc["profile"] == [1, 1, 2]
        assert "certificate" not in model_doc

    def test_exceptional(self, tmp_path):
        code, model_doc = run(
            tmp_path, ["construct", "exceptional"], {"delta": [0, 1, 2, 3]})
        assert code == 0
        assert model_doc["n"] == 2
        assert model_doc["k_squared"] == 4
        assert model_doc["aut"]["stabilizer_order"] == 4

    def test_exceptional_repeated_branch_point(self, tmp_path, capsys):
        code, report = run(
            tmp_path, ["construct", "exceptional"], {"delta": [0, 1, 1, 2, 3]})
        assert code == 1 and report is None
        assert "DuplicatePoint: repeated point in the branch set" in capsys.readouterr().err

    def test_document_that_is_not_an_object(self, tmp_path, capsys):
        path = write_doc(tmp_path, "in.json", [])
        assert main(["construct", "four-lines", "--input", path]) == 1
        assert "InvalidDescriptor: at $: expected an object" in capsys.readouterr().err


class TestLatticeCommand:
    def test_minus_one_count(self, tmp_path):
        code, report = run(tmp_path, ["lattice", "minus-one-count", "--r", "6"])
        assert code == 0
        assert report == {"count": 27, "r": 6}

    def test_minus_one_list(self, tmp_path):
        code, report = run(
            tmp_path, ["lattice", "minus-one-count", "--r", "2", "--list"])
        assert code == 0
        assert sorted(report["classes"]) == [[0, 0, 1], [0, 1, 0], [1, -1, -1]]

    def test_invariant_rank(self, tmp_path):
        gen = jonquieres_involution_matrix(FiberedMarking.standard(4)).generator
        doc = {"r": 5, "generators": [jsonio.matrix_json(gen)]}
        code, report = run(tmp_path, ["lattice", "invariant-rank"], doc)
        assert code == 0
        assert report["rank"] == 2
        assert len(report["basis"]) == 2

    def test_cubic_coxeter_invariant_rank(self, tmp_path):
        doc = {"r": 6, "generators": [jsonio.matrix_json(cubic_coxeter_matrix())]}
        code, report = run(tmp_path, ["lattice", "invariant-rank"], doc)
        assert code == 0
        assert report["rank"] == 1

    def test_genus(self, tmp_path):
        doc = {"r": 3, "divisor": [3, -1, -1, -1]}
        code, report = run(tmp_path, ["lattice", "genus"], doc)
        assert code == 0
        assert report == {"genus": 1, "self_intersection": 6}

    def test_unsupported_rank_is_invalid_input(self, tmp_path):
        code, _ = run(tmp_path, ["lattice", "minus-one-count", "--r", "12"])
        assert code == 1

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert main(["lattice"]) == 1
        err = capsys.readouterr().err
        assert "error: the following arguments are required: lattice_cmd" in err


class TestCanonicalCommand:
    def test_triplet_accepts_unreduced_points(self, tmp_path):
        doc = {"triplet": [[[2, 4], 1], [[6, 2], 1], [[1, 2], 3]]}
        code, report = run(tmp_path, ["canonical", "triplet"], doc)
        assert code == 0
        canon = jsonio.parse_triplet(report["triplet"], "$")
        base = jsonio.parse_triplet([["1/2", 1], [3, 1], ["1/2", 3]], "$")
        from cremona import triplet_canonical_form

        assert canon == triplet_canonical_form(base)

    def test_delta(self, tmp_path):
        code, report = run(tmp_path, ["canonical", "delta"], {"delta": [0, 1, 2, 3]})
        assert code == 0
        assert report == {"delta": [[3, -1], [0, 1], [1, 1], [1, 0]]}

    def test_delta_past_the_cap_is_invalid_input(self, tmp_path, capsys):
        n = square_class.MAX_CANONICAL_POINTS + 1
        code, report = run(tmp_path, ["canonical", "delta"], {"delta": list(range(n))})
        assert code == 1 and report is None
        assert f"TooManyPoints: canonical forms and stabilizers accept at most {n - 1}" \
            in capsys.readouterr().err

    def test_delta_at_the_cap_is_accepted(self, tmp_path):
        n = square_class.MAX_CANONICAL_POINTS
        code, report = run(tmp_path, ["canonical", "delta"], {"delta": list(range(n))})
        assert code == 0 and len(report["delta"]) == n

    def test_long_coordinates_at_the_cap_within_ten_seconds(self):
        rng = random.Random(1)
        delta = [[rng.choice((1, -1)) * rng.randrange(10**299, 10**300),
                  rng.randrange(10**299, 10**300)] for _ in range(64)]
        proc = run_child(["-m", "cremona", "canonical", "delta"], json.dumps({"delta": delta}),
                         timeout=10)
        assert proc.returncode == 0 and len(json.loads(proc.stdout)["delta"]) == 64


def run_on_stdin(argv, doc):
    """Run the CLI in process with a JSON document on stdin; returns (exit code, stdout)."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def distinct_points(k):
    """k distinct points of P^1 as [a, b] pairs, infinity among them at times."""
    return st.lists(st.one_of(st.none(), st.integers(-30, 30)), min_size=k, max_size=k,
                    unique=True).map(lambda values: [[1, 0] if v is None else [v, 1] for v in values])


mobius_coeffs = st.tuples(*[st.integers(-9, 9)] * 4).filter(lambda m: m[0] * m[3] != m[1] * m[2])


def moved(points, m):
    a, b, c, d = m
    return [[a * x + b * y, c * x + d * y] for x, y in points]


class TestMoebiusInvariance:
    """Reports depend on the branch points only up to a Moebius map over Q: a
    moved input gives the same bytes, and the same stabilizer order."""

    def assert_same_delta_reports(self, delta, m):
        image = moved(delta, m)
        for argv, doc in ((["canonical", "delta"], {"delta": delta}),
                          (["classify"], {"kind": "exceptional", "delta": delta})):
            assert run_on_stdin(argv, doc) == run_on_stdin(argv, doc | {"delta": image})
        code, model = run_on_stdin(["construct", "exceptional"], {"delta": delta})
        moved_code, moved_model = run_on_stdin(["construct", "exceptional"], {"delta": image})
        assert code == moved_code
        if len(delta) % 2 == 0:  # odd sets are refused, on both sides
            assert (json.loads(model)["aut"]["stabilizer_order"]
                    == json.loads(moved_model)["aut"]["stabilizer_order"])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 12).flatmap(distinct_points), mobius_coeffs)
    def test_exceptional_deltas(self, delta, m):
        self.assert_same_delta_reports(delta, m)

    @pytest.mark.parametrize("delta", [[[0, 1], [1, 0], [1, 1], [-1, 1]],
                                       [[0, 1], [1, 0], [1, 1], [-1, 1], [2, 1], [-2, 1]]])
    @settings(max_examples=15, deadline=None)
    @given(m=mobius_coeffs)
    def test_symmetric_deltas(self, delta, m):
        self.assert_same_delta_reports(delta, m)

    @pytest.mark.parametrize("delta", [[0, "inf", 1, -1, 2, -2],
                                       ["1/3", 2, "3/4", "-1/2", 1, -3]],
                             ids=["symmetric", "moved"])
    def test_symmetric_delta_and_its_image_are_pinned(self, delta):
        # the second set is the first moved by t -> (2t + 1) / (t + 3)
        code, model = run_on_stdin(["construct", "exceptional"], {"delta": delta})
        assert code == 0 and json.loads(model)["aut"]["stabilizer_order"] == 4
        code, canon = run_on_stdin(["canonical", "delta"], {"delta": delta})
        assert code == 0
        assert json.loads(canon)["delta"] == [[8, -1], [2, -1], [0, 1], [1, 1], [4, 1], [1, 0]]

    @pytest.mark.parametrize("profile", cremona.realizable_profiles(12))
    @settings(max_examples=3, deadline=None)
    @given(data=st.data(), m=mobius_coeffs)
    def test_z22_triplets(self, profile, data, m):
        a1, a2, a3 = profile
        support = data.draw(distinct_points(a1 + a2 + a3))
        m12, m13 = a1 + a2 - a3, a1 + a3 - a2
        b12, b13, b23 = support[:m12], support[m12:m12 + m13], support[m12 + m13:]
        sets = [b12 + b13, b12 + b23, b13 + b23]
        doc = {"kind": "z22", "triplet": sets}
        image = {"kind": "z22", "triplet": [moved(s, m) for s in sets]}
        assert run_on_stdin(["classify"], doc) == run_on_stdin(["classify"], image)


_CONIC_TERMS = {"xx": (0, 0), "yy": (1, 1), "zz": (2, 2),
                "xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def plane_moved(doc, a):
    """The configuration moved by x -> A x: points go to A p, lines to
    l adj(A) and the conic's form to Q(adj(A) x), so every incidence holds."""
    # the columns of adj(A), so that A adj(A) = det(A) I
    adj = [_cross(a[1], a[2]), _cross(a[2], a[0]), _cross(a[0], a[1])]

    def form(x):
        return sum(doc["conic"].get(k, 0) * x[i] * x[j] for k, (i, j) in _CONIC_TERMS.items())

    out = {"lines": [[_dot(l, c) for c in adj] for l in doc["lines"]]}
    for key in ("center", "d1", "d2"):
        if key in doc:
            out[key] = [_dot(row, doc[key]) for row in a]
    if "conic" in doc:
        square = [form(c) for c in adj]
        out["conic"] = {
            k: square[i] if i == j
            else form([x + y for x, y in zip(adj[i], adj[j])]) - square[i] - square[j]
            for k, (i, j) in _CONIC_TERMS.items()}
    return out


gl3 = st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3,
               max_size=3).filter(lambda a: _dot(a[0], _cross(a[1], a[2])) != 0)

THREE_LINES_DOC = {"lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]], "conic": {"xx": 1, "yz": -1},
                   "d1": [1, 7, 3], "d2": [0, 0, 1]}


class TestPlaneInvariance:
    """The plane constructions do not depend on coordinates: a configuration
    moved by an invertible integer matrix builds a model with the same
    profile and certificate pattern, which classifies to the same bytes."""

    @pytest.mark.parametrize("source, doc", [("four-lines", FOUR_LINES_DOC),
                                             ("three-lines-conic", THREE_LINES_DOC)])
    @settings(max_examples=20, deadline=None)
    @given(a=gl3)
    def test_construct_then_classify(self, source, doc, a):
        reports = []
        for config in (doc, plane_moved(doc, a)):
            code, text = run_on_stdin(["construct", source], config)
            assert code == 0
            model = json.loads(text)
            verdict = run_on_stdin(["classify"], model)
            assert verdict[0] == 0
            reports.append((model["profile"], model["certificate"]["source"],
                            model["certificate"]["matrix"], verdict))
        assert reports[0] == reports[1]


def child_env(log=None):
    """The environment of a child: the package on the path, and
    ``CREMONA_LOG`` set to ``log`` or unset."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cremona.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("CREMONA_LOG", None)
    if log is not None:
        env["CREMONA_LOG"] = log
    return env


def run_child(args, stdin, log=None, timeout=60):
    """Run ``python <args>`` under ``child_env(log)``; returns the process, or
    raises ``subprocess.TimeoutExpired`` after ``timeout`` seconds."""
    return subprocess.run(
        [sys.executable, *args], input=stdin,
        capture_output=True, text=True, env=child_env(log), timeout=timeout)


def logged_lines(capsys, level="ERROR"):
    """The messages of the lines on the captured stderr, each logged at ``level``."""
    prefix = f"{level} cremona: "
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith(prefix) for line in lines), lines
    return [line[len(prefix):] for line in lines]


def assert_one_logged_line(proc, code, prefix):
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(prefix)


class TestExitCodes:
    def test_malformed_certificate_is_one_logged_line(self):
        doc = {
            "kind": "z22",
            "triplet": [[0, 1], [0, 2], [1, 2]],
            "certificate": {"source": "four-lines",
                            "sections": [[1, 0, 0, 0, 0]] * 4, "matrix": [[1]]},
        }
        proc = run_child(["-m", "cremona", "classify"], json.dumps(doc))
        assert_one_logged_line(proc, 1, "ERROR cremona: InvalidCertificate: ")

    def test_zero_conic_is_one_logged_line(self):
        doc = {"lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]], "conic": {},
               "d1": [1, 7, 3], "d2": [0, 0, 1]}
        proc = run_child(["-m", "cremona", "construct", "three-lines-conic"], json.dumps(doc))
        assert_one_logged_line(proc, 1, "ERROR cremona: InvalidDescriptor: at $.conic")

    def test_invariant_violation_exits_3(self, tmp_path, monkeypatch):
        # a stabilizer map that moves the set is a bug, not bad input
        monkeypatch.setattr(square_class, "mobius_from_triples",
                            lambda src, dst: cremona.Mobius.from_coeffs(1, 1, 0, 1))
        code, report = run(tmp_path, ["construct", "exceptional"],
                           {"delta": [0, 1, -1, "inf"]})
        assert code == 3 and report is None

    def test_moving_stabilizer_map_exits_3_under_optimize(self):
        # the kernel's stabilizer maps are checked against the set at run
        # time; python -O strips assert statements but not this check
        script = (
            "import sys\n"
            "from cremona import Mobius, square_class\n"
            "from cremona.cli import main\n"
            "assert False, 'not reached under -O'\n"
            "square_class.mobius_from_triples = "
            "lambda src, dst: Mobius.from_coeffs(1, 1, 0, 1)\n"
            "sys.exit(main(['construct', 'exceptional']))\n"
        )
        proc = run_child(["-O", "-c", script], json.dumps({"delta": [0, 1, -1, "inf"]}))
        assert_one_logged_line(
            proc, 3, "ERROR cremona: internal invariant violation: Mobius[1,1;0,1] ties "
                     "with the least pinning but moves the set")

    def test_wrong_involution_exits_3_under_optimize(self):
        # sigma_1 and sigma_2 both swap fibers 1 and 2, so sigma_1 sigma_2 = 1 != sigma_3;
        # python -O strips assert statements but not this check
        script = (
            "import sys\n"
            "from cremona import bundles\n"
            "from cremona.cli import main\n"
            "assert False, 'not reached under -O'\n"
            "real = bundles.involution_matrix\n"
            "bundles.involution_matrix = lambda marking, swapped: real(marking, (1, 2))\n"
            "sys.exit(main(['construct', 'z22']))\n"
        )
        proc = run_child(["-O", "-c", script],
                         json.dumps({"triplet": [[0, 1], [0, 2], [1, 2]]}))
        assert_one_logged_line(
            proc, 3, "ERROR cremona: internal invariant violation: sigma_1 sigma_2")

    def test_overlong_input_integer_is_one_logged_line(self):
        # Python refuses to convert integers past 4300 digits from text
        text = '{"delta": [' + "9" * 5000 + ", 0, 1, 2]}"
        proc = run_child(["-m", "cremona", "canonical", "delta"], text)
        assert_one_logged_line(proc, 1, "ERROR cremona: IntegerTooLong: ")

    @pytest.mark.parametrize("point", ["1e1000000", "-3.5E-1000000", "1e99999999",
                                       "1e" + "9" * 5000],
                             ids=["exponent", "negative-exponent", "huge-exponent",
                                  "exponent-literal"])
    def test_point_exponent_is_refused_before_it_is_expanded(self, point):
        # Fraction would build an integer of a million digits and the kernel
        # would then compute for a minute; 10**99999999 alone takes minutes
        # to build, so the exponent is checked before Fraction sees it
        text = json.dumps({"delta": [0, 1, 2, point]})
        proc = run_child(["-m", "cremona", "canonical", "delta"], text, timeout=10)
        assert_one_logged_line(
            proc, 1, f"ERROR cremona: IntegerTooLong: at $.delta[3]: point {point[:20]}")
        assert len(proc.stderr.encode()) <= 1024

    def test_overlong_point_literal_is_integer_too_long(self):
        # the same refusal as for a JSON integer or a cubic parameter
        text = json.dumps({"delta": [0, 1, 2, "1/" + "7" * 4301]})
        proc = run_child(["-m", "cremona", "canonical", "delta"], text)
        assert_one_logged_line(proc, 1, "ERROR cremona: IntegerTooLong: at $.delta[3]: point 1/777")
        assert len(proc.stderr.encode()) <= 1024

    @pytest.mark.parametrize("point, message", [
        ("1/0", "cannot read '1/0' as an exact rational"),
        ("x1e99999", "cannot read 'x1e99999' as an exact rational"),
    ])
    def test_point_string_that_is_no_number_keeps_its_message(self, point, message):
        text = json.dumps({"delta": [0, 1, 2, point]})
        proc = run_child(["-m", "cremona", "canonical", "delta"], text)
        assert_one_logged_line(proc, 1, f"ERROR cremona: InvalidDescriptor: at $.delta[3]: {message}")

    def test_overlong_report_integer_is_one_logged_line(self, tmp_path):
        # a 2201-digit coefficient reads fine but its square has 4401 digits
        text = '{"r": 1, "divisor": [1' + "0" * 2200 + ", 0]}"
        out = tmp_path / "out.json"
        proc = run_child(["-m", "cremona", "lattice", "genus", "--output", str(out)], text)
        assert_one_logged_line(proc, 1, "ERROR cremona: IntegerTooLong: ")
        assert not out.exists()

    def test_non_utf8_input_file_is_one_logged_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        proc = run_child(["-m", "cremona", "classify", "--input", str(path)], "")
        assert_one_logged_line(
            proc, 1, "ERROR cremona: cannot read or write: 'utf-8' codec can't decode byte 0xff")

    def test_deeply_nested_json_is_one_logged_line(self):
        proc = run_child(["-m", "cremona", "classify"], "[" * 200000 + "]" * 200000)
        assert_one_logged_line(
            proc, 1, "ERROR cremona: InvalidDescriptor: at $: arrays and objects nest too deeply")

    @pytest.mark.parametrize("argv", [
        ["classify", "--bogus"], [], ["lattice", "minus-one-count", "--r", "abc"]])
    def test_usage_error_exits_1(self, argv):
        # exit code 2 means an indeterminate verdict, not a usage error
        proc = run_child(["-m", "cremona", *argv], "")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("usage: cremona")
        assert "Traceback" not in proc.stderr

    def test_overlong_int_option_is_quoted_in_part(self):
        proc = run_child(["-m", "cremona", "lattice", "minus-one-count", "--r", "9" * 5000], "")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1].startswith(
            "cremona lattice minus-one-count: error: argument --r: invalid int value: '999")
        assert "(5002 characters)" in proc.stderr
        assert len(proc.stderr.encode()) <= 1024

    def test_bad_int_option_message_is_argparse_own(self):
        proc = run_child(["-m", "cremona", "lattice", "minus-one-count", "--r", "abc"], "")
        assert proc.returncode == 1 and proc.stderr.startswith("usage: cremona lattice")
        assert proc.stderr.splitlines()[-1] == (
            "cremona lattice minus-one-count: error: argument --r: invalid int value: 'abc'")

    @pytest.mark.parametrize("matrix, message", [
        ([[0, 1], [1, 0]], "NotIsometry: matrix does not preserve the intersection form"),
        ([[1, 0], [0, -1]], "MovesCanonicalClass: matrix moves the canonical class"),
        ([[1, 0], [0, 1], [0, 0]], "DimensionMismatch: action matrix must be 2 x 2"),
    ], ids=["swap-l-e1", "flip-e1", "three-by-two"])
    def test_bad_action_is_one_logged_line(self, matrix, message):
        proc = run_child(["-m", "cremona", "lattice", "invariant-rank"],
                         json.dumps({"r": 1, "generators": [matrix]}))
        assert_one_logged_line(proc, 1, f"ERROR cremona: {message}")
        assert proc.stderr == f"ERROR cremona: {message}\n"

    def test_cubic_action_that_is_no_isometry_is_one_logged_line(self):
        # L <-> E_1 on the cubic surface sends L^2 = 1 to E_1^2 = -1
        swap = [[int(col == {0: 1, 1: 0}.get(row, row)) for col in range(7)] for row in range(7)]
        doc = {"kind": "del-pezzo", "degree": 3, "action": {"r": 6, "generators": [swap]},
               "fixed_point_report": "all-on-exceptional", "cubic_family": "clebsch"}
        proc = run_child(["-m", "cremona", "classify"], json.dumps(doc))
        assert_one_logged_line(
            proc, 1, "ERROR cremona: NotIsometry: matrix does not preserve the intersection form")

    def test_help_exits_0(self):
        proc = run_child(["-m", "cremona", "--help"], "")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: cremona")


FOUR_LINES = FOUR_LINES_DOC["lines"]


PARABOLA = {"xx": 1, "yz": -1}  # x^2 = y z


class TestRecordsInMessages:
    """The logged lines of rejected inputs, fixed byte for byte; most render
    records."""

    @pytest.mark.parametrize("argv, doc, message", [
        (["construct", "four-lines"], {"lines": FOUR_LINES, "center": [2, 7, 2]},
         "QOnConfiguration: center (2:7:2) lies on Line(1,0,-1)"),
        (["construct", "four-lines"], {"lines": FOUR_LINES, "center": [1, 1, 0]},
         "QOnConfiguration: center (1:1:0) lies on Line(1,-1,-2)"),
        (["construct", "four-lines"],
         {"lines": [[1, 0, -1], [0, 1, -1], [2, 0, -2], [1, -1, -2]], "center": [0, 0, 1]},
         "DegenerateConfiguration: the four lines must be distinct (repeated: Line(1,0,-1))"),
        (["construct", "four-lines"],
         {"lines": [[1, 0, -1], [0, 1, -1], [1, 1, -2], [1, -1, -2]], "center": [0, 0, 1]},
         "DegenerateConfiguration: three of the lines are concurrent (repeated: (1:1:1))"),
        (["construct", "four-lines"], {"lines": FOUR_LINES, "center": [7, -1, 1]},
         "DegenerateConfiguration: the center sees two double points in the same "
         "direction (repeated: (2:-1))"),
        (["canonical", "triplet"], {"triplet": [[0, 1], [0, 2], [1, "1/3"]]},
         "CoverageViolation: points covered a number of times other than twice: "
         "[(1:3), (2:1)]"),
        (["classify"],
         {"kind": "z22", "triplet": [[0, 1], [0, 2], [1, 2]],
          "certificate": {"source": "four-lines", "sections": [[1, 0, 0, 0, 0]] * 4,
                          "matrix": [[1]]}},
         "InvalidCertificate: D(1, 0, 0, 0, 0) is not a (-2)-section"),
        (["classify"], {"kind": "del-pezzo", "degree": 3, "cubic_family": "quartic"},
         "InvalidDescriptor: at $.cubic_family: unknown cubic family tag 'quartic'"),
        (["classify"], {"kind": "del-pezzo", "degree": 2, "restrictions_satisfied": "yes"},
         "InvalidDescriptor: at $.restrictions_satisfied: expected a boolean, got 'yes'"),
        (["construct", "three-lines-conic"],
         {"lines": [[1, 0, -1], [1, 4, -3], [4, 3, 1]], "conic": PARABOLA,
          "d1": [1, -1, -1], "d2": [1, 1, 1]},
         "DegenerateConfiguration: d1 must be off the conic"),
        (["construct", "three-lines-conic"],
         {"lines": [[0, 16, -1], [7, -6, -2], [3, -4, 1]], "conic": PARABOLA,
          "d1": [38, 7, 112], "d2": [4, -1, -16]},
         "DegenerateConfiguration: the double point La.Lc = (4:-1:-16) lies on the conic"),
        (["construct", "three-lines-conic"],
         {"lines": [[1, -1, 2], [2, 1, -3], [0, 1, 0]], "conic": PARABOLA,
          "d1": [1, 7, 3], "d2": [0, 0, 1]},
         "DegenerateConfiguration: the third line is tangent to the conic"),
        (["construct", "three-lines-conic"],
         {"lines": [[1, -4, 0], [4, 0, -3], [1, -4, 3]], "conic": PARABOLA,
          "d1": [4, 1, 0], "d2": [0, 1, 0]},
         "DegenerateConfiguration: the line d1 d2 is tangent to the conic"),
        (["construct", "three-lines-conic"],
         {"lines": [[0, 4, -1], [1, 12, -1], [9, 4, 2]], "conic": PARABOLA,
          "d1": [8, -1, -4], "d2": [2, -4, -1]},
         "DegenerateConfiguration: the center sees two blown-up points in the same "
         "direction (repeated: (1:-3))"),
        (["lattice", "invariant-rank"],
         {"r": 6, "generators": [_with_entry(jsonio.matrix_json(cubic_coxeter_matrix()), 3, 2, True)]},
         "InvalidDescriptor: at $.generators[0][3][2]: expected an integer, got True"),
        (["construct", "z22"], {"triplet": [TRIPLET_444[0], [0, 1, 2, 3, [0, 0], 9, 10, 11],
                                            TRIPLET_444[2]]},
         "InvalidDescriptor: at $.triplet[1][4]: [0, 0] is not a point of the line"),
        (["construct", "z22"], {"triplet": [TRIPLET_444[0], [0, 1, 2, 3, [8, 1.0], 9, 10, 11],
                                            TRIPLET_444[2]]},
         "InvalidDescriptor: at $.triplet[1][4][1]: expected an integer, got 1.0"),
        (["construct", "four-lines"], {"lines": [*FOUR_LINES[:3], [1, -1, False]],
                                       "center": [0, 0, 1]},
         "InvalidDescriptor: at $.lines[3][2]: expected an integer, got False"),
    ])
    def test_logged_line(self, tmp_path, capsys, argv, doc, message):
        code, report = run(tmp_path, argv, doc)
        assert code == 1 and report is None
        assert logged_lines(capsys) == [message]


def _with_certificate_source(source):
    doc = jsonio.z22_model_json(four_lines_model())
    doc["certificate"]["source"] = source
    return doc


LONG = 5000  # characters of an oversized input value
BIG = 10**4299 - 1  # 4299 digits: the longest integer Python reads from text


def _with_certificate_section_entry(value):
    doc = jsonio.z22_model_json(four_lines_model())
    doc["certificate"]["sections"][0][-1] = value
    return doc


def _cross(x, y):
    return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]


def _double_point_on_the_conic(t):
    # La and Lc meet at (t : t^2 : 1) on the parabola x^2 = y z; d1 = (1:7:3)
    # is off it, d2 = (0:0:1) on it and on Lc
    d1, d2, pt = [1, 7, 3], [0, 0, 1], [t, t * t, 1]
    return {"lines": [_cross(d1, pt), _cross(d1, [1, 0, 0]), _cross(d2, pt)],
            "conic": PARABOLA, "d1": d1, "d2": d2}


class TestLongValuesInMessages:
    """A message quotes at most a bounded prefix of an input value, so one
    logged line stays small however large the input is."""

    @pytest.mark.parametrize("argv, doc", [
        (["classify"], {"kind": "del-pezzo", "degree": list(range(LONG))}),
        (["classify"], {"kind": ["x"] * LONG}),
        (["classify"], {"kind": "z22", "triplet": "x" * LONG}),
        (["classify"], "x" * LONG),
        (["classify"], {"kind": "del-pezzo", "degree": 8, "p1xp1": "y" * LONG}),
        (["classify"], {"kind": "hirzebruch", "n": 2, "k" * LONG: 1}),
        (["canonical", "delta"], {"delta": ["z" * LONG, 0, 1, 2]}),
        (["classify"], {"kind": "k" * LONG}),
        (["construct", "three-lines-conic"],
         {"lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]],
          "conic": {"xx": 1, "k" * LONG: 1}, "d1": [1, 7, 3], "d2": [0, 0, 1]}),
        (["classify"], {"kind": "del-pezzo", "degree": 3, "fixed_point_report": "r" * LONG}),
        (["classify"], {"kind": "del-pezzo", "degree": 3, "cubic_family": "c" * LONG}),
        (["classify"], {"kind": "del-pezzo", "degree": 2, "quartic_row": [2, "l" * LONG]}),
        (["classify"], {"kind": "del-pezzo", "degree": 2, "quartic_row": [10**4000, "2xL2(7)"]}),
        (["classify"], {"kind": "del-pezzo", "degree": 3, "cubic_family": "s4-lambda",
                        "parameter": "1/" + "0" * 4000}),
        (["classify"], {"kind": "del-pezzo", "degree": 3, "cubic_family": "triple-cover",
                        "parameter": "-3." + "0" * 4000}),
        (["classify"], {"kind": "del-pezzo", "degree": 3, "cubic_family": "s4-lambda",
                        "parameter": "0." + "0" * 4000}),
        (["classify"], {"kind": "del-pezzo", "degree": 3, "cubic_family": "s4-lambda",
                        "parameter": "0." + "0" * 4400}),
        (["canonical", "triplet"],
         {"triplet": [list(range(1000)), [1000, 1001], [1000, 1002]]}),
        (["classify"], _with_certificate_source("s" * LONG)),
        (["classify"], {"kind": "hirzebruch", "n": -BIG}),
        (["classify"], {"kind": "del-pezzo", "degree": BIG}),
        (["lattice", "genus"], {"r": BIG, "divisor": [1]}),
        (["construct", "four-lines"], {"lines": FOUR_LINES, "center": [BIG, 7, BIG]}),
        (["construct", "four-lines"],
         {"lines": [[BIG, 1, 0], [BIG, 1, 0], [1, 1, -3], [1, -1, -2]], "center": [0, 0, 1]}),
        (["classify"], _with_certificate_section_entry(BIG)),
        (["construct", "three-lines-conic"],
         {"lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]], "conic": PARABOLA,
          "d1": [1, BIG, 3], "d2": [0, 0, 1]}),
        (["construct", "three-lines-conic"], _double_point_on_the_conic(10**600)),
        (["construct", "three-lines-conic"],
         {"lines": [[-7 * BIG - 3, BIG, 1], [2, 1, -3], [4, -1, 0]], "conic": PARABOLA,
          "d1": [1, 7, 3], "d2": [0, 0, 1]}),
    ], ids=["expect-int", "expect-str", "expect-list", "expect-obj", "flag", "unread-key",
            "p1-point", "descriptor-kind", "conic-keys", "fixed-point-report", "cubic-family",
            "degree-2-label", "degree-2-row", "parameter-denominator",
            "parameter-singular", "parameter-restrictions", "parameter-digits", "coverage",
            "certificate-source", "hirzebruch-index", "del-pezzo-degree", "blowup-rank",
            "center-on-a-line", "repeated-line", "certificate-section", "d1-off-the-lines",
            "double-point-on-the-conic", "line-misses-the-conic"])
    def test_logged_line_is_bounded(self, tmp_path, capsys, argv, doc):
        code, report = run(tmp_path, argv, doc)
        assert code == 1 and report is None
        [logged] = logged_lines(capsys)
        assert len(logged.encode()) <= 1024
        assert " characters)" in logged

    def test_a_value_within_the_bound_is_quoted_whole(self):
        assert excerpt("x" * 198) == repr("x" * 198)
        assert excerpt("x" * 199) == "'" + "x" * 199 + "... (201 characters)"
        assert excerpt("x" * 200, str) == "x" * 200

    def test_oversized_degree_is_one_short_logged_line(self):
        doc = json.dumps({"kind": "del-pezzo", "degree": list(range(100000))})
        proc = run_child(["-m", "cremona", "classify"], doc)
        assert_one_logged_line(
            proc, 1, "ERROR cremona: InvalidDescriptor: at $.degree: expected an integer, "
                     "got [0, 1, 2,")
        assert len(proc.stderr.encode()) <= 1024

    @pytest.mark.parametrize("argv, doc, prefix", [
        (["classify"], {"kind": "hirzebruch", "n": -BIG},
         "ERROR cremona: InvalidDescriptor: at $.n: Hirzebruch index must be >= 0, got -999"),
        (["construct", "four-lines"], {"lines": FOUR_LINES, "center": [BIG, 7, BIG]},
         "ERROR cremona: QOnConfiguration: center (999"),
    ], ids=["hirzebruch-index", "center-on-a-line"])
    def test_oversized_integer_is_one_short_logged_line(self, argv, doc, prefix):
        proc = run_child(["-m", "cremona", *argv], json.dumps(doc))
        assert_one_logged_line(proc, 1, prefix)
        assert len(proc.stderr.encode()) <= 1024

    def test_overlong_cubic_parameter_is_one_short_logged_line(self):
        # past int()'s 4300 digits a rational literal cannot be checked, so
        # it is refused, not kept verbatim like a non-rational tag
        doc = {"kind": "del-pezzo", "degree": 3,
               "action": {"r": 6, "generators": [jsonio.matrix_json(cubic_coxeter_matrix())]},
               "fixed_point_report": "all-on-exceptional",
               "cubic_family": "s4-lambda", "parameter": "1/" + "0" * 5000}
        proc = run_child(["-m", "cremona", "classify"], json.dumps(doc))
        assert_one_logged_line(proc, 1, "ERROR cremona: IntegerTooLong: at $.parameter: parameter 1/000")
        assert len(proc.stderr.encode()) <= 1024


PUBLIC_NAMES = [
    "BlowupLattice", "Conic", "CremonaError", "DelPezzoDescriptor", "DivisorClass",
    "ExceptionalBundleModel", "ExceptionalDescriptor", "FiberedMarking",
    "HirzebruchDescriptor", "LatticeAction", "Line", "Mobius", "P1Point", "P2Point",
    "RamificationTriplet", "Verdict", "Z22BundleModel", "Z22Descriptor",
    "adjunction_genus", "build_from_four_lines", "build_from_three_lines_conic",
    "classify", "del_pezzo_verdict_for_profile", "delta_canonical_form",
    "enumerate_minus_one_classes", "exceptional_from_delta", "fixed_curve_class",
    "halphen_check", "intersect", "invariant_sublattice", "involution_matrix",
    "is_del_pezzo_bundle", "is_pair_minimal", "jonquieres_involution_matrix",
    "link_feasibility", "minimality_obstruction_solver", "mobius_from_triples",
    "realizable_profiles", "reflection_matrix", "second_fibration_solver",
    "stabilizer", "triplet_canonical_form", "triplet_from_profile",
    "z22_from_triplet",
]


def _with_certificate_key(doc, key):
    doc = json.loads(json.dumps(doc))
    doc["certificate"][key] = 1
    return doc


_FAMILY_11 = {k: v for k, v in jsonio.z22_model_json(four_lines_model()).items()
              if k in ("kind", "triplet", "certificate")}


class TestUnreadKeys:
    """Every JSON object that a command reads refuses, at its ``$.`` path,
    each key that is not null and that its reader does not read."""

    @pytest.mark.parametrize("argv, doc, path, message", [
        (["classify"], {"kind": "hirzebruch", "n": 2, "m": 2}, "$.m", "not read by the hirzebruch row"),
        (["classify"], {"kind": "hirzebruch", "n": 2, "m\rERROR x: ok": 2}, "$.'m\\rERROR x: ok'",
         "not read by the hirzebruch row"),
        (["classify"], {"kind": "del-pezzo", "degree": 4, "iso_class_tg": "generic"},
         "$.iso_class_tg", "not read by the del-pezzo degree 4 row"),
        (["classify"], {"kind": "exceptional", "delta": [0, 1, 2, 3], "detla": [0, 1]},
         "$.detla", "not read by the exceptional row"),
        (["classify"], dict(_FAMILY_11, certficate={}), "$.certficate", "not read by the z22 row"),
        (["classify"], {"kind": "exceptional", "delta": [0, 1, 2, 3], "n": "garbage", "k_squared": 99},
         "$.k_squared", "construct writes 4, not 99"),
        (["classify"],
         dict(FAMILY_08_CUBIC, action={"r": 6, "generator": FAMILY_08_CUBIC["action"]["generators"]}),
         "$.action.generator", "not read by the lattice action"),
        (["classify"], _with_certificate_key(_FAMILY_11, "note"), "$.certificate.note",
         "not read by the certificate"),
        (["construct", "four-lines"], {"lines": FOUR_LINES, "centre": [0, 0, 1]}, "$.centre",
         "not read by construct four-lines"),
        (["construct", "three-lines-conic"],
         {"lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]], "conic": PARABOLA,
          "d1": [1, 7, 3], "d2": [0, 0, 1], "d3": [1, 0, 0]},
         "$.d3", "not read by construct three-lines-conic"),
        (["construct", "three-lines-conic"],
         {"lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]], "conic": dict(PARABOLA, ww=1),
          "d1": [1, 7, 3], "d2": [0, 0, 1]},
         "$.conic.ww", "not read by the conic"),
        (["construct", "three-lines-conic"],
         {"lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]], "conic": dict(PARABOLA, **{"a\nERROR x: ok": 1}),
          "d1": [1, 7, 3], "d2": [0, 0, 1]},
         "$.conic.'a\\nERROR x: ok'", "not read by the conic"),
        (["construct", "z22"], jsonio.z22_model_json(four_lines_model()), "$.generators",
         "not read by construct z22"),
        (["construct", "z22"],
         _with_certificate_key({k: _FAMILY_11[k] for k in ("triplet", "certificate")}, "sorce"),
         "$.certificate.sorce", "not read by the certificate"),
        (["construct", "exceptional"], jsonio.exceptional_model_json(exceptional_model()), "$.aut",
         "not read by construct exceptional"),
        (["canonical", "triplet"], {"triplet": TRIPLET_444, "typo": 1}, "$.typo",
         "not read by canonical triplet"),
        (["canonical", "delta"], {"delta": [0, 1, 2, 3], "typo": 1}, "$.typo",
         "not read by canonical delta"),
        (["lattice", "invariant-rank"],
         {"r": 6, "generator": FAMILY_08_CUBIC["action"]["generators"]},
         "$.generator", "not read by the lattice action"),
        (["lattice", "genus"], {"r": 2, "divisor": [1, 0, 0], "typo": 1}, "$.typo",
         "not read by lattice genus"),
    ], ids=["classify-hirzebruch", "classify-line-break", "classify-del-pezzo", "classify-exceptional", "classify-z22",
            "classify-model-document", "classify-action", "classify-certificate",
            "construct-four-lines", "construct-three-lines-conic", "construct-conic",
            "construct-conic-line-break",
            "construct-z22", "construct-certificate", "construct-exceptional",
            "canonical-triplet", "canonical-delta", "invariant-rank", "genus"])
    def test_one_logged_line_names_the_path(self, argv, doc, path, message):
        proc = run_child(["-m", "cremona", *argv], json.dumps(doc))
        assert_one_logged_line(proc, 1, "ERROR cremona: InvalidDescriptor: ")
        assert proc.stderr == f"ERROR cremona: InvalidDescriptor: at {path}: {message}\n"


def test_public_api_is_pinned():
    assert sorted(cremona.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) <= 45
    for name in PUBLIC_NAMES:
        getattr(cremona, name)


def test_objects_are_read_only_by_the_object_reader():
    # every JSON object is read by jsonio.parse_object, which refuses the keys
    # it does not read, except the top level of a classify input, which
    # parse_descriptor reads by classifier.rule; expect_obj, or a .get on a
    # value that is not a module-level name, anywhere else would skip the rule
    package = pathlib.Path(cremona.__file__).parent
    found = []
    for name in ("jsonio.py", "cli.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        module_names = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                module_names |= {alias.asname or alias.name.split(".")[0] for alias in stmt.names}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                module_names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if getattr(stmt, "name", None) in ("parse_object", "parse_descriptor"):
                continue
            for node in ast.walk(stmt):
                if ((isinstance(node, ast.Name) and node.id == "expect_obj"
                     and isinstance(node.ctx, ast.Load))
                        or (isinstance(node, ast.Attribute) and node.attr == "expect_obj")):
                    found.append(f"{name}:{node.lineno} expect_obj")
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "get"):
                    root = node.func.value
                    while isinstance(root, (ast.Attribute, ast.Subscript)):
                        root = root.value
                    if not (isinstance(root, ast.Name) and root.id in module_names):
                        found.append(f"{name}:{node.lineno} {ast.unparse(node.func)}")
    assert found == []


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements and reads __debug__ as False, which
    # drops an ``if __debug__:`` block; invariants must raise InvariantViolation
    package = pathlib.Path(cremona.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []


def test_no_unused_imports_in_the_package():
    # a deletion that leaves its import behind leaves a dead name
    package = pathlib.Path(cremona.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{stmt.lineno} {name}"
            for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
            and not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")
            for name in (alias.asname or alias.name.split(".")[0] for alias in stmt.names)
            if name not in read
        ]
    assert found == []


def test_no_orphaned_private_names_in_the_package():
    # a rewrite that stops calling a private helper leaves it behind
    package = pathlib.Path(cremona.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{name}:{stmt.lineno} {d}" for d in defined
                      if d.startswith("_") and not d.startswith("__") and d not in read]
    assert found == []


def test_no_value_errors_raised_in_the_package():
    # every failure the package raises is a CremonaError subclass
    package = pathlib.Path(cremona.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
        and ast.unparse(node.exc).split("(")[0] == "ValueError"
    ]
    assert found == []


CI_WORKFLOW = pathlib.Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml"
#: a shell command that starts with the console script (``python -m cremona`` does not)
CONSOLE_SCRIPT = re.compile(r"(?:^|[|;&(]|\btimeout\s+\S+)\s*cremona\b", re.MULTILINE)


def test_ci_runs_the_console_script_in_two_steps():
    # one report and one refusal through the installed script; every other CLI
    # contract is a row of these tests, which CI runs as tier-1
    steps = CI_WORKFLOW.read_text().split("- name:")
    running = [step.splitlines()[0].strip() for step in steps if CONSOLE_SCRIPT.search(step)]
    assert running == ["Console script prints the README's first example",
                       "A parameter that its cubic family does not read is one logged refusal"]


def test_cli_import_leaves_the_suites_and_corpus_unloaded():
    proc = run_child(["-c", "import sys, cremona.cli; "
                            "print(sorted(m for m in sys.modules "
                            "if m in ('cremona.suites', 'cremona.corpus')))"], "")
    assert proc.returncode == 0 and proc.stdout == "[]\n"


LAZY_PACKAGE_CHECK = """
import sys
import cremona
loaded = sorted(m for m in sys.modules if m.startswith("cremona."))
strays = []
for name in cremona.__all__:
    obj = getattr(cremona, name)
    if not (obj.__module__.startswith("cremona.")
            and getattr(sys.modules[obj.__module__], name) is obj):
        strays.append(name)
try:
    cremona.no_such_name
    missing_name = "no error"
except AttributeError:
    missing_name = "AttributeError"
print(loaded, len(cremona.__all__), strays, missing_name)
"""


def test_package_loads_each_module_on_first_use():
    # a fresh import loads no submodule; each public name is the object of
    # the module that defines it; an unknown name is an AttributeError
    proc = run_child(["-c", LAZY_PACKAGE_CHECK], "")
    assert proc.returncode == 0
    assert proc.stdout == "[] 44 [] AttributeError\n"


def test_cli_import_loads_only_cli_and_errors():
    proc = run_child(["-c", "import sys, cremona.cli; "
                            "print(sorted(m for m in sys.modules "
                            "if m.split('.')[0] == 'cremona'))"], "")
    assert proc.returncode == 0
    assert proc.stdout == "['cremona', 'cremona.cli', 'cremona.errors']\n"


@pytest.mark.parametrize("argv, doc, loaded", [
    (["canonical", "delta"], {"delta": [0, 1, 2, 3]}, []),
    (["lattice", "genus"], {"r": 1, "divisor": [1, 0]}, []),
    # fractions (and decimal with it) is read only for "p/q" text rationals
    (["classify"], {"kind": "z22", "triplet": [[0, 1, 2, 3, 4, 5, 6, 7],
                                               [0, 1, 2, 3, 8, 9, 10, 11],
                                               [4, 5, 6, 7, 8, 9, 10, 11]]},
     ["cremona.bundles", "cremona.classifier"]),
], ids=["canonical-delta", "lattice-genus", "classify-z22"])
def test_command_loads_only_what_it_needs(argv, doc, loaded):
    script = ("import sys\n"
              "from cremona.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, sorted(m for m in ('cremona.bundles', 'cremona.classifier', "
              "'fractions') if m in sys.modules))\n")
    proc = run_child(["-c", script], json.dumps(doc))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == f"0 {loaded}"


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # a usage error and --help leave the parser reusable; every call prints
    # and returns what a fresh process does
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        (["classify"], {"kind": "hirzebruch", "n": 4}),
        (["classify", "--bogus"], None),
        (["--help"], None),
        (["lattice", "minus-one-count", "--r", "3"], None),
        (["construct", "four-lines"], FOUR_LINES_DOC),
        (["classify"], {"kind": "del-pezzo", "degree": 6}),
    ]
    cli.build_parser.cache_clear()
    for argv, doc in calls:
        stdin = "" if doc is None else json.dumps(doc)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        fresh = run_child(["-m", "cremona", *argv], stdin)
        assert (capsys.readouterr().out, code) == (fresh.stdout, fresh.returncode), argv
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


#: command lines for the dispatch: help at each level, usage errors before,
#: inside and after a command, abbreviations, ``--`` and ``--opt=value``
DISPATCH_ARGV = [
    [], ["--help"], ["-h"], ["bogus"], ["class"], ["-i", "x", "classify"], ["--", "classify"],
    ["classify"], ["classify", "-h"], ["classify", "--bogus"], ["classify", "extra"],
    ["classify", "--links", "--inp", "a.json", "-o", "b.json"], ["classify", "--"],
    ["classify", "--input"], ["construct"], ["construct", "bogus"],
    ["construct", "z22", "-i", "x.json"], ["construct", "--", "z22"],
    ["construct", "four-lines", "--help"],
    ["canonical", "delta", "--", "x"], ["lattice"], ["lattice", "-h"], ["lattice", "bogus"],
    ["lattice", "minus-one-count"], ["lattice", "minus-one-count", "--r", "abc"],
    ["lattice", "minus-one-count", "--r=2", "--li"], ["lattice", "genus", "--input=-", "x"],
    ["verify", "--suite", "all", "-o", "out.json"],
]


def _parsed(parse, argv):
    """(stdout, stderr, SystemExit code or None, namespace without the
    command names) of one parse of ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    code = args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    if args is not None:
        args = {k: v for k, v in args.items() if k not in ("command", "lattice_cmd")}
    return out.getvalue(), err.getvalue(), code, args


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_dispatch_parses_as_the_whole_tree(monkeypatch, argv):
    # the command's own parser, with the whole tree for what it cannot take,
    # prints, exits and parses as the whole tree does; argparse's error paths
    # differ between Python versions, so every row runs on every version
    monkeypatch.setenv("COLUMNS", "80")
    assert _parsed(cli._parse, argv) == _parsed(cli.build_parser().parse_args, argv)


def test_workload_command_lines_reach_only_their_command_parser(monkeypatch):
    from test_stage_digest import _build_ops

    # every command line the benchmark runs parses as the whole tree parses
    # it, and the top-level parser is never asked
    build_ops = _build_ops()
    stages = {argv for workload in ("klein-four-sweep", "branch-delta", "model-build")
              for op in build_ops(workload, 71) for argv in op.stages}
    parser = cli.build_parser()
    expected = {argv: _parsed(parser.parse_args, argv) for argv in stages}
    calls = []
    monkeypatch.setattr(parser, "parse_known_args", lambda *a, **k: calls.append(a))
    for argv in stages:
        assert _parsed(cli._parse, argv) == expected[argv]
        assert expected[argv][2] is None
    assert calls == []


def test_cli_import_loads_neither_dataclasses_nor_logging():
    proc = run_child(["-c", "import sys; before = set(sys.modules); import cremona.cli; "
                            "print(sorted(set(sys.modules) - before))"], "")
    loaded = set(ast.literal_eval(proc.stdout))
    assert "cremona.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "logging", "traceback", "string"}


#: the least level that each value of CREMONA_LOG lets through; None is unset
LOG_THRESHOLDS = {None: 30, "debug": 10, "DEBUG": 10, "info": 20, "warning": 30, "warn": 30,
                  "error": 40, "critical": 50, "fatal": 50, "notset": 30, "bogus": 30, "": 30}
BAD_HIRZEBRUCH = '{"kind": "hirzebruch", "n": "x"}'
Z22_222 = '{"kind": "z22", "triplet": [[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]]}'
Z22_222_REASON = "profile (2, 2, 2) needs a geometric realization certificate to decide"
Z22_222_REPORT = f'{{\n  "outcome": "indeterminate",\n  "reason": "{Z22_222_REASON}"\n}}\n'
#: argv, stdin, exit code, stdout, the level of the one line it may log, and that line
LOGGED_RUNS = [
    (["classify"], Z22_222, 2, Z22_222_REPORT, 20,
     f"INFO cremona: indeterminate verdict: {Z22_222_REASON}\n"),
    (["classify"], BAD_HIRZEBRUCH, 1, "", 40,
     "ERROR cremona: InvalidDescriptor: at $.n: expected an integer, got 'x'\n"),
    (["verify", "--suite", "nosuch"], "", 1, "", 40,
     "ERROR cremona: unknown suite 'nosuch'; choose from geometry, picard, square-class, "
     "bundles, classifier, all\n"),
]
#: a logged error and a logged indeterminate verdict: stdin, CREMONA_LOG, exit code
LOST_LINE_RUNS = [(BAD_HIRZEBRUCH, "warning", 1), (Z22_222, "debug", 2)]


class TestLoggingSetUp:
    """The CLI writes its log lines itself: ``logging`` is never loaded, and
    each line goes to the stderr of its moment, at the level CREMONA_LOG names."""

    SCRIPT = ("import sys\n"
              "from cremona.cli import main\n"
              "code = main(['classify'])\n"
              "print(code, 'logging' in sys.modules)\n")

    def test_a_run_that_logs_nothing_never_loads_it(self):
        proc = run_child(["-c", self.SCRIPT], '{"kind": "hirzebruch", "n": 2}')
        assert proc.stdout.splitlines()[-1] == "0 False" and proc.stderr == ""

    def test_cremona_log_and_a_logged_line_never_load_it(self):
        proc = run_child(["-c", self.SCRIPT], Z22_222, log="debug")
        assert proc.stdout.splitlines()[-1] == "2 False"
        assert proc.stderr == f"INFO cremona: indeterminate verdict: {Z22_222_REASON}\n"

    def test_debug_level_logs_the_indeterminate_verdict(self):
        doc = json.dumps({"kind": "z22", "triplet": [[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]]})
        proc = run_child(["-m", "cremona", "classify"], doc, log="debug")
        assert proc.returncode == 2
        assert proc.stderr.startswith("INFO cremona: indeterminate verdict: profile (2, 2, 2)")
        assert len(proc.stderr.splitlines()) == 1
        quiet = run_child(["-m", "cremona", "classify"], doc)
        assert quiet.returncode == 2 and quiet.stderr == ""
        assert quiet.stdout == proc.stdout

    def test_each_call_logs_to_the_stderr_of_its_moment(self, monkeypatch):
        # the handler writes to sys.stderr as it is when a line is logged, so
        # a second in-process call under another stream still logs its line
        lines = []
        for n in ("x", "y"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"kind": "hirzebruch", "n": n})))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["classify"]) == 1
            lines.append(err.getvalue())
        assert lines == [f"ERROR cremona: InvalidDescriptor: at $.n: expected an integer, got {n!r}\n"
                         for n in ("x", "y")]

    def test_root_logging_of_the_caller_gets_no_copy(self):
        # a program that set up root logging and calls main in process sees
        # each line once
        script = ("import logging\n"
                  "logging.basicConfig()\n"
                  "from cremona.cli import main\n"
                  "print(main(['classify']))\n")
        proc = run_child(["-c", script], BAD_HIRZEBRUCH)
        assert proc.stdout == "1\n"
        assert proc.stderr == "ERROR cremona: InvalidDescriptor: at $.n: expected an integer, got 'x'\n"

    @pytest.mark.parametrize("log", LOG_THRESHOLDS, ids=repr)
    def test_bytes_at_each_level(self, log):
        # the three commands run side by side, each in its own interpreter
        procs = [(subprocess.Popen([sys.executable, "-m", "cremona", *argv], stdin=subprocess.PIPE,
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                   env=child_env(log)), stdin)
                 for argv, stdin, *_ in LOGGED_RUNS]
        runs = [(*proc.communicate(stdin, timeout=60), proc.returncode) for proc, stdin in procs]
        assert runs == [(stdout, line if level >= LOG_THRESHOLDS[log] else "", code)
                        for _, _, code, stdout, level, line in LOGGED_RUNS]

    @pytest.mark.parametrize("doc, log, code", LOST_LINE_RUNS)
    def test_no_stderr_loses_the_line(self, monkeypatch, doc, log, code):
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        monkeypatch.setattr(sys, "stderr", None)
        monkeypatch.setenv("CREMONA_LOG", log)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["classify"]) == code

    @pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"])
    @pytest.mark.parametrize("doc, log, code", LOST_LINE_RUNS)
    def test_a_closed_or_full_stderr_loses_the_line(self, redirect, doc, log, code):
        if redirect.endswith("/dev/full") and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        proc = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "cremona", "classify"],
            input=doc, stdout=subprocess.PIPE, text=True, env=child_env(log), timeout=60)
        assert proc.returncode == code
        assert proc.stdout == (Z22_222_REPORT if code == 2 else "")


class TestVerifyCommand:
    def test_single_suite(self, tmp_path):
        code, report = run(tmp_path, ["verify", "--suite", "geometry"])
        assert code == 0
        assert report["failures"] == 0
        assert all(c["status"] == "ok" for c in report["checks"])

    def test_unknown_suite(self, tmp_path):
        code, report = run(tmp_path, ["verify", "--suite", "nonsense"])
        assert code == 1 and report is None

    def test_unknown_suite_is_one_logged_line_naming_the_suites(self):
        proc = run_child(["-m", "cremona", "verify", "--suite", "nosuch"], "")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("ERROR cremona: unknown suite 'nosuch'; choose from geometry, "
                               "picard, square-class, bundles, classifier, all\n")

    def test_all_suites(self, tmp_path):
        code, report = run(tmp_path, ["verify", "--suite", "all"])
        assert code == 0
        assert report["failures"] == 0
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names)) >= 15

    def test_failed_rows_are_reported_and_exit_3(self, tmp_path, monkeypatch, capsys):
        def raises():
            raise ZeroDivisionError("the thunk failed")

        (first, computed, _), (second, _, frozen), *rest = suites.SUITES["geometry"]
        monkeypatch.setitem(suites.SUITES, "geometry", (
            (first, computed, lambda: "a wrong frozen value"),
            (second, raises, frozen),
            *rest))
        code, report = run(tmp_path, ["verify", "--suite", "geometry"])
        assert code == 3
        assert report["failures"] == 2
        failed = [c for c in report["checks"] if c["status"] == "failed"]
        assert [c["name"] for c in failed] == [first, second]
        assert failed[0]["error"].startswith(
            "InvariantViolation: expected 'a wrong frozen value', got ")
        assert failed[1]["error"] == "ZeroDivisionError: the thunk failed"
        assert logged_lines(capsys) == [f"check {c['name']} failed: {c['error']}" for c in failed]
