"""A bounded fuzz of ``cli.main`` on mutated valid documents.

Each example takes a valid input of one command, changes one to three
places in it (a value replaced by a wrong one, a key or an entry dropped,
an entry repeated) and runs the command in process.  Whatever the input,
the exit code is 0, 1 or 2, no exception escapes, and an exit 1 logs
exactly one ``ERROR cremona:`` line to stderr.  The example count is fixed
and the examples are derandomized, so a failure reproduces.
"""

import contextlib
import copy
import io
import json
import random
import sys
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import jsonio
from cremona.cli import main
from cremona.corpus import cubic_coxeter_matrix, four_lines_model

_COXETER = jsonio.matrix_json(cubic_coxeter_matrix())


def _del_pezzo(degree, **keys):
    return {"kind": "del-pezzo", "degree": degree, **keys}


#: one descriptor per golden verdict
GOLDEN = [
    _del_pezzo(9), _del_pezzo(8, p1xp1=True), _del_pezzo(8), _del_pezzo(7), _del_pezzo(6),
    _del_pezzo(5), _del_pezzo(4, iso_class_tag="generic"),
    _del_pezzo(3, action={"r": 6, "generators": [_COXETER]},
               fixed_point_report="all-on-exceptional", cubic_family="triple-cover",
               parameter="0"),
    _del_pezzo(3, action={"r": 6, "generators": [_COXETER]},
               fixed_point_report="off-exceptional"),
    _del_pezzo(2, quartic_row=[336, "2xL2(7)"]), _del_pezzo(2), _del_pezzo(1, iso_class_tag="x"),
    {"kind": "hirzebruch", "n": 2}, {"kind": "hirzebruch", "n": 1},
    {"kind": "exceptional", "delta": [0, 1, 2, 3]}, {"kind": "exceptional", "delta": [0, 1]},
    jsonio.z22_model_json(four_lines_model()),
    {"kind": "z22", "triplet": [[0, 1], [0, 2], [1, 2]]},
]


def _long_points(n, seed):
    """n seeded points of P^1 with 60-digit coordinates."""
    rng = random.Random(seed)
    return [[rng.choice((1, -1)) * rng.randrange(10**59, 10**60), rng.randrange(10**59, 10**60)]
            for _ in range(n)]


#: the (4, 4, 4) triplet moved by t -> (2t + 1) / (t + 3)
_MOVED_444 = [[[2 * t + 1, t + 3] for t in s]
              for s in ([0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 8, 9, 10, 11], [4, 5, 6, 7, 8, 9, 10, 11])]

#: a valid document for each of the other commands; the last four give the
#: canonical-form kernels many points, long coordinates or a moved triplet
COMMANDS = [
    (["construct", "four-lines"],
     {"lines": [[1, 0, -1], [0, 1, -1], [1, 1, -3], [1, -1, -2]], "center": [0, 0, 1]}),
    (["construct", "three-lines-conic"],
     {"lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]], "conic": {"xx": 1, "yz": -1},
      "d1": [1, 7, 3], "d2": [0, 0, 1]}),
    (["construct", "z22"], {"triplet": [[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]]}),
    (["construct", "exceptional"], {"delta": [0, 1, -1, "inf", "1/2", 3]}),
    (["lattice", "invariant-rank"], {"r": 6, "generators": [_COXETER]}),
    (["lattice", "genus"], {"r": 3, "divisor": [3, 1, 1, 1]}),
    (["canonical", "triplet"], {"triplet": [[0, 1], [0, "1/2"], [1, "1/2"]]}),
    (["canonical", "delta"], {"delta": [0, 1, -1, 2, "inf", "1/3"]}),
    (["canonical", "delta"], {"delta": _long_points(20, 1)}),
    (["construct", "exceptional"], {"delta": _long_points(12, 2)}),  # 12: the most r <= 13 allows
    (["canonical", "triplet"], {"triplet": _MOVED_444}),
    (["classify"], {"kind": "z22", "triplet": _MOVED_444}),
]

WRONG = st.one_of(
    st.integers(-3, 14),
    st.sampled_from([10**40, -(10**40), 1.5, True, False, None, "", "x", "1/0", "0/0", "inf",
                     "-2/4", [], {}, [0], [0, 0], [0, 0, 0], [[1, 0], [0, 1]], {"r": 2}]),
)


#: entering a container is likelier than changing it, and ``kind`` is left
#: alone, so that most changes reach past the first check of a document
_DICT_ACTIONS = ("enter",) * 4 + ("replace", "drop")
_LIST_ACTIONS = ("enter",) * 4 + ("replace", "drop", "repeat")


def mutate(draw, doc):
    """``doc`` with one place changed; containers are entered at random."""
    if isinstance(doc, dict) and set(doc) - {"kind"}:
        key = draw(st.sampled_from(sorted(set(doc) - {"kind"})))
        action = draw(st.sampled_from(_DICT_ACTIONS))
        if action == "drop":
            return {k: v for k, v in doc.items() if k != key}
        value = mutate(draw, doc[key]) if action == "enter" else draw(WRONG)
        return {**doc, key: value}
    if isinstance(doc, list) and doc:
        i = draw(st.integers(0, len(doc) - 1))
        action = draw(st.sampled_from(_LIST_ACTIONS))
        if action == "drop":
            return doc[:i] + doc[i + 1:]
        if action == "repeat":
            return doc[:i + 1] + doc[i:]
        value = mutate(draw, doc[i]) if action == "enter" else draw(WRONG)
        return doc[:i] + [value] + doc[i + 1:]
    return draw(WRONG)


def run_mutated(data, argv, doc):
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(data.draw, doc)
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(copy.deepcopy(doc)))
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = stdin
    # a message may span lines; each logged error starts one with its prefix
    lines = [line for line in err.getvalue().splitlines() if line.startswith("ERROR cremona: ")]
    assert code in (0, 1, 2), (argv, doc)
    if code == 1:
        assert len(lines) == 1, (argv, doc, lines)
    else:
        assert lines == [], (argv, doc, lines)


@settings(max_examples=250, deadline=timedelta(seconds=2), derandomize=True)
@given(data=st.data())
def test_classify_mutated_golden_descriptors(data):
    doc = data.draw(st.sampled_from(GOLDEN))
    links = data.draw(st.booleans())
    run_mutated(data, ["classify", "--links"] if links else ["classify"], doc)


@settings(max_examples=250, deadline=timedelta(seconds=2), derandomize=True)
@given(data=st.data())
def test_other_commands_on_mutated_documents(data):
    argv, doc = data.draw(st.sampled_from(COMMANDS))
    run_mutated(data, argv, doc)
