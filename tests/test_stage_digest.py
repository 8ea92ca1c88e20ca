"""Every benchmark stage's bytes, pinned per stage.

Each stage of the ``klein-four-sweep``, ``branch-delta``, ``model-build`` and
``cli-cold`` workloads at seeds 71 and 72 (``bench/workloads.build_ops``,
imported read only) runs through ``cli.main`` in process, with its own
stdin, stdout and stderr, ``cli-cold`` too, though the benchmark runs it in
fresh interpreters.  The sha256 of its exit code, stdout and stderr must
equal the entry of ``stage_digest.json`` keyed by workload, seed and stage
name, so a change in any report or logged line names the stages it moved.
A change that moves a stage on purpose rewrites the file with
``python tests/test_stage_digest.py`` and lists the moved stages in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGEST_PATH = pathlib.Path(__file__).with_name("stage_digest.json")
WORKLOADS = ("klein-four-sweep", "branch-delta", "model-build", "cli-cold")
SEEDS = (71, 72)


def _build_ops():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return workloads.build_ops


def _run_stage(main, argv, stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def stage_digests() -> dict[str, str]:
    """``"<workload> <seed> <stage>"`` -> sha256 of the stage's exit code,
    stdout and stderr; a later stage of a pipe reads the stdout before it."""
    from cremona.cli import main

    build_ops = _build_ops()
    digests = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for op in build_ops(workload, seed):
                text = op.stdin
                for i, argv in enumerate(op.stages):
                    code, text, err = _run_stage(main, argv, text)
                    name = op.name if len(op.stages) == 1 else f"{op.name} | {i}"
                    blob = json.dumps([code, text, err]).encode()
                    digests[f"{workload} {seed} {name}"] = hashlib.sha256(blob).hexdigest()
    return digests


def test_every_stage_keeps_its_bytes(monkeypatch):
    monkeypatch.delenv("CREMONA_LOG", raising=False)
    expected = json.loads(DIGEST_PATH.read_text(encoding="utf-8"))
    found = stage_digests()
    assert found.keys() == expected.keys()
    moved = [stage for stage in expected if found[stage] != expected[stage]]
    assert moved == [], f"{len(moved)} stages moved: {moved}"


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    DIGEST_PATH.write_text(json.dumps(stage_digests(), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
