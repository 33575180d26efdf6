"""Property test: a valid input file with one field mutated (set to a value of
another JSON type, an extreme number, or deleted) gets a documented exit
code from the CLI, never a traceback, and a report printed with exit 0 is
strict JSON (no NaN or Infinity)."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cohkit as ck
from cohkit.cli import main

DELETE = object()
REPLACEMENTS = (None, True, False, "0.5", [], [1], {}, {"re": 1},
                1e308, -1e308, 10 ** 30, DELETE)


def _channel():
    target = ck.PureState(np.sqrt([0.7, 0.3]).astype(complex))
    data = ck.synthesize_pure_transformation(ck.maximally_coherent(2),
                                             target).to_dict()
    # from_dict derives the dimensions from the Kraus operators.
    del data["dim_in"], data["dim_out"]
    return data


# (file kind, valid document, CLI arguments after the file's path).
DOCUMENTS = {
    "state": (ck.DensityMatrix([[0.5, 0.3], [0.3, 0.5]]).to_dict(),
              ["measure", "--which", "cf", "--restarts", "1", "--state"]),
    "pure": (ck.PureState(np.sqrt([0.7, 0.3]).astype(complex)).to_dict(),
             ["measure", "--which", "c", "--state"]),
    "ensemble": (ck.Ensemble(np.array([0.5, 0.5]),
                             [ck.PureState([1.0, 0.0]),
                              ck.PureState(np.sqrt([0.5, 0.5]))]).to_dict(),
                 ["simulate", "cover", "--n", "4", "--subset-size", "2",
                  "--trials", "1", "--state"]),
    "channel": (_channel(), ["classify", "--channel"]),
    "partition": (ck.BasisPartition(2, [[0], [1]]).to_dict(),
                  ["classify", "--channel", "@channel", "--partition"]),
}


def _paths(node, prefix=()):
    """Every key path into a JSON document, parents before children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc, old


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in a report")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the valid channel the partition files go with."""
    path = tmp_path_factory.mktemp("inputs")
    (path / "valid_channel.json").write_text(
        json.dumps(DOCUMENTS["channel"][0]))
    return path


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_file_gets_a_documented_exit_code(
        data, workdir, capsys):
    kind = data.draw(st.sampled_from(sorted(DOCUMENTS)))
    doc, args = DOCUMENTS[kind]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(st.sampled_from(REPLACEMENTS))
    mutated, old = _mutate(doc, path, value)
    file = workdir / f"{kind}.json"
    file.write_text(json.dumps(mutated))
    argv = [str(workdir / "valid_channel.json") if a == "@channel" else a
            for a in args]
    code = main(argv + [str(file)])
    out = capsys.readouterr().out
    assert code in (0, 1, 2, 3)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    # A number the program reads never passes as a bool or a string.
    numeric = isinstance(old, (int, float)) and not isinstance(old, bool)
    if numeric and isinstance(value, (bool, str)):
        assert code == 2
