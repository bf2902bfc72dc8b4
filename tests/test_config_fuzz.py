"""parse_scenario on arbitrary JSON values raises ConfigError and nothing else.

Runs under the `ci` Hypothesis profile that tests/conftest.py loads.
"""

import copy
import json

from hypothesis import given
from hypothesis import strategies as st

from pseudomode import ConfigError, parse_scenario

# every key the schema knows, so that generated objects reach the nested blocks
KEYS = (
    "scenario", "system", "bath", "time", "numerics", "trajectories", "output",
    "preset", "d_S", "detuning", "initial_fock", "kind", "f2", "g", "omega0", "gamma",
    "t0", "t1", "n_points", "rel_tol", "abs_tol", "max_step", "initial_step", "d_A",
    "truncation_tol", "n_modes", "W", "h", "n_traj", "seed",
)

# the values json.loads can return: NaN and the infinities are its extensions,
# and integer literals have no size limit
scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=12) | st.sampled_from(["auto", "flat", "lorentzian",
                                                     "oscillator", "tls_sigma_minus"]))
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6),
                                        children, max_size=6)),
    max_leaves=16,
)

VALID = (
    {
        "scenario": "markovian",
        "system": {"preset": "tls_sigma_minus"},
        "bath": {"kind": "flat", "f2": 1.0},
        "time": {"t0": 0.0, "t1": 1.0, "n_points": 11},
        "output": "out.csv",
    },
    {
        "scenario": "pseudomode",
        "system": {"preset": "oscillator", "d_S": 4, "initial_fock": 3, "detuning": 0.5},
        "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.2},
        "time": {"t0": 0.0, "t1": 10.0, "n_points": 101},
        "numerics": {"d_A": "auto", "truncation_tol": 1e-7, "rel_tol": 1e-9},
        "output": "osc.csv",
    },
    {
        "scenario": "compare",
        "system": {"preset": "tls_sigma_minus", "initial_fock": 1},
        "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.2},
        "time": {"t0": 0.0, "t1": 10.0, "n_points": 201},
        "numerics": {"d_A": 3, "n_modes": 400, "W": 4.0, "h": 0.01},
        "output": "cmp.csv",
    },
    {
        "scenario": "trajectories",
        "system": {"preset": "tls_sigma_minus"},
        "bath": {"kind": "flat", "f2": 1.0},
        "time": {"t0": 0.0, "t1": 1.0, "n_points": 11},
        "numerics": {"rel_tol": 1e-6, "abs_tol": 1e-9},
        "trajectories": {"n_traj": 10, "seed": 11},
        "output": "traj.csv",
    },
)


def parses_or_config_error(doc):
    try:
        parse_scenario(doc)
    except ConfigError:
        pass


def key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def test_valid_documents_parse():
    for doc in VALID:
        parse_scenario(copy.deepcopy(doc))


@given(json_values)
def test_arbitrary_json_value(value):
    parses_or_config_error(value)


@given(st.data())
def test_single_key_mutation(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(VALID)))
    path = data.draw(st.sampled_from(list(key_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[path[-1]] = data.draw(json_values)
    elif action == "delete":
        del parent[path[-1]]
    else:
        parent[data.draw(st.sampled_from(KEYS) | st.text(max_size=6))] = data.draw(json_values)
    parses_or_config_error(doc)


def test_huge_integer_literal_is_a_config_error():
    # json.loads keeps an integer literal exact, however large; float() of it overflows
    doc = copy.deepcopy(VALID[0])
    doc["time"]["t1"] = json.loads("1" + "0" * 400)
    try:
        parse_scenario(doc)
    except ConfigError as exc:
        assert "time.t1 must be finite" in str(exc)
    else:
        raise AssertionError("a 401-digit time.t1 parsed")
