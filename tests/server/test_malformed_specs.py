"""Malformed problem specs are bad requests, in both problem formats.

Every case raises :class:`InvalidProblemError` from ``problem_from_dict``
(never a bare ``ValueError``, ``KeyError`` or ``TypeError``), so a
server answers it with the documented ``bad_request`` code instead of
``internal``.  A pair listed twice and a fractional plan index are
rejected rather than silently accepted.
"""

import pytest

from repro.exceptions import InvalidProblemError, ServerError
from repro.mqo.serialization import problem_from_dict
from repro.server.client import SolverClient

COSTS = [[1.0, 2.0], [3.0, 4.0]]


def _format1(savings, plans_per_query=COSTS):
    return {"format_version": 1, "plans_per_query": plans_per_query, "savings": savings}


def _format2(savings, plans_per_query=COSTS):
    return {"format_version": 2, "plans_per_query": plans_per_query, "savings": savings}


#: (case id, problem dict, fragment of the expected error message).
CASES = [
    ("f1-one-plan", _format1([{"plans": [0], "value": 1.0}]), "must name two plans"),
    ("f2-one-plan", _format2({"p1": [0], "p2": [], "value": [1.0]}), "differ in length"),
    ("f1-no-value", _format1([{"plans": [0, 2]}]), "'plans' and 'value'"),
    ("f2-no-value", _format2({"p1": [0], "p2": [2]}), "missing savings column 'value'"),
    (
        "f1-non-numeric-plan",
        _format1([{"plans": ["a", 2], "value": 1.0}]),
        "plan indices must be integers",
    ),
    (
        "f2-non-numeric-plan",
        _format2({"p1": ["a"], "p2": [2], "value": [1.0]}),
        "plan indices must be integers",
    ),
    (
        "f1-non-numeric-cost",
        _format1([], plans_per_query=[["x", 1.0], [3.0, 4.0]]),
        "plan costs must be numbers",
    ),
    (
        "f2-non-numeric-cost",
        _format2({"p1": [], "p2": [], "value": []}, plans_per_query=[["x", 1.0], [3.0, 4.0]]),
        "plan costs must be numbers",
    ),
    ("f1-savings-not-a-list", _format1({"plans": [0, 2], "value": 1.0}), "must be a list"),
    ("f2-savings-not-an-object", _format2([[0, 2, 1.0]]), "must be an object"),
    (
        "f1-pair-twice",
        _format1([{"plans": [0, 2], "value": 1.0}, {"plans": [0, 2], "value": 2.0}]),
        "duplicate savings entry for plan pair (0, 2)",
    ),
    (
        "f2-pair-twice",
        _format2({"p1": [0, 0], "p2": [2, 2], "value": [1.0, 2.0]}),
        "duplicate savings entry for plan pair (0, 2)",
    ),
    (
        "f1-fractional-plan",
        _format1([{"plans": [0.7, 2], "value": 1.0}]),
        "must be integers, got 0.7",
    ),
    (
        "f2-fractional-plan",
        _format2({"p1": [0.7], "p2": [2], "value": [1.0]}),
        "must be integers, got 0.7",
    ),
    (
        "f2-unequal-columns",
        _format2({"p1": [0, 1], "p2": [2, 3], "value": [1.0]}),
        "differ in length",
    ),
]
IDS = [case_id for case_id, _, _ in CASES]


@pytest.mark.parametrize("case_id, data, fragment", CASES, ids=IDS)
def test_problem_from_dict_raises_invalid_problem(case_id, data, fragment):
    with pytest.raises(InvalidProblemError) as excinfo:
        problem_from_dict(data)
    assert fragment in str(excinfo.value)


def test_thread_server_answers_bad_request(server_factory):
    handle = server_factory()
    with SolverClient(port=handle.port) as client:
        for case_id, data, fragment in CASES:
            with pytest.raises(ServerError) as excinfo:
                client.solve({"problem": data}, solver="STEP", budget_ms=100.0)
            message = str(excinfo.value)
            assert message.startswith("[bad_request]"), (case_id, message)
            assert fragment in message, (case_id, message)
        assert client.ping()
