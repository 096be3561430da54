"""Session plumbing shared by the four input-generation analyses.

A session is a resumable state machine driven by the fuzzing loop: each
iteration pulls the next input to execute and feeds back the execution
result.  Internally the analyses are written as generator coroutines;
this adapter layers the per-session execution cache and call budget on
top, so cache hits are resolved without surfacing an input to the loop.
A session also owns its outcome: ``feed`` sets ``achieving_input`` to
the input after whose execution some trace has taken the goal direction
at the node, and the loop then deactivates the session.

A session keeps the node's best result as it was when the session was
built, as ``best``.  An execution's value is |f| at the node, which
``mapped_value`` reads off a trace that follows the best trace's path to
the node, or ``failure_value`` for a trace that does not; sensitivity
keeps no value (see ``SensitivitySession.feed``).
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from ..exec_tree import TreeNode
from ..target_abi import VALUE, ExecutionResult, differing_positions


class AnalysisKind(Enum):
    SENSITIVITY = "sensitivity"
    BITSHARE = "bitshare"
    TYPED_MINIMIZATION = "typed_minimization"
    MINIMIZATION = "minimization"


class AnalysisSession:
    kind: AnalysisKind
    # whether the session's ``anchor`` places the mapping of its traces
    anchored = False
    # ExecuteTarget calls after which the session deactivates itself
    call_budget = math.inf
    # the value of a trace missing the node, or of an f that is not finite
    failure_value = math.inf

    def __init__(self, node: TreeNode, goal_direction: Optional[bool] = None):
        self.node = node
        self.goal_direction = goal_direction
        self.calls = 0            # ExecuteTarget calls, cache hits included
        self.executions = 0       # real target executions
        # the input that observed the goal direction, once one has
        self.achieving_input: Optional[bytes] = None
        self.cache: dict[bytes, float] = {}  # keyed by the input itself
        self._gen = self._run()
        self._feed_value = None  # send(None) starts the generator
        self._pending: Optional[bytes] = None  # input awaiting its result
        self.best = node.best
        # the records of the path to the node: ids and directions are
        # those of every trace reaching it, the values are the best ones
        self.base_trace = self.best.trace[:node.depth + 1]

    # -- driving ----------------------------------------------------------

    def next_input(self) -> Optional[bytes]:
        """Next input needing a target execution, or None once the
        session is over: its coroutine has ended, or the session is
        closed, by the loop or by its call budget."""
        if self._pending is not None:
            raise RuntimeError("previous input has not been fed a result")
        while True:
            try:
                item = self._gen.send(self._feed_value)
            except StopIteration:
                return None
            if self.calls >= self.call_budget:
                self.close()
                return None
            self.calls += 1
            if item in self.cache:
                self._feed_value = self.cache[item]
                continue
            self._pending = item
            return item

    def close(self) -> None:
        """Deactivate the session.  Its coroutine ends, and with it the
        coroutine frame's reference back to the session, so a dropped
        session, and the nodes it holds, are freed by reference
        counting instead of waiting for the cyclic collector."""
        self._gen.close()

    def feed(self, result: ExecutionResult) -> None:
        """Hand the pending input's result to the analysis.  Its trace is
        already mapped, so the node's ``seen`` shows whether the goal
        direction has now been observed."""
        if self._pending is None:
            raise RuntimeError("no input pending")
        value = self._value_of(result)
        self.executions += 1
        self.cache[self._pending] = value
        goal = self.goal_direction
        if goal is not None and self.node.seen >> goal & 1:
            self.achieving_input = self._pending
        self._pending = None
        self._feed_value = value

    # -- trace mapping ------------------------------------------------------

    def mapped_value(self, result: ExecutionResult) -> Optional[float]:
        """Branching value at the session node, or None if the trace does
        not reach it: a trace longer than the node's depth with the path's
        ids up to the node and its directions before it.  Only the records
        that differ from the path's are looked at."""
        trace = result.trace
        base = self.base_trace
        depth = self.node.depth
        if len(trace) <= depth:
            return None
        for p in differing_positions(trace, base):
            rid, direction, _, _, _ = trace[p]
            path_id, path_direction, _, _, _ = base[p]
            if rid != path_id or p < depth and direction != path_direction:
                return None
        return trace[depth][VALUE]

    def _value_of(self, result: ExecutionResult) -> float:
        """|f| at the node, or ``failure_value``."""
        value = self.mapped_value(result)
        if value is None or not math.isfinite(value):
            return self.failure_value
        return abs(value)

    # -- to implement -------------------------------------------------------

    def _run(self):
        raise NotImplementedError


class DescentSession(AnalysisSession):
    """Base for the two gradient-descent analyses, which descend from the
    best input over the session's value.  Logs accepted values per seed
    so descent monotonicity is checkable after the run."""

    def __init__(self, node: TreeNode, goal_direction: bool, rng):
        super().__init__(node, goal_direction)
        self.rng = rng
        self.base = self.best.bytes_read
        self.descent_logs: list[list[float]] = []
