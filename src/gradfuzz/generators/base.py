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
built, as ``best``.  Every analysis judges an execution by one path
check, ``prefix_agreement``: how far its trace follows that best trace
up to the node.  A trace reaches the node when it follows it all the
way, and ``mapped_value`` then reads the node's branching value from it.
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

    def __init__(self, node: TreeNode, goal_direction: Optional[bool] = None):
        self.node = node
        self.goal_direction = goal_direction
        self.calls = 0            # ExecuteTarget calls, cache hits included
        self.executions = 0       # real target executions
        self.call_budget: Optional[int] = None
        self.exhausted = False
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
        """Next input needing a target execution, or None when the session
        has deactivated itself (strategy finished or budget exceeded)."""
        if self._pending is not None:
            raise RuntimeError("previous input has not been fed a result")
        while not self.exhausted:
            try:
                item = self._gen.send(self._feed_value)
            except StopIteration:
                self.exhausted = True
                break
            if (self.call_budget is not None
                    and self.calls >= self.call_budget):
                self.close()
                break
            self.calls += 1
            if item in self.cache:
                self._feed_value = self.cache[item]
                continue
            self._pending = item
            return item
        return None

    def close(self) -> None:
        """Deactivate the session.  Its coroutine ends, and with it the
        coroutine frame's reference back to the session, so a dropped
        session, and the nodes it holds, are freed by reference
        counting instead of waiting for the cyclic collector."""
        self.exhausted = True
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

    def prefix_agreement(self, trace) -> int:
        """The greatest k up to the node's depth such that ``trace`` has
        the path's ids at 0..k and its directions at 0..k-1, or -1 when
        the trace does not start at the root.  Only the records that
        differ from the path's are looked at."""
        base = self.base_trace
        for p in differing_positions(trace, base):
            rid, direction, _, _, _ = trace[p]
            path_id, path_direction, _, _, _ = base[p]
            if rid != path_id:
                return p - 1
            if direction != path_direction:
                return p
        return min(len(trace), len(base)) - 1

    def mapped_value(self, result: ExecutionResult) -> Optional[float]:
        """Branching value at the session node, or None if the trace does
        not reach the node."""
        depth = self.node.depth
        if self.prefix_agreement(result.trace) != depth:
            return None
        return result.trace[depth][VALUE]

    # -- to implement -------------------------------------------------------

    def _run(self):
        raise NotImplementedError

    def _value_of(self, result: ExecutionResult):
        raise NotImplementedError


class DescentSession(AnalysisSession):
    """Base for the two gradient-descent analyses, which descend from the
    best input over the value |f| at the node, ``failure_value`` when a
    trace misses the node or f is not finite.  Logs accepted values per
    seed so descent monotonicity is checkable after the run."""

    failure_value: float

    def __init__(self, node: TreeNode, goal_direction: bool, rng):
        super().__init__(node, goal_direction)
        self.rng = rng
        self.base = self.best.bytes_read
        self.descent_logs: list[list[float]] = []

    def _value_of(self, result: ExecutionResult) -> float:
        value = self.mapped_value(result)
        if value is None or not math.isfinite(value):
            return self.failure_value
        return abs(value)

    def _start_seed(self, first_value: float) -> None:
        self.descent_logs.append([first_value])

    def _log_accept(self, value: float) -> None:
        self.descent_logs[-1].append(value)
