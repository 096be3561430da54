"""Session plumbing shared by the four input-generation analyses.

A session is a resumable state machine driven by the fuzzing loop: each
iteration pulls the next input to execute and feeds back the execution
result.  Internally the analyses are written as generator coroutines;
this adapter layers the per-session execution cache and call budget on
top, so cache hits are resolved without surfacing an input to the loop.
"""
from __future__ import annotations

from enum import Enum
from typing import Optional

from ..exec_tree import TreeNode
from ..target_abi import ExecutionResult


class AnalysisKind(Enum):
    SENSITIVITY = "sensitivity"
    BITSHARE = "bitshare"
    TYPED_MINIMIZATION = "typed_minimization"
    MINIMIZATION = "minimization"


class AnalysisSession:
    kind: AnalysisKind
    uses_cache = False

    def __init__(self, node: TreeNode, goal_direction: Optional[bool] = None):
        self.node = node
        self.goal_direction = goal_direction
        self.calls = 0            # ExecuteTarget calls, cache hits included
        self.executions = 0       # real target executions
        self.call_budget: Optional[int] = None
        self.exhausted = False
        self.cache: dict[bytes, float] = {}  # keyed by the input itself
        self._gen = self._run()
        self._started = False
        self._feed_value = None
        self._pending_input: Optional[bytes] = None
        self._pending = False
        # structural snapshot of the path for trace-mapping checks
        path = node.path()
        self._path_ids = [p.id for p in path]
        self._path_dirs = [
            path[i + 1] is path[i].successor[True]
            for i in range(len(path) - 1)
        ]

    # -- driving ----------------------------------------------------------

    def next_input(self) -> Optional[bytes]:
        """Next input needing a target execution, or None when the session
        has deactivated itself (strategy finished or budget exceeded)."""
        if self._pending:
            raise RuntimeError("previous input has not been fed a result")
        while not self.exhausted:
            try:
                if self._started:
                    item = self._gen.send(self._feed_value)
                else:
                    self._started = True
                    item = next(self._gen)
            except StopIteration:
                self.exhausted = True
                break
            if (self.call_budget is not None
                    and self.calls >= self.call_budget):
                self.exhausted = True
                self._gen.close()
                break
            self.calls += 1
            if self.uses_cache:
                if item in self.cache:
                    self._feed_value = self.cache[item]
                    continue
                self._pending_input = item
            self._pending = True
            return item
        return None

    def feed(self, result: ExecutionResult) -> None:
        if not self._pending:
            raise RuntimeError("no input pending")
        value = self._value_of(result)
        self.executions += 1
        if self.uses_cache:
            self.cache[self._pending_input] = value
            self._pending_input = None
        self._pending = False
        self._feed_value = value

    # -- trace mapping ------------------------------------------------------

    def trace_maps_to_node(self, trace) -> bool:
        depth = len(self._path_ids) - 1
        if len(trace) <= depth:
            return False
        for i, node_id in enumerate(self._path_ids):
            if trace[i].id != node_id:
                return False
        for i, direction in enumerate(self._path_dirs):
            if trace[i].direction != direction:
                return False
        return True

    def mapped_value(self, result: ExecutionResult) -> Optional[float]:
        """Branching value at the session node, or None if the trace does
        not map to the node's path."""
        if not self.trace_maps_to_node(result.trace):
            return None
        return result.trace[len(self._path_ids) - 1].value

    # -- to implement -------------------------------------------------------

    def _run(self):
        raise NotImplementedError

    def _value_of(self, result: ExecutionResult):
        raise NotImplementedError


class DescentSession(AnalysisSession):
    """Base for the two gradient-descent analyses: logs accepted |f|
    values per seed so descent monotonicity is checkable after the run."""

    uses_cache = True

    def __init__(self, node: TreeNode, goal_direction: bool, rng):
        super().__init__(node, goal_direction)
        self.rng = rng
        self.descent_logs: list[list[float]] = []
        self.seed_index = -1

    def _start_seed(self, first_value: float) -> None:
        self.seed_index += 1
        self.descent_logs.append([first_value])

    def _log_accept(self, value: float) -> None:
        self.descent_logs[-1].append(value)
