"""Exception types shared across the workbench."""


class DegeneracyError(RuntimeError):
    """A matrix field lost positive definiteness.

    Carries the offending grid point (index tuple) and the margin, i.e. the
    smallest eigenvalue found there.
    """

    def __init__(self, message, worst_point=None, margin=None):
        super().__init__(message)
        self.worst_point = worst_point
        self.margin = margin


class FlowDegenerateError(RuntimeError):
    """The flow could not be continued past the reported time.

    ``result`` is the partial flow result up to that time, when there is one.
    """

    def __init__(self, message, t=None, margin=None, result=None):
        super().__init__(message)
        self.t = t
        self.margin = margin
        self.result = result


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds the desk-scale guard rails."""


class HypothesisError(ValueError):
    """A numerically certified precondition failed; ``hypothesis`` names it."""

    def __init__(self, hypothesis, message):
        super().__init__(f"{hypothesis}: {message}")
        self.hypothesis = hypothesis


class TooFewSnapshotsError(ValueError):
    """A check that takes centered time differences ran on too short a run."""
