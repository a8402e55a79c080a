"""Error taxonomy shared by every engine.

Three categories, matching the CLI exit codes: bad input (2), a guard
against exponential blowup (3), and "this cannot happen unless the code
is wrong" (4).
"""


class GraphInputError(ValueError):
    """Caller handed us something outside an operation's domain."""


class EdgeListParseError(GraphInputError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class CapExceededError(RuntimeError):
    """A brute-force or recursion size cap was hit; names the cap."""

    def __init__(self, what, size, cap, unit="edges"):
        super().__init__(f"{what} has {size} {unit}, exceeding the cap of {cap}")
        self.size = size
        self.cap = cap


class InternalInvariantError(RuntimeError):
    """An invariant the engines rely on failed: a bug, not a user error."""
