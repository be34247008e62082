class GslError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GslError):
    """Syntax error in a formula, with a character position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ModelError(GslError):
    """Invalid game-structure, objectives, or assignment document."""


class UnsupportedGradeError(GslError):
    """An infinite grade reached the checking pipeline."""


class ResourceBudgetError(GslError):
    """A construction exceeded the configured state budget.

    `context` is the CompilationContext of the compilation that stopped, so
    the stages finished before the stop can be reported.
    """

    context = None
