"""Exception hierarchy shared across the package."""


class QmllError(Exception):
    """Base class for all package errors."""


class SyntaxLocationError(QmllError):
    """Malformed input text; carries the character offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.message = message
        self.pos = pos


class FormulaSyntaxError(SyntaxLocationError):
    pass


class ProofSyntaxError(SyntaxLocationError):
    pass


class ProofError(QmllError):
    """A rule instance violates its side conditions."""


class CheckFailure(QmllError):
    """A parsed proof failed the well-formedness checker."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class DimensionError(QmllError):
    """Matrix or register shapes do not line up."""


class PreconditionError(QmllError):
    """An operation was invoked outside its stated domain."""


class StaleRedexError(QmllError):
    """A redex no longer matches the proof it was found in."""


class MachineError(QmllError):
    """The token machine hit a state that indicates an implementation bug."""
