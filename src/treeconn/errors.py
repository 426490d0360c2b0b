"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed tree or forest text; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class BudgetExceededError(RuntimeError):
    """A configured budget was hit; ``kind`` names that ``Budget`` field.

    Enumerations raise this; searches turn it into an ``unknown`` verdict.
    It is a distinct outcome, never a silent truncation.
    """

    def __init__(self, message: str, *, kind: str):
        super().__init__(message)
        self.kind = kind


class InvalidMorphismError(ValueError):
    """A map fails the validity conditions required by its category."""


class DegenerateInputError(ValueError):
    """Empty Hom-set where an arrow or degree question presupposes morphisms."""
