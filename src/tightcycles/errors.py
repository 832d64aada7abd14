"""Shared exception types."""


class BudgetError(Exception):
    """An exact or exhaustive routine was asked to exceed its stated budget."""


class UncertifiedResult(Exception):
    """A result failed its re-verification and is not returned."""
