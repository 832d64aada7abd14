"""Shared exception types, and the budget check the bounded searches share."""


class BudgetError(Exception):
    """An exact or exhaustive routine was asked to exceed its stated budget."""


class UncertifiedResult(Exception):
    """A result failed its re-verification and is not returned."""


def check_budget(name: str, value: int) -> None:
    """Refuse a budget below 1 with ValueError: a search that runs nothing
    would report "not found" as if it had searched."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
