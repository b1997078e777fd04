"""Shared exception types."""


class DomainError(ValueError):
    """A parameter lies outside the domain an operation supports."""
