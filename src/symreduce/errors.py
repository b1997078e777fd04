"""Shared exception types."""

from __future__ import annotations


class DomainError(ValueError):
    """A parameter lies outside the domain an operation supports."""
