"""Query language: comprehensions, path expressions, builtin functions."""
