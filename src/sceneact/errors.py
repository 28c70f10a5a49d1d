"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Tensor or matrix shapes are incompatible with an operation."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent."""


class ContractError(ValueError):
    """An API precondition was violated by the caller."""


class ValidationError(ValueError):
    """Parsed data violates a documented invariant."""


class NanLossError(RuntimeError):
    """Training hit a non-finite loss; carries diagnostics for the batch."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
