"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A scenario parameter or allocation violates a model precondition."""


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


class CapacityError(RuntimeError):
    """Requested allocation enumeration exceeds the supported pattern count."""
