"""Shared exception types."""


class DomainError(ValueError):
    """Input outside the domain an operation is defined on."""


def check_count(name: str, value: int, least: int = 1, *,
                shown: bool = False) -> None:
    """Raise DomainError if the count ``name`` is below ``least``, with the
    value in the message when ``shown``: the one message of each count,
    whether the library or a command's config checks it."""
    if value < least:
        got = f", got {value}" if shown else ""
        raise DomainError(f"{name} must be >= {least}{got}")


# The bits of direction precision a quantized direction may ask for; a
# shadow run re-quantizes at twice the bits it was given.
MIN_PRECISION_BITS = 8
MAX_PRECISION_BITS = 1 << 16


def check_precision_bits(bits: int) -> None:
    """Raise DomainError unless MIN_PRECISION_BITS <= bits <=
    MAX_PRECISION_BITS: the one message of each bound, whether
    `quantize_direction` or a command's config checks it."""
    if bits < MIN_PRECISION_BITS:
        raise DomainError(f"need at least {MIN_PRECISION_BITS} bits of "
                          "direction precision")
    if bits > MAX_PRECISION_BITS:
        raise DomainError(f"at most {MAX_PRECISION_BITS} bits of direction "
                          "precision")


class PrecisionError(RuntimeError):
    """A quantized-direction computation could not be certified at the
    requested precision."""


class CornerHit(Exception):
    """The flow ran into an obstacle corner, where the bounce is undefined.

    Carries the exact corner point as a pair of Fractions.
    """

    def __init__(self, x, y):
        super().__init__(f"corner hit at ({x}, {y})")
        self.x = x
        self.y = y

    @property
    def point(self):
        return (self.x, self.y)
