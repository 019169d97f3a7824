"""Vertex sets in the package's form: an int mask with bit v set when
vertex v is in the set.  Built and read here with plain shifts, so no
package code stands between a test and what it expects."""


def mask(vertices) -> int:
    """The mask of the given vertices; a repeated vertex counts once."""
    return sum(1 << v for v in set(vertices))


def members(bits: int) -> frozenset:
    """The vertices in a mask."""
    return frozenset(v for v in range(bits.bit_length()) if bits >> v & 1)
