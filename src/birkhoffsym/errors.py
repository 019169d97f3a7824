"""The package's only exception types, besides the ValueError and
OSError of malformed input.  A verdict is a return value, never an
exception: decompose_symmetry returns None for an alpha that is no
facet symmetry.

PreconditionError marks inputs outside an operation's supported range
(size bounds, unsupported n, and the like).  The command line maps it to
exit code 3, distinguishing "refused to start" from "ran and failed".

InvariantError marks a broken internal certificate: a check the code
makes on its own result failed, so the result is wrong whatever the
input was.  It is deliberately not a ValueError, so no handler of bad
input catches it; the command line maps it to exit code 4.
"""


class PreconditionError(ValueError):
    pass


class InvariantError(Exception):
    pass
