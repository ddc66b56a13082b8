"""Exact gap invariants of the two-step drive, counted from band inversions.

In the SYM1 frame the planar axis field is proportional to
(sin(tx cos k) cos(ty sin k), sin(ty sin k)).  Its winding over the
Brillouin zone is the signed number of crossings of the +x half axis: the
zeros of ty sin k = m pi at which (-1)^m sin(tx cos k) > 0, each counted
with the direction sign((-1)^m ty cos k).  SYM2 is the same count with the
roles of x and y exchanged: zeros of tx cos k = m pi at which
(-1)^m sin(ty sin k) > 0, counted with sign((-1)^m tx sin k).  The zeros
have closed forms, so no momentum grid is involved.

A tangent zero (|m pi| equal to the amplitude) or a coincident zero (the
other component vanishing too, i.e. a gap closing) has no well-defined
count; the functions return None there and callers leave the point
unscored.

This module is independent of floqlab on purpose: it is the oracle the
benchmark checks the program against.
"""

import math

# Margins below which a zero is treated as tangent or coincident.
TANGENT_TOL = 1e-12
COINCIDENT_TOL = 1e-9


def _sign(x: float) -> int:
    return 1 if x > 0 else -1


def _crossing_count(drive: float, other: float):
    """Signed +axis crossings of one frame's field.

    The zeros solve drive * f(k) = m pi with f = sin (SYM1) or cos (SYM2).
    With g the complementary function (cos or sin), the partner component
    there is (-1)^m sin(other * g(k)) and the crossing direction is
    sign((-1)^m drive g(k)); both frames therefore share this count.
    """
    if drive == 0.0:
        return None
    total = 0
    top = int(math.floor(abs(drive) / math.pi))
    for m in range(-top, top + 1):
        r = m * math.pi / drive
        if 1.0 - abs(r) <= TANGENT_TOL:
            return None
        g = math.sqrt(1.0 - r * r)
        parity = -1 if m % 2 else 1
        # the two zeros of f(k) = r have complementary values +g and -g
        for g_k in (g, -g):
            partner = parity * math.sin(other * g_k)
            if abs(partner) <= COINCIDENT_TOL:
                return None
            if partner > 0:
                total += parity * _sign(drive) * _sign(g_k)
    return total


def frame_windings(tx: float, ty: float):
    """(nu1, nu2): windings of the SYM1 and SYM2 axis fields, or None."""
    nu1 = _crossing_count(ty, tx)
    nu2 = _crossing_count(tx, ty)
    if nu1 is None or nu2 is None:
        return None
    return nu1, nu2


def gap_invariants(tx: float, ty: float):
    """(nu0, nu_pi) = ((nu1 + nu2)/2, (nu1 - nu2)/2), or None."""
    windings = frame_windings(tx, ty)
    if windings is None:
        return None
    nu1, nu2 = windings
    return (nu1 + nu2) // 2, (nu1 - nu2) // 2
