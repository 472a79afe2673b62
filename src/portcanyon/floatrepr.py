"""`repr(float(v))` for a whole float64 array, in numpy integer arithmetic.

`format_floats(values, out)` writes each value's repr into one row of
`WORDS` little-endian uint64 words; a byte the value does not use is NUL,
and the last byte of a row always is (`csvtext` writes the field's
separator there).  The digits are the shortest that read back as the
value, the closest of those, ties to even: Schubfach's (R. Giulietti, "The
Schubfach way to render doubles", 2020), the digits Ryu gives (U. Adams,
PLDI 2018) and CPython's `repr`.  Everything is integer arithmetic, so no
host's floating-point or SIMD code paths can change a byte.

A positive normal double v = c 2^q has the rounding interval
[(4c - 2) 2^(q-2), (4c + 2) 2^(q-2)], its lower end (4c - 1) 2^(q-2) when c
is 2^52 (the next lower double is closer); it is closed when c is even.
With k = floor(log10(2^q)) (of 3/4 2^q at such a c), Schubfach scales 4v
and the interval's ends by 10^-k, rounded to odd, which keeps every
comparison with an even integer exact.  10^-k is one of the 126-bit values
g = floor(10^-k 2^r) + 1, 2^125 < g <= 2^126, of `_GH` and `_GL` (its high
and low words); 64 x 64-bit products are formed from their 32-bit halves.
The scaled value is c 2^q / 10^k, 2^52 <= c < 2^53, with 2^q / 10^k in
[1, 10) (in [4/3, 40/3) at a closer lower end), so its digits, or the one
fewer of a shorter result, are 15 to 17 long: two compares scale them to 17.

The digits are laid out by CPython's 'r' rules: fixed notation when
-4 < decpt <= 16 (the value is 0.d1d2... 10^decpt), with ".0" after a whole
number, else d[.ddd]e+XX or e-XXX.  A negative sign, -0.0's included, is a
'-'.  Each byte has a fixed slot: the sign, the "0." and zeros before the
digits of a value in [1e-4, 1), each of the 17 digits followed by the slot
of a point, and the exponent; digits 1-16 fill words 1-4 as pairs of digits
looked up in `_PAIR_WORDS`.  Zeros take the array path; only subnormal,
infinite and NaN values are formatted by `repr` itself.
"""

import itertools
import operator

import numpy as np

__all__ = ["WORDS", "format_floats"]

WORDS = 6  # the slots end at byte 45

_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) over the normal doubles' q


def _pow10_words():
    """g for 10^-k, k = _K_MIN.._K_MAX, as its high and its low words."""
    tens = list(itertools.accumulate(itertools.repeat(10, -_K_MIN), operator.mul, initial=1))
    high, low = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        beta = (-k * 913124641741) >> 38  # floor(log2(10^-k))
        if k <= 0:
            g = tens[-k] << 125 - beta if beta <= 125 else tens[-k] >> beta - 125
        else:
            g = (1 << 125 - beta) // tens[k]
        high.append((g + 1) >> 64)
        low.append((g + 1) & (1 << 64) - 1)
    return np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64)


_GH, _GL = _pow10_words()
_U = np.uint64  # constants are uint64 scalars, so no array leaves uint64
_M32 = _U(0xFFFFFFFF)
_POW10 = np.cumprod([1] + [10] * 17, dtype=np.uint64)  # 10^0..10^17

# Slots, in bytes: the sign, "0." and three zeros from _LEAD, digit i at
# 6 + 2i and the point after it at 7 + 2i, then from _EXP 'e', the
# exponent's sign and digits.
_LEAD, _EXP = 1, 40


def _slot_words(slots):
    """Words 0-4 of a row holding slots, {byte: value}."""
    row = bytearray(8 * (WORDS - 1))
    for at, value in slots.items():
        row[at] = value
    return np.frombuffer(bytes(row), dtype="<u8")


def _frame(decpt, several):
    """The slots of a layout outside the digits: a value of 0 < decpt <= 16
    has zeros in digits 1..decpt and a point after digit decpt - 1, one of
    -3 <= decpt <= 0 "0." and -decpt zeros before its digits; in exponent
    notation, a point after digit 0 if it has several digits."""
    if decpt is None:
        slots = {7: ord(".")} if several else {}
    elif decpt > 0:
        slots = {6 + 2 * i: ord("0") for i in range(1, decpt + 1)}
        slots[7 + 2 * (decpt - 1)] = ord(".")
    else:
        slots = dict(enumerate(b"0." + b"0" * -decpt, _LEAD))
    return _slot_words(slots)


# The frames of decpt -3..16, by decpt + 3, then of exponent notation with
# one digit and with several, by 20 and 21.
_FRAMES = np.array([_frame(decpt, False) for decpt in range(-3, 17)]
                   + [_frame(None, several) for several in (False, True)]).T.copy()


def _mulhi(a, b0, b1):
    """The high word of a (b1 2^32 + b0), from 32-bit halves."""
    a0, a1 = a & _M32, a >> _U(32)
    u = a1 * b0
    u += (a0 * b0) >> _U(32)
    a0 *= b1
    a0 += u & _M32
    a1 *= b1
    a1 += u >> _U(32)
    a1 += a0 >> _U(32)
    return a1


def _shortest(c, biased, closer):
    """(digits, k): the shortest decimal digits 10^k in the rounding interval
    of each c 2^q, q = biased - 1075.  c and biased are overwritten, biased
    with k."""
    odd = c & _U(1)
    k = biased
    k -= 1075
    h = k + 2
    k *= 661971961083
    if closer.any():
        k -= closer * 274743187321
    k >>= 41
    step = k * -913124641741
    step >>= 38
    h += step
    del step
    k -= _K_MIN
    gh, gl = np.take(_GH, k), np.take(_GL, k)
    k += _K_MIN
    h = h.view(np.uint64)  # 2..5
    h1, h64 = h + _U(1), _U(64) - h
    h63 = np.subtract(_U(63), h, out=h)
    # g 4c as three words (top, mid, lo); the interval's ends are g (4c + 2)
    # and g (4c - 2), or g (4c - 1) at a closer lower end.
    cb = c
    cb <<= _U(2)
    cb0, cb1 = cb & _M32, cb >> _U(32)
    lo = gl * cb
    mid = _mulhi(gl, cb0, cb1)
    cb *= gh
    mid += cb
    top = _mulhi(gh, cb0, cb1)
    top += mid < cb
    del cb, cb0, cb1
    g2h = gh << _U(1)
    g2h |= gl >> _U(63)
    g2l = gl << _U(1)
    if closer.any():
        gh, gl = np.where(closer, gh, g2h), np.where(closer, gl, g2l)
    else:
        gh, gl = g2h, g2l

    def round_to_odd(top, mid, lo):
        # floor(g x 2^h / 2^127), odd if not exact, into top: with h <= 5,
        # bits 127.. of g x 2^h are the value and bits 64..126 any remainder
        # that counts, which are mid's low 63 - h bits and lo's top h bits.
        rest = mid << h1
        lo >>= h64
        rest |= lo
        top <<= h1
        mid >>= h63
        top |= mid
        top |= rest != 0
        return top

    add = lo + g2l
    up = mid + g2h
    up += add < g2l
    upper = round_to_odd(top + (up < mid), up, add)
    upper -= odd
    add = np.subtract(lo, gl, out=add)
    up = np.subtract(mid, gh, out=up)
    up -= lo < gl
    lower = round_to_odd(top - (up > mid), up, add)
    lower += odd
    del add, up, g2h, g2l, gh, gl
    vb = round_to_odd(top, mid, lo)
    s = vb >> _U(2)
    # One of the multiples of 10^(k+1) around v may be inside: it is shorter.
    sp = s // _U(10)
    mid = np.multiply(sp, _U(40), out=mid)
    up_in = lower <= mid
    mid += _U(40)
    wp_in = mid <= upper
    shorter = up_in != wp_in
    # Else s or s + 1, whichever is inside, the nearer if both are.
    mid = np.left_shift(s, _U(2), out=mid)
    u_in = lower <= mid
    mid += _U(4)
    w_in = mid <= upper
    vb &= _U(3)
    vb += s & _U(1)
    w_in &= ~u_in | (vb > _U(2))
    s += w_in
    sp += wp_in
    np.copyto(s, sp, where=shorter)
    k += shorter
    return s, k


def format_floats(values, out) -> None:
    """Write repr(float(v)) of each of the n values (float64, or cast to it)
    into the rows of out, an (n, WORDS) uint64 array or view."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    biased = np.empty(bits.shape, np.int64)
    np.right_shift(bits, _U(52), out=biased, casting="unsafe")
    biased &= 0x7FF
    c = bits & _U(2 ** 52 - 1)
    zero = (c == 0) & (biased == 0)
    special = (biased == 0) & ~zero | (biased == 0x7FF)
    closer = (c == 0) & (biased > 1)
    c |= _U(2 ** 52)
    digits, k = _shortest(c, biased, closer)
    digits[zero] = 0
    # 15 to 17 digits, a zero's none: scaled to 17, the first not 0.
    length = (digits >= _POW10[15]).astype(np.intp)
    length += digits >= _POW10[16]
    digits *= np.take(_POW10[2::-1], length)
    k += length
    k += 15
    k[zero] = 1
    _layout(digits, k, bits >> _U(63), out)
    for i in np.flatnonzero(special):
        text = repr(float(values[i])).encode("ascii")
        row = out[i].view(np.uint8)
        row[:] = 0
        row[:len(text)] = np.frombuffer(text, np.uint8)


def _pair_words():
    """The words of the pairs of digits, a digit in each 16-bit lane, the
    first lowest: at p (0..99) p's digits up to its last that is not 0, at
    p + 100 both."""
    tens, ones = np.divmod(np.arange(100, dtype=np.uint64), _U(10))
    both = tens + _U(48) | (ones + _U(48)) << _U(16)
    return np.concatenate([np.where(ones, both, np.where(tens, tens + _U(48), _U(0))), both])


_PAIR_WORDS = _pair_words()


def _layout(digits, decpt, negative, words):
    """Write the rows of digits (17 each) 10^(decpt-17) into their slots."""
    top = digits // _POW10[16]
    digits -= top * _POW10[16]
    several = digits != 0
    # Words 1-4 of every row, one array row per word: the groups of 4
    # digits, then their pairs' words, a pair shown in full if a later digit
    # is not 0.
    groups = np.empty((4, digits.size), dtype=np.uint64)
    halves = groups.reshape(2, 2, -1)
    np.floor_divide(digits, _POW10[8], out=halves[0, 1])
    np.subtract(digits, halves[0, 1] * _POW10[8], out=halves[1, 1])
    np.floor_divide(halves[:, 1], _POW10[4], out=halves[:, 0])
    halves[:, 1] -= halves[:, 0] * _POW10[4]
    later = groups[1:] != 0
    later[1] |= later[2]
    later[0] |= later[1]
    first = groups * _U(5243)
    first >>= _U(19)  # // 100 below 43,699
    groups -= first * _U(100)
    full = groups != 0
    full[:3] |= later
    first += full * _U(100)
    groups[:3] += later * _U(100)
    del later, full
    groups = np.take(_PAIR_WORDS, groups.view(np.intp))
    groups <<= _U(32)
    groups |= np.take(_PAIR_WORDS, first.view(np.intp))
    del first
    frame = decpt + 3
    rows = np.flatnonzero(frame.view(np.uint64) > _U(19))  # not -3 <= decpt <= 16
    frame[rows] = 20 + several[rows]
    frames = np.take(_FRAMES, frame, axis=1)
    groups |= frames[1:]
    words[:, 1:5] = groups.T
    del groups
    frames[0] |= negative * _U(ord("-"))
    top += _U(48)
    top <<= _U(48)
    frames[0] |= top
    words[:, 0] = frames[0]
    words[:, 5] = 0
    if rows.size:
        exp = decpt[rows] - 1
        mag = np.abs(exp)
        suffix = np.zeros((rows.size, 8), dtype=np.uint8)
        suffix[:, 0] = ord("e")
        suffix[:, 1] = np.where(exp < 0, ord("-"), ord("+"))
        suffix[:, 2] = np.where(mag >= 100, ord("0") + mag // 100, 0)
        suffix[:, 3] = ord("0") + mag // 10 % 10
        suffix[:, 4] = ord("0") + mag % 10
        words[rows, 5] = suffix.view("<u8")[:, 0]
