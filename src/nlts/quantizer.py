"""Scaled-integer quantization of real samples under a max-absolute-error bound.

Samples become signed integers code = round(value * 10**d) with ties away
from zero, so every reconstruction code / 10**d sits within 0.5 * 10**-d of
the input -- strictly tighter than the advertised bound of 10**-d.

Quantization never goes through binary floating point.  Every stream is
quantized as one column of plain decimal text (PLAIN: a sign, digits and at
most one point, no exponent): a few passes over its bytes validate it and
tell whether every token has the same fraction length, int() reads every
token with its point removed, and C-level map passes round and measure the
error with integer arithmetic; a column of mixed fraction lengths rounds
the tokens of each length at that length.  A stream of text tokens that
are all PLAIN is that column as given.  Any other stream -- floats, ints,
Decimals, exponents, or any other spelling among its tokens -- is first
spelled, one sample at a time, as the exact PLAIN text of its value, which
decimal.Decimal gives (lossless mode takes a float as its shortest repr);
so the rounding decision is deterministic across platforms, and the error
is exact at any number of digits and whatever the caller's decimal context.
Sensor columns repeat their readings.  One function, repeated, decides
whether a sequence repeats (a probe of its first PROBE items, then the
exact at-most-half rule) and returns its distinct items; the column pass
then quantizes each distinct token once and maps the codes back.
Rendering codes back to text goes through float formatting only where that
is proven exact (see render_stream); every other code is rendered with
integer arithmetic.  Like quantization, rendering surveys its codes once
and converts each distinct code once when the codes repeat.
"""

from __future__ import annotations

import decimal
import re
import sys
from decimal import Decimal
from itertools import islice, repeat
from operator import add, floordiv, gt, le, lt, mod, mul, sub, truediv

from .core import INT64_MAX, INT64_MIN
from .errors import CorruptStream, NonFiniteSample, OverflowAtScale, TooManyDigits

LOSSLESS = "lossless"

MAX_DIGITS = 6

# The error's scaleb runs here, not in the caller's context: at the largest
# precision it is exact for any input.
_CTX = decimal.Context(prec=decimal.MAX_PREC)

#: A plain decimal token: an optional sign, then digits with at most one
#: point, at least one of them a digit.  No exponent, whitespace, underscore
#: or non-ASCII digit.
PLAIN = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)"

# Matches any line of a "\n"-joined column that is not PLAIN.  It runs only
# on a column that _all_plain refuses, to name the lines at fault; sre spends
# ~100 ns a line on it.
_NOT_PLAIN = re.compile(f"^(?!{PLAIN}$).*$", re.M)

# Each byte of a column as _all_plain and _one_tail read it: a digit as "0",
# a sign as "+", a point or newline as itself, any other byte as "!".
_SHAPE = bytes(
    ord("0") if chr(c) in "0123456789" else ord("+") if chr(c) in "+-"
    else c if chr(c) in ".\n" else ord("!")
    for c in range(256)
)

# The characters a PLAIN token may hold before its point.
_BEFORE_POINT = "+-0123456789"


#: How many leading items repeated counts before it looks at the rest.
PROBE = 1024


def repeated(items, count: int):
    """The distinct items, in no set order, if at most half of them are distinct, else None.

    items is an iterable of count hashable items, read once.  When count
    exceeds PROBE, a sequence whose first PROBE items are more than half
    distinct counts as not repeating without a look at the rest: the
    per-sample readings of a noisy signal build no set they throw away.
    """
    it = iter(items)
    seen = set(islice(it, PROBE))
    if 2 * len(seen) > min(count, PROBE):
        return None
    seen.update(it)
    return list(seen) if 2 * len(seen) <= count else None


def plain_survey(tokens, text: str, most: int):
    """(repeated's distinct tokens, up to most distinct non-PLAIN ones) of tokens free of newlines joined as text.

    The non-PLAIN tokens are looked for over the distinct tokens when the
    column repeats, each once, else over the text.  _all_plain passes a
    column of PLAIN tokens only; any other column is searched line by line,
    and the search stops after most distinct non-PLAIN ones.
    """
    distinct = repeated(tokens, len(tokens))
    column = text if distinct is None else "\n".join(distinct)
    if _all_plain(column):
        return distinct, []
    odd = {}
    for m in _NOT_PLAIN.finditer(column):
        odd[m[0]] = None
        if len(odd) == most:
            break
    return distinct, list(odd)


def _all_plain(text: str) -> bool:
    """Whether every line of text is PLAIN (_NOT_PLAIN finds none), in byte
    passes that run in C.

    A line is PLAIN when it holds only digits, signs and points, at least
    one digit, at most one point, and a sign only as its first character.
    With a newline added at each end, a line without a digit is an empty
    line once signs and points are deleted, and two points on a line meet
    once digits and signs are deleted.
    """
    if not text.isascii():  # so encode() cannot fail on a lone surrogate
        return False
    shape = ("\n" + text + "\n").encode().translate(_SHAPE)
    signs = shape.count(b"+")
    return (
        b"!" not in shape
        and b"\n\n" not in shape.translate(None, b"+.")
        and b".." not in shape.translate(None, b"0+")
        and (not signs or signs == shape.count(b"\n+"))
    )


def _one_tail(text: str, count: int):
    """The tail every one of count PLAIN tokens joined as text has, or None
    if they differ, in byte passes that run in C.

    A token's tail is 0 without a point, else 1 + its fraction length.  A
    PLAIN token has at most one point, so with count points every token has
    one; the first token's fraction length f is then every token's when the
    text, a digit read as "0" and a newline after every token, holds count
    times "." + f digits + "\n".
    """
    points = text.count(".")
    if not points:
        return 0
    if points != count:
        return None
    first = text.partition("\n")[0]
    f = len(first) - first.index(".") - 1
    shape = (text + "\n").encode().translate(_SHAPE)
    return f + 1 if shape.count(b"." + b"0" * f + b"\n") == count else None


def _too_many_digits(index: int, n: int) -> TooManyDigits:
    return TooManyDigits(
        f"sample at index {index} carries {n} fractional digits; "
        f"lossless mode supports at most {MAX_DIGITS}"
    )


def _rounded(n: list, source: int, scale: int):
    """(codes, error) of integers n / 10**source rounded to scale digits; the
    largest error is in units of 10**-source."""
    if source <= scale:
        return (n if source == scale else list(map(mul, n, repeat(10 ** (scale - source))))), 0
    den = 10 ** (source - scale)
    halfway = map(sub, map(add, n, repeat(den >> 1)), map(lt, n, repeat(0)))
    codes = list(map(floordiv, halfway, repeat(den)))
    return codes, max(min(r, den - r) for r in set(map(mod, n, repeat(den))))


def _column_codes(tokens, text: str, digits, column):
    """Quantize PLAIN tokens joined as text; returns (codes, max_abs_error, scale).

    The tokens are column, the samples as given or as spelled, or its
    distinct tokens in any order: a fault names the first index in column
    that holds one.

    Every token reads as the integer n = int(token without its point), and
    stands for n / 10**s at its fraction length s.  Rounding to d < s digits
    is (n + half - (n < 0)) // 10**(s - d) with half = 10**(s - d) / 2:
    floor division after adding half rounds ties up, and the -1 for a
    negative n turns that into ties away from zero.  The code is the
    multiple of 10**(s - d) nearest n, so the error, exact in units of
    10**-s, is min(r, 10**(s - d) - r) for r = n mod 10**(s - d), taken over
    the distinct residues.  When no token rounds (lossless mode, which takes
    the widest fraction length S as its scale, or d >= S), every token is
    brought to S; else the tokens of each fraction length round at that
    length, so one long token does not widen its column, and the largest
    error is given in units of 10**-S.
    """
    tails = None  # per token: 0 without a point, else 1 + its fraction length
    if (widest := _one_tail(text, len(tokens))) is None:
        tails = list(map(len, map(str.lstrip, tokens, repeat(_BEFORE_POINT))))
        widest = max(tails)
    source = max(widest - 1, 0)
    lossless = digits == LOSSLESS
    if lossless and source > MAX_DIGITS:
        tails = list(map(len, map(str.lstrip, column, repeat(_BEFORE_POINT))))
        i = next(i for i, t in enumerate(tails) if t > MAX_DIGITS + 1)
        raise _too_many_digits(i, tails[i] - 1)
    whole = text.replace(".", "").split("\n") if text else []
    try:
        n = list(map(int, whole))
    except ValueError:  # a token longer than int() reads (sys.set_int_max_str_digits)
        most = sys.get_int_max_str_digits()
        n = [int(t) if len(t) <= most else int(Decimal(t)) for t in whole]
    del whole  # a string per token: free it before the rounding passes
    scale = source if lossless else digits
    if tails is None or source <= scale:
        if tails and source:
            # a token with a shorter fraction: multiply by 10**(S - its length)
            up = {t: 10 ** (source - max(t - 1, 0)) for t in set(tails)}
            n = list(map(mul, n, map(up.__getitem__, tails)))
        codes, error = _rounded(n, source, scale)
    else:
        at = {t: [] for t in set(tails)}  # the indices of each tail
        for i, t in enumerate(tails):
            at[t].append(i)
        codes, error = [0] * len(n), 0
        for t, indices in at.items():
            s = max(t - 1, 0)
            own, e = _rounded(list(map(n.__getitem__, indices)), s, scale)
            for i, c in zip(indices, own):
                codes[i] = c
            error = max(error, e * 10 ** (source - s))
    if source <= scale:
        return codes, Decimal(0), scale
    return codes, Decimal(error).scaleb(-source, context=_CTX), scale


# Stands for a sample of 10**19 or more, a code out of range at every final
# scale, whose digits its exponent could make millions long.
_OUT_OF_RANGE = f"{10**19}."


def _spelled(samples, digits):
    """(the exact PLAIN text of each sample, the largest error of those spelled "0").

    Each sample converts exactly to Decimal: a float at its binary value
    (2.675 stays 2.67499999999999982...), except in lossless mode, which
    takes a float as its shortest repr so that the detected scale captures
    it; text as Decimal reads it, stripped.  A sample that is not finite,
    or in lossless mode one with more than MAX_DIGITS fractional digits,
    raises at its index, in sample order.  format(d, "f") writes d with
    every fractional digit its exponent gives, so "1.500" keeps three and
    "1.5E+2" has none.  Two kinds of value would be spelled with as many
    digits as their exponent says: one of 10**19 or more is spelled
    _OUT_OF_RANGE with its fractional digits, and one below 10**-(d+1),
    which rounds to code 0 with its magnitude as its error, is spelled "0"
    and that magnitude is returned.  Lossless mode has no such small value.
    """
    lossless = digits == LOSSLESS
    tiny = -1 - (MAX_DIGITS if lossless else digits)  # a smaller adjusted exponent rounds to 0
    tiny_error = Decimal(0)
    spelled = []
    append = spelled.append
    for i, v in enumerate(samples):
        if isinstance(v, float):
            d = Decimal(float.__repr__(v) if lossless else v)
        elif isinstance(v, (int, Decimal)):
            d = Decimal(v)
        else:
            try:
                d = Decimal(str(v).strip())
            except decimal.InvalidOperation:
                raise NonFiniteSample(i, v) from None
        if not d.is_finite():
            raise NonFiniteSample(i, v)
        n = -d.as_tuple().exponent if lossless else 0
        if n > MAX_DIGITS:
            raise _too_many_digits(i, n)
        size = d.adjusted()
        if size >= 19 and d:
            append(_OUT_OF_RANGE + "0" * n)
        elif size < tiny:
            tiny_error = max(tiny_error, d.copy_abs())
            append("0")
        else:
            append(format(d, "f"))
    return spelled, tiny_error


def quantize_stream(samples, digits):
    """Quantize a sequence of samples; returns (codes, max_abs_error, scale, size).

    digits is a scale of 0..6, or LOSSLESS for the smallest scale that holds
    every sample exactly: the largest fractional digit count seen, text
    counted as written ("1.500" has three), floats by their shortest repr,
    ints as none.  size is canonical_size's: the bytes of the codes'
    canonical text at scale.

    A sequence of text tokens that are all PLAIN decimals is quantized as
    given; any other sequence -- one float, int, Decimal, exponent or other
    spelling among its samples is enough -- is first spelled as the exact
    PLAIN text of each sample (_spelled).  Either column then takes the
    same pass (_column_codes), which parses a token longer than int() reads
    through Decimal.

    When the tokens of a column repeat, the column pass runs over the
    distinct tokens and one lookup per token maps their codes back; the
    error, a max over distinct residues, and the range check, over the
    distinct codes, are unchanged.  Equal text is an equal token, so "1.5"
    and "1.50" stay apart, and so do the spellings of 1, 1.0 and
    Decimal("1.50"), which lossless mode counts with different digits.

    The error is measured exactly in the decimal domain, whatever the
    caller's decimal context; lossless inputs therefore report exactly 0.
    Parse faults (NonFiniteSample, TooManyDigits) are raised at the first
    bad sample; the 64-bit range is checked once, after the pass, at the
    final scale (OverflowAtScale), and names the sample as given.
    """
    try:
        text = "\n".join(samples)
        # a token holding a newline would read as two lines
        plain = text.count("\n") == len(samples) - 1
    except TypeError:  # a sample that is not text
        plain = False
    column, tiny_error = samples, Decimal(0)
    if plain:
        distinct, odd = plain_survey(samples, text, 1)
    if not plain or odd:
        column, tiny_error = _spelled(samples, digits)
        distinct = repeated(column, len(column))
    tokens = column if distinct is None else distinct
    if tokens is not samples:
        text = "\n".join(tokens)
    own, error, scale = _column_codes(tokens, text, digits, column)  # a code per token
    codes = own if tokens is column else list(map(dict(zip(tokens, own)).__getitem__, column))
    lo, hi = min(own, default=0), max(own, default=0)
    if not INT64_MIN <= lo <= hi <= INT64_MAX:
        i = next(i for i, c in enumerate(codes) if not INT64_MIN <= c <= INT64_MAX)
        raise OverflowAtScale(i, samples[i], scale)
    return codes, max(error, tiny_error), scale, canonical_size(codes, scale, lo, hi)


def render_code(code: int, scale_exp: int | None) -> str:
    """Exact decimal text of a code, with exactly scale_exp fractional digits."""
    if scale_exp is None or scale_exp == 0:
        return str(code)
    sign = "-" if code < 0 else ""
    whole, frac = divmod(abs(code), 10 ** scale_exp)
    return f"{sign}{whole}.{frac:0{scale_exp}d}"


def canonical_size(codes, scale_exp: int | None, lo: int, hi: int) -> int:
    """Byte size of the codes' canonical text, each as render_code gives it
    and a newline; lo and hi are the least and greatest code (0 for none).

    Each code renders as a newline, one whole digit, '.' and d fraction
    digits when d > 0, and a '-' when negative.  Its whole part
    |c| // 10**d has one more digit for each k >= 1 with |c| >= 10**(d+k),
    so each such power adds the count of magnitudes that reach it.  Codes
    that all lie in [0, 10**(d+1)) render to the base width and take no
    pass.
    """
    d = scale_exp or 0
    total = (d + 3 if d else 2) * len(codes)
    mags = codes
    if lo < 0:
        total += sum(map(gt, repeat(0), codes))
        mags = list(map(abs, codes))
    power, top = 10 ** (d + 1), max(hi, -lo)
    while power <= top:
        total += sum(map(le, repeat(power), mags))
        power *= 10
    return total


def decoded_range(codes):
    """(repeated's distinct codes or None, least code, greatest code); a code
    outside the signed 64-bit range raises CorruptStream."""
    distinct = repeated(codes, len(codes))
    source = codes if distinct is None else distinct
    lo, hi = min(source, default=0), max(source, default=0)
    if not INT64_MIN <= lo <= hi <= INT64_MAX:
        raise CorruptStream("decoded sample outside the signed 64-bit range")
    return distinct, lo, hi


def render_stream(codes, scale_exp: int | None):
    """(texts, size): the exact decimal text of every code, as render_code
    gives it, made in C-level passes, and canonical_size's bytes.

    A code outside the signed 64-bit range raises CorruptStream (see
    decoded_range).  When the codes repeat, each distinct code is rendered
    once, the same way, and one lookup per code maps the texts back.

    With d = scale_exp > 0 a code c reads as the float c / 10**d formatted
    with "%.<d>f".  That is exact while |c| < 2**52: c and 10**d (d <= 6)
    are exact doubles and int / int rounds correctly, so the quotient is off
    the true value x = c / 10**d by at most |x| * 2**-53 < 0.5 * 10**-d.
    x is a multiple of 10**-d, so the correctly rounded "%f" conversion
    lands back on x, never on a midpoint.  Only code 0 gives a zero
    quotient, and it is +0.0, so no "-0.000" appears.  A stream holding any
    code outside (-2**52, 2**52) goes through render_code for every code.
    """
    distinct, lo, hi = decoded_range(codes)
    source = codes if distinct is None else distinct
    d = scale_exp or 0
    if not d:
        texts = map(str, source)
    elif -(2**52) < lo and hi < 2**52:
        fmt = f"%.{d}f".__mod__
        texts = map(fmt, map(truediv, source, repeat(10**d)))
    else:
        texts = (render_code(c, d) for c in source)
    if distinct is not None:
        texts = map(dict(zip(distinct, texts)).__getitem__, codes)
    texts = list(texts)
    if lo >= 0 and hi < 10 ** (d + 1):  # one width: sized without a pass
        return texts, canonical_size(codes, d, lo, hi)
    return texts, sum(map(len, texts)) + len(texts)
