"""Normative constants of the arithmetic coder's adaptive frequency model.

257 symbols (every byte value plus a terminator), all counts start at 1 and
grow by 1 per occurrence.  When the total reaches the rescale ceiling every
count is halved rounding up, which keeps counts >= 1 and the total inside
16 bits -- all three constants are normative for stream compatibility.

The model itself is inlined into the coding loops of arithmetic.py, which
keeps the cumulative counts of symbols 0..4 in locals and the counts of
symbols 5..256 in a Fenwick tree (a layout of its own, not of the model:
the intervals are those of one count list in symbol order); a plain class
form lives with the reference coders in the tests.
"""

NUM_SYMBOLS = 257
EOF_SYMBOL = 256
RESCALE_CEILING = 1 << 16
