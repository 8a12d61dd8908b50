"""Code lines of each module of the library, and their total.

A code line is a source line that holds part of a token other than a
comment, a docstring or layout (newlines, indents, dedents).  A docstring is
here any string that stands alone as a statement.  Run it from the root of
the repository:

    python tests/code_lines.py [package directory, src/kreinspec by default]
"""

import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: Path) -> int:
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines = set()
    starts = True  # the next token starts a statement
    for token, after in zip(tokens, tokens[1:]):
        if token.type in LAYOUT:
            starts = starts or token.type in STATEMENT_START
            continue
        if not (starts and token.type == tokenize.STRING and after.type == tokenize.NEWLINE):
            lines.update(range(token.start[0], token.end[0] + 1))
        starts = False
    return len(lines)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/kreinspec")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
