"""Count the code lines of src/cantorlearn/*.py under a checkout root.

A code line holds a token other than a comment, a newline or indent token, or a
docstring (a string that starts a statement, or one implicitly concatenated to
it), since ``wc -l`` counts prose too.  Prints each module's count and the total:

    python3 tools/code_lines.py <checkout root>
"""

import io, pathlib, sys, tokenize

STARTS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}  # the next token starts a statement
BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.ENDMARKER}
total = 0
for path in sorted(pathlib.Path(sys.argv[1], "src/cantorlearn").glob("*.py")):
    code, start, doc = set(), True, False
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type in STARTS:
            start = True
        elif tok.type not in BLANK:
            # a docstring, or a string implicitly concatenated to one
            doc = tok.type == tokenize.STRING and (start or doc)
            start = False
            if not doc:
                code.update(range(tok.start[0], tok.end[0] + 1))
    total += len(code)
    print(f"{len(code):8} {path}")
print(f"{total:8} total")
