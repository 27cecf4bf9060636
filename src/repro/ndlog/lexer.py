"""Tokenizer for NDlog source text."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import NDlogSyntaxError


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position (1-based)."""

    kind: str
    value: object
    line: int
    column: int


# Token kinds
IDENT = "IDENT"          # lowercase-initial identifiers (relations, functions, keywords)
VARIABLE = "VARIABLE"    # uppercase-initial identifiers and '_'
NUMBER = "NUMBER"
STRING = "STRING"
SYMBOL = "SYMBOL"
EOF = "EOF"

# Multi-character symbols, longest first so the scanner is greedy.
_MULTI_SYMBOLS = [":-", "?-", ":=", "<=", ">=", "==", "!="]
_SINGLE_SYMBOLS = set("()[]{},.@<>=!+-*/%;")


def tokenize(text: str) -> List[Token]:
    """Convert NDlog source text into a list of tokens (ending with EOF).

    Comments run from ``//`` or ``#`` or ``%%`` to end of line.  Raises
    :class:`NDlogSyntaxError` on unexpected characters or unterminated
    strings.
    """
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(text)

    def error(message: str) -> NDlogSyntaxError:
        return NDlogSyntaxError(message, line=line, column=column)

    while index < length:
        char = text[index]

        # Whitespace / newlines
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue

        # Comments
        if text.startswith("//", index) or char == "#" or text.startswith("%%", index):
            while index < length and text[index] != "\n":
                index += 1
            continue

        start_line, start_column = line, column

        # Strings
        if char in "\"'":
            quote = char
            index += 1
            column += 1
            chars: List[str] = []
            while index < length and text[index] != quote:
                if text[index] == "\n":
                    raise error("unterminated string literal")
                chars.append(text[index])
                index += 1
                column += 1
            if index >= length:
                raise error("unterminated string literal")
            index += 1  # closing quote
            column += 1
            tokens.append(Token(STRING, "".join(chars), start_line, start_column))
            continue

        # Numbers (integers and floats)
        if char.isdigit():
            end = index
            seen_dot = False
            while end < length and (text[end].isdigit() or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    # A '.' followed by a non-digit terminates the number (end of clause).
                    if end + 1 >= length or not text[end + 1].isdigit():
                        break
                    seen_dot = True
                end += 1
            raw = text[index:end]
            value: object = float(raw) if "." in raw else int(raw)
            tokens.append(Token(NUMBER, value, start_line, start_column))
            column += end - index
            index = end
            continue

        # Identifiers and variables
        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[index:end]
            kind = VARIABLE if (word[0].isupper() or word[0] == "_") else IDENT
            tokens.append(Token(kind, word, start_line, start_column))
            column += end - index
            index = end
            continue

        # Multi-character symbols
        matched: Optional[str] = None
        for symbol in _MULTI_SYMBOLS:
            if text.startswith(symbol, index):
                matched = symbol
                break
        if matched is not None:
            tokens.append(Token(SYMBOL, matched, start_line, start_column))
            index += len(matched)
            column += len(matched)
            continue

        # Single-character symbols
        if char in _SINGLE_SYMBOLS:
            tokens.append(Token(SYMBOL, char, start_line, start_column))
            index += 1
            column += 1
            continue

        raise error(f"unexpected character {char!r}")

    tokens.append(Token(EOF, None, line, column))
    return tokens


def iter_clauses(tokens: List[Token]) -> Iterator[List[Token]]:
    """Split a token stream into clauses terminated by '.' symbols.

    The trailing EOF token is not included in any clause.  A trailing clause
    without a terminating period raises :class:`NDlogSyntaxError`.
    """
    current: List[Token] = []
    for token in tokens:
        if token.kind == EOF:
            break
        if token.kind == SYMBOL and token.value == ".":
            if current:
                yield current
                current = []
            continue
        current.append(token)
    if current:
        first = current[0]
        raise NDlogSyntaxError(
            "clause is missing its terminating '.'", line=first.line, column=first.column
        )
