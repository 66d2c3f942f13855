"""Finitely presented groups: a small presentation grammar and HLT-style
coset enumeration over the trivial subgroup.

Grammar (whitespace insensitive):

    presentation := '<' generators '|' relators '>'
    generators   := ident ((',' | space) ident)*
    relators     := relator (',' relator)*
    relator      := word | word '=' word        (stored as lhs * rhs^-1)
    word         := factor ('*' factor)*
    factor       := atom ('^' integer)?         (integer may be negative)
    atom         := ident | '(' word ')' | '1'  ('1' is the empty word)

parse tokenizes once and builds each word as a free-reduced list of letters
(2g for generator g, 2g+1 for its inverse), run-length encoded as a Word only
at the end.  Error positions count lines at "\n" only.

Enumeration is plain HLT with a single lookahead pass at the coset cap.
Coincidences merge through a union-find that only the coincidence routine
and the final compaction consult: it leaves no live row pointing at a dead
coset (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
section 5.1), so relator scans follow row entries directly, and a power
relator closed on a loop of live cosets stays closed: it is not scanned again
on that loop until compaction.  The final table is renumbered to BFS
discovery order so identical input text always yields an identical group.
"""

from __future__ import annotations

import os
import re
import string
from dataclasses import dataclass
from itertools import groupby

from .core import FiniteGroup, _action_table

__all__ = [
    "ParseError",
    "UndeclaredGenerator",
    "CosetLimitExceeded",
    "Presentation",
    "parse",
    "enumerate_presentation",
    "DEFAULT_MAX_COSETS",
]

DEFAULT_MAX_COSETS = 100_000

Word = tuple[tuple[int, int], ...]  # ((generator index, exponent), ...)


class ParseError(ValueError):
    def __init__(self, line: int, column: int, expected: str):
        super().__init__(f"line {line}, column {column}: expected {expected}")
        self.line = line
        self.column = column
        self.expected = expected


class UndeclaredGenerator(ValueError):
    def __init__(self, name: str):
        super().__init__(f"generator {name!r} used in a relator but not declared")
        self.name = name


class CosetLimitExceeded(RuntimeError):
    """Enumeration hit the coset cap; the group may be infinite or too large."""

    def __init__(self, max_cosets: int):
        super().__init__(f"coset enumeration exceeded {max_cosets} cosets")
        self.max_cosets = max_cosets


@dataclass(frozen=True)
class Presentation:
    """Generator names plus freely reduced relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def word_str(self, word: Word) -> str:
        if not word:
            return "1"
        return "*".join(g if e == 1 else f"{g}^{e}"
                        for g, e in ((self.generators[i], e) for i, e in word))

    def __str__(self):
        gens = ", ".join(self.generators)
        rels = ", ".join(self.word_str(w) for w in self.relators)
        return f"< {gens} | {rels} >"


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|-?\d+|[<>|,*^()=]|\S")

_NAME_START = frozenset(string.ascii_letters + "_")  # first characters of a name token


def parse(text: str) -> Presentation:
    """Parse '< gens | relators >' into a validated Presentation."""
    toks = _TOKEN_RE.findall(text)
    toks.append(None)  # end of input

    def fail(i: int, expected: str):
        # the position of token i, or just past the end; lines break at "\n" only
        starts = [m.start() for m in _TOKEN_RE.finditer(text)]
        at = starts[i] if i < len(starts) else len(text)
        raise ParseError(text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at), expected)

    if toks[0] != "<":
        fail(0, "'<'")
    gens: list[str] = []
    i = 1
    while (tok := toks[i]) != "|":
        if tok != ",":
            if tok is None or tok[0] not in _NAME_START:
                fail(i, "generator name or '|'")
            if tok in gens:
                fail(i + 1, f"unique generator name (duplicate {tok!r})")
            gens.append(tok)
        i += 1
    if not gens:
        fail(i, "at least one generator")
    letter = {name: 2 * k for k, name in enumerate(gens)}

    def word(i: int) -> tuple[list[int], int]:
        """The free-reduced letters of the word at token i, and the index past
        it.  The words of open parentheses wait on a stack, so nesting depth
        is bounded only by the input."""
        out: list[int] = []
        open_words: list[list[int]] = []
        while True:
            tok = toks[i]
            if tok == "(":
                open_words.append(out)
                out, i = [], i + 1
                continue
            if tok == "1":
                atom = []
            elif tok in letter:
                atom = [letter[tok]]
            elif tok is not None and tok[0] in _NAME_START:
                raise UndeclaredGenerator(tok)
            else:
                fail(i, "generator, '(' or '1'")
            i += 1
            while True:  # an atom ends a factor; a closed word is the next atom
                if toks[i] == "^":
                    if not (toks[i + 1] or "").lstrip("-").isdecimal():
                        fail(i + 1, "integer exponent")
                    atom = _power(atom, int(toks[i + 1]))
                    i += 2
                _push(out, atom)
                if toks[i] == "*":
                    i += 1
                    break
                if not open_words:
                    return out, i
                if toks[i] != ")":
                    fail(i, "')'")
                atom, out = out, open_words.pop()
                i += 1

    relators: list[Word] = []
    i += 1
    while toks[i] != ">":
        rel, i = word(i)
        if toks[i] == "=":  # lhs = rhs is stored as lhs * rhs^-1
            rhs, i = word(i + 1)
            _push(rel, _power(rhs, -1))
        relators.append(_encode(rel))
        if toks[i] == ",":
            i += 1
        elif toks[i] != ">":
            fail(i, "',' or '>'")
    if toks[i + 1] is not None:
        fail(i + 1, "end of input")
    return Presentation(tuple(gens), tuple(relators))


def _push(word: list[int], letters: list[int]):
    """Append free-reduced letters to a free-reduced word; only the join can cancel."""
    t = 0
    while t < len(letters) and word and word[-1] == letters[t] ^ 1:
        word.pop()
        t += 1
    word.extend(letters[t:])


def _power(letters: list[int], k: int) -> list[int]:
    """The k-th power of a free-reduced word u*v*u^-1, v cyclically reduced: u*v^k*u^-1."""
    if k < 0:
        letters, k = [x ^ 1 for x in reversed(letters)], -k
    if not letters or k == 0:
        return []
    n, t = len(letters), 0
    while letters[n - 1 - t] == letters[t] ^ 1:  # stops before the middle of a reduced word
        t += 1
    return letters[:t] + letters[t:n - t] * k + letters[n - t:]


def _encode(letters: list[int]) -> Word:
    """Run-length encode a free-reduced letter list as a Word."""
    runs = ((x, len(list(run))) for x, run in groupby(letters))
    return tuple((x >> 1, -n if x & 1 else n) for x, n in runs)


# --- coset enumeration -------------------------------------------------------

def _letters(word: Word) -> list[int]:
    """Flatten a word into letters: 2*g for a generator, 2*g+1 for its inverse."""
    return [2 * g + (e < 0) for g, e in word for _ in range(abs(e))]


class _CosetTable:
    """Coset table plus union-find over coset numbers; the smaller number
    survives a merge, so coset 0 stays live.  Each entry is set with its
    inverse, and coincidence() clears the inverse of every entry of a dead
    row, so between calls no live row points at a dead coset.  A relator is
    (letters, last index, root, done): letters = root^k, root primitive, if
    k > 2 (marking a two-coset loop costs what rescanning it does), else root
    is empty; done holds cosets where, while live, a scan changes nothing."""

    def __init__(self, ngens: int, max_cosets: int, relators: list[list[int]]):
        self.width = 2 * ngens
        self.max_cosets = max_cosets
        self.rows: list[list] = [[None] * self.width]
        self.p = [0]
        self.queue: list[int] = []
        self.relators = []
        for w in sorted(relators, key=len):  # stable, shortest first: short ones collapse early
            # root: w's shortest rotation equal to w; k > 2 repeats w[0] 3 times
            m = len(w)
            if w and w.count(w[0]) > 2:
                s = "".join(map(chr, w))
                m = (s + s).find(s, 1)
            self.relators.append((w, len(w) - 1, w[:m] if 2 * m < len(w) else [], set()))

    def rep(self, k: int) -> int:
        while self.p[k] != k:
            self.p[k] = self.p[self.p[k]]
            k = self.p[k]
        return k

    def define(self, alpha: int, x: int) -> int:
        beta = len(self.rows)
        if beta >= self.max_cosets:
            raise CosetLimitExceeded(self.max_cosets)
        self.rows.append([None] * self.width)
        self.p.append(beta)
        self.rows[alpha][x] = beta
        self.rows[beta][x ^ 1] = alpha
        return beta

    def _merge(self, a: int, b: int):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        self.p[hi] = lo
        self.queue.append(hi)

    def coincidence(self, alpha: int, beta: int):
        rows = self.rows
        self._merge(alpha, beta)
        for y in self.queue:  # grows while walked
            for x, delta in enumerate(rows[y]):
                if delta is None:
                    continue
                rows[delta][x ^ 1] = None
                mu, nu = self.rep(y), self.rep(delta)
                if rows[mu][x] is not None:
                    self._merge(nu, rows[mu][x])
                elif rows[nu][x ^ 1] is not None:
                    self._merge(mu, rows[nu][x ^ 1])
                else:
                    rows[mu][x] = nu
                    rows[nu][x ^ 1] = mu
        self.queue.clear()

    def scan_relators(self, alpha: int, fill: bool = True) -> bool:
        """Scan each relator not yet closed at the live coset alpha, defining
        cosets to complete each scan when fill is set; False once alpha has died."""
        rows, p = self.rows, self.p
        for letters, last, root, done in self.relators:
            if root and alpha in done:
                continue
            f, i = alpha, 0
            b, j = alpha, last
            while True:
                while i <= j and (nxt := rows[f][letters[i]]) is not None:
                    f = nxt
                    i += 1
                while j >= i and (nxt := rows[b][letters[j] ^ 1]) is not None:
                    b = nxt
                    j -= 1
                if j > i:
                    if not fill:
                        break
                    self.define(f, letters[i])
                    continue
                if j == i:
                    rows[f][letters[i]] = b
                    rows[b][letters[i] ^ 1] = f
                elif f != b:
                    self.coincidence(f, b)
                    if p[alpha] != alpha:
                        return False
                    break
                # alpha * v^k = alpha, so v^k closes at each alpha * v^t too
                beta = alpha
                while root and beta not in done:
                    done.add(beta)
                    for x in root:
                        beta = rows[beta][x]
                break
        return True

    def compact(self):
        """Drop dead cosets and renumber the survivors contiguously."""
        live = [k for k in range(len(self.rows)) if self.p[k] == k]
        renum = {old: new for new, old in enumerate(live)}
        new_rows = []
        for old in live:
            new_rows.append([None if v is None else renum[self.rep(v)]
                             for v in self.rows[old]])
        self.rows = new_rows
        self.p = list(range(len(live)))
        self.queue.clear()
        self.relators = [(w, last, root, set()) for w, last, root, _ in self.relators]


def enumerate_presentation(pres: Presentation, max_cosets: int | None = None) -> FiniteGroup:
    """Run coset enumeration over the trivial subgroup and return the
    presented group's multiplication table.

    Element 0 is the identity and element order is coset discovery order.
    max_cosets defaults to NONCENT_MAX_COSETS from the environment, else
    100000.  Raises CosetLimitExceeded when the cap is hit even after a
    lookahead pass (possibly-infinite group).
    """
    if max_cosets is None:
        max_cosets = int(os.environ.get("NONCENT_MAX_COSETS", DEFAULT_MAX_COSETS))
    ct = _CosetTable(len(pres.generators), max_cosets, [_letters(w) for w in pres.relators])
    tried_lookahead = False

    alpha = 0
    while alpha < len(ct.rows):
        if ct.p[alpha] != alpha:
            alpha += 1
            continue
        try:
            if ct.scan_relators(alpha) and None in (row := ct.rows[alpha]):
                for x in range(ct.width):
                    if row[x] is None:
                        ct.define(alpha, x)
        except CosetLimitExceeded:
            if tried_lookahead:
                raise
            tried_lookahead = True
            _lookahead(ct)
            ct.compact()
            if len(ct.rows) >= ct.max_cosets:
                raise
            alpha = 0  # renumbering invalidated the cursor; rescans are cheap
            continue
        alpha += 1

    return _table_to_group(ct, pres)


def _lookahead(ct: _CosetTable):
    """Scan every live coset against every relator without defining, to flush
    coincidences before giving up."""
    for alpha in range(len(ct.rows)):
        if ct.p[alpha] == alpha:
            ct.scan_relators(alpha, fill=False)


def _table_to_group(ct: _CosetTable, pres: Presentation) -> FiniteGroup:
    """The group on the live cosets, numbered in BFS order from coset 0
    (always live), each labeled by the word that first reached it."""
    rows = ct.rows

    def step(coset: int, x: int) -> int:
        nxt = rows[coset][x]
        if nxt is None:  # incomplete table: not closed
            raise CosetLimitExceeded(ct.max_cosets)
        return nxt

    table, _, tree, tested = _action_table(0, step, ct.width)
    names = [g + inv for g in pres.generators for inv in ("", "^-1")]
    labels = ["e"]
    for p, x in tree[1:]:
        labels.append(f"{labels[p]}*{names[x]}" if p else names[x])
    return FiniteGroup(table, labels, tested)
