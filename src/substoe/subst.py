"""Primitive substitutions and their exact factor languages.

The language machinery never expands full images of letters.  It first
computes the exact two-block language by a closure argument, then reads
every longer factor out of letter images and the junctions of two-blocks.
The images are built level by level, each rule^t(y) joined once from the
level below with every run of copies cut to what the window needs, and
every size is counted in integers before its join.  The cuts preserve all
factors up to the window, so the enumeration is exact while huge rule
words stay cheap.
"""

import re
import sys
from array import array
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate

from .errors import (CapabilityError, DomainError, InternalError, SeedError,
                     _require_positive_int)
from .matrix import ExactMatrix, _irreducible_aperiodic
from .words import EXPAND_CAP, RunWord, word_of

LENGTH_GUARD = 2_000_000
POWER_ITER_CAP = 10_000
SLICE = 1 << 20
# letter codes as native 4-byte unsigned ints, for array("I")
CODEC = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"


def _over_guard(size):
    return CapabilityError(
        "image passed %d letters, over the expansion budget of %d"
        % (size, LENGTH_GUARD))


def _apply_counts(rows, v):
    """Sparse count rows, {letter index: count}, applied to the vector v."""
    return [sum(v[x] * c for x, c in row.items()) for row in rows]


def _apply_rules(rules, word):
    """One substitution step.

    Refuses as soon as the running length passes LENGTH_GUARD, before the
    rest of the image is built.  Runs are cut just above the guard: such
    a run is refused either way.
    """
    cap = LENGTH_GUARD + 1
    runs = []
    size = 0
    for letter, count in word.runs:
        if letter not in rules:
            raise DomainError("letter %r has no rule" % letter)
        for l, c in rules[letter].repeat(min(count, cap)).runs:
            if runs and runs[-1][0] == l:
                before = runs[-1][1]
                runs[-1][1] = before + c
                size += min(before + c, cap) - min(before, cap)
            else:
                runs.append([l, c])
                size += min(c, cap)
        if size > LENGTH_GUARD:
            raise _over_guard(size)
    return RunWord((l, min(c, cap)) for l, c in runs)


def _clamped_table(rules, n):
    """Translate table of the rules with runs cut to n letters, each image
    ending with the run that brings it to n letters, refused past
    LENGTH_GUARD, and the slice length whose image has about SLICE letters."""
    table = {}
    for letter, rule in rules.items():
        sizes = list(accumulate(min(c, n) for _, c in rule.runs))
        runs = rule.runs[:bisect_left(sizes, n) + 1]
        size = sum(min(c, n) for _, c in runs)
        if size > LENGTH_GUARD:
            raise _over_guard(size)
        table[ord(letter)] = "".join(l * min(c, n) for l, c in runs)
    return table, max(1, SLICE // max(map(len, table.values())))


def _window_feeds(images, blocks, n):
    """The texts the automaton reads, as (after, text, name) triples: text
    goes in from the state of name after (from the root when after is
    None), and the state it ends at is kept under name unless that is None.

    The longest image is the one host.  Each image is searched once in
    it: where found, its state is taken off the host's feed at the offset
    where it ends, so the host goes in cut there; elsewhere it goes in
    whole.  A junction image(b)[1-n:] + image(c)[:n-1] goes in once per
    distinct text outside the host, as image(c)[:n-1] on from image(b).
    """
    host = max(images.values(), key=len)
    stops, feeds = [], []
    for ch, image in images.items():
        at = host.find(image)
        if at < 0:
            feeds.append((None, image, ch))
        else:
            stops.append((at + len(image), ch))
    begin, after = 0, None
    for end, name in sorted(stops):
        feeds.append((after, host[begin:end], name))
        begin, after = end, name
    if n > 1:
        ends = {images[b][1 - n:] + images[c][:n - 1]: b for b, c in blocks}
        feeds += [(b, text[n - 1:], None) for text, b in ends.items()
                  if text not in host]
    return feeds


def _substring_profile(images, blocks, letters, n):
    """Counts of distinct j-letter factors of the window texts, j = 1..n.

    Builds the generalized suffix automaton (Blumer et al., "The smallest
    automaton recognizing the subwords of a text", TCS 1985) of every
    image and of image(b) + image(c)[:n-1] for every two-block bc, cut
    back to n-letter windows as in the truncated suffix trees of Na,
    Apostolico, Iliopoulos and Park (TCS 2003).  The factors of at most n
    letters of a two-block text are those of image(b) and of the junction
    image(b)[-(n-1):] + image(c)[:n-1].  An image inside the longest one
    adds no substring, so _window_feeds reads it off that image's feed.

    Reading letters on from a state goes on from its longest string X,
    which is in the automaton already: reading X from the root would end
    at that state without a clone, so the automaton is the one of a text
    that starts with X.  The state reached stands for a string that ends
    with the text read so far.  When X has n or more letters and no
    transition on the next letter c leads to a state one letter longer,
    c goes in from the state of the (n-1)-letter suffix P of X instead,
    up the suffix links.  Every new string of at most n letters is then
    a suffix of P + c, a window of the text, and every window still goes
    in: only strings of more than n letters differ, and the counts stop
    at n.

    The states live in one flat list with the state id as the offset:
    [length, suffix link, transition on each letter].  Offset 0 is a
    bottom state of length -1 with every transition to the root, so no
    suffix walk tests for the end of its chain, and 0 means no transition
    since none enters the bottom.  A list read returns the stored int
    object, so the loop boxes no int per letter; the price is a pointer
    per slot and an object per state id and length, about 2.5-3.5 times
    the memory of a 4-byte array, still linear in the states.  A letter
    is read as its code plus 2, the offset of its transition, through
    4-byte codes that fit any alphabet.  Each state s stands for exactly
    one distinct string of every length in (len(link(s)), len(s)], so
    one difference array over those ranges gives every count.
    """
    w = len(letters) + 2
    edge = n - 1
    table = {ord(ch): i + 2 for ch, i in letters.items()}
    blank = [0] * w
    t = [-1, 0] + [w] * (w - 2) + blank
    ends = {}
    for after, text, name in _window_feeds(images, blocks, n):
        last = w if after is None else ends[after]
        size = t[last]
        for c in array("I", text.translate(table).encode(CODEC)):
            q = t[last + c]
            size += 1
            # q = 0, no transition, reads the bottom's length -1
            if t[q] == size:
                last = q
                continue
            if size > n:
                # go on from the state of the context's last n-1 letters
                p = t[last + 1]
                while t[p] >= edge:
                    last = p
                    p = t[p + 1]
                size = t[last] + 1
                q = t[last + c]
                if t[q] == size:
                    last = q
                    continue
            i = last + c
            if q:
                p = last
                cur = 0
            else:
                cur = len(t)
                t += blank
                t[cur] = size
                t[i] = cur
                p = t[last + 1]
                last = cur
                i = p + c
                while not t[i]:
                    t[i] = cur
                    p = t[p + 1]
                    i = p + c
                q = t[i]
                if t[q] == t[p] + 1:
                    t[cur + 1] = q
                    continue
            # clone q at length len(p) + 1 and move p's suffix chain onto it
            clone = len(t)
            t += t[q:q + w]
            t[clone] = t[p] + 1
            while t[i] == q:
                t[i] = clone
                p = t[p + 1]
                i = p + c
            t[q + 1] = clone
            if cur:
                t[cur + 1] = clone
            else:
                last = clone
        if name is not None:
            ends[name] = last
    sizes = t[2 * w::w]
    diff = [0] * (max(sizes) + 2)
    for low, top in zip(map(t.__getitem__, t[2 * w + 1::w]), sizes):
        diff[low + 1] += 1
        diff[top + 1] -= 1
    return tuple(accumulate(diff[1:n + 1]))


# All factors of length n, plus the exact two-block language.
FactorLanguage = namedtuple("FactorLanguage", "n words two_blocks")


class Substitution:
    """A map sending each alphabet letter to a nonempty word."""

    def __init__(self, rules, alphabet=None):
        if not rules:
            raise DomainError("substitution needs at least one rule")
        if alphabet is None:
            alphabet = tuple(rules)
        alphabet = tuple(alphabet)
        index = {}
        for letter in alphabet:
            if not isinstance(letter, str) or not letter:
                raise DomainError("letters must be nonempty strings")
            if "." in letter or any(ch.isspace() for ch in letter):
                raise DomainError("letters may not contain dots or spaces")
            if letter in index:
                raise DomainError("duplicate letter %r" % letter)
            index[letter] = len(index)
        fixed = {}
        rows = []
        for letter in alphabet:
            if letter not in rules:
                raise DomainError("missing rule for %r" % letter)
            image = word_of(rules[letter])
            if image.is_empty:
                raise DomainError("rule for %r is empty" % letter)
            counts = image.letter_counts()
            if not counts.keys() <= index.keys():
                raise DomainError("rule for %r uses unknown letters" % letter)
            fixed[letter] = image
            rows.append({index[l]: c for l, c in counts.items()})
        if set(rules) != index.keys():
            raise DomainError("rules mention letters outside the alphabet")
        self.alphabet = alphabet
        self.rules = fixed
        # _counts[i]: {j: count of letter j in the rule of letter i}
        self._counts = rows
        self._language = None

    @property
    def size(self):
        return len(self.alphabet)

    def incidence_matrix(self):
        """Column j counts the letters inside the rule of letter j."""
        k = self.size
        return ExactMatrix(k, k, [row.get(i, 0) for i in range(k)
                                  for row in self._counts])

    def is_primitive(self):
        """Strong connectivity and period 1 of the letter graph."""
        return _irreducible_aperiodic(self._counts)

    def apply(self, word):
        return _apply_rules(self.rules, word_of(word))

    def compose(self, other):
        """Substitution sending each letter to self(other(letter))."""
        if self.alphabet != other.alphabet:
            raise DomainError("compose needs a shared alphabet")
        rules = {l: self.apply(other.rules[l]) for l in self.alphabet}
        return Substitution(rules, self.alphabet)

    def power(self, p):
        """The p-th iterate (see _lifted_power)."""
        return self._lifted_power(p, [1] * self.size)[0]

    def _lifted_power(self, p, weights):
        """(the p-th iterate, M^(p-1) weights) with M the letter counts,
        refused before any image is built when some k-th iterate, k <= p,
        has an image over LENGTH_GUARD.

        Rules are nonempty, so images never shrink under a step, and the
        largest k <= p within the guard is found by binary lifting: the
        lengths of the (k + 2^i)-th images are those of the k-th through
        the sparse counts of the 2^i-th iterate, and the weights take the
        same steps.  A step is squared only while the (2^i + 1)-th images
        fit, since no larger step is taken past that, so no count is cut
        and a squared one stays at most LENGTH_GUARD squared.  The refusal
        names the first k over the guard, with its letter and exact
        length; else the iterate is composed left to right over p's bits.
        """
        _require_positive_int(p, "power")
        lengths = [self.rules[l].length for l in self.alphabet]
        # steps[i][l]: {x: count of letter x in the 2^i-th image of l}
        steps = [self._counts]
        while (1 << len(steps) < p
               and max(_apply_counts(steps[-1], lengths)) <= LENGTH_GUARD):
            rows = []
            for row in steps[-1]:
                square = {}
                for y, c in row.items():
                    for x, d in steps[-1][y].items():
                        square[x] = square.get(x, 0) + c * d
                rows.append(square)
            steps.append(rows)
        k = 1
        for i in reversed(range(len(steps))):
            nxt = _apply_counts(steps[i], lengths)
            if k + (1 << i) <= p and max(nxt) <= LENGTH_GUARD:
                k += 1 << i
                lengths = nxt
                weights = _apply_counts(steps[i], weights)
        if k < p:
            for l, size in zip(self.alphabet,
                               _apply_counts(self._counts, lengths)):
                if size > LENGTH_GUARD:
                    raise CapabilityError(
                        "power %d image of %r has %d letters, over the "
                        "expansion budget of %d"
                        % (k + 1, l, size, LENGTH_GUARD))
        out = self
        for bit in bin(p)[3:]:
            out = out.compose(out)
            if bit == "1":
                out = out.compose(self)
        return out, weights

    def first_letter_map(self):
        return {l: self.rules[l].first for l in self.alphabet}

    def last_letter_map(self):
        return {l: self.rules[l].last for l in self.alphabet}

    def properness_witness(self):
        """Smallest m with constant first and last letters of all m-step
        images, as (m, first, last); None when no such m exists.

        Only s iterations matter: each map permutes its eventual image, so
        a collapse to a single letter happens within s steps or never.
        """
        fmap = self.first_letter_map()
        gmap = self.last_letter_map()
        fcur = {l: l for l in self.alphabet}
        gcur = dict(fcur)
        for m in range(1, self.size + 1):
            fcur = {l: fmap[fcur[l]] for l in self.alphabet}
            gcur = {l: gmap[gcur[l]] for l in self.alphabet}
            firsts = set(fcur.values())
            lasts = set(gcur.values())
            if len(firsts) == 1 and len(lasts) == 1:
                return (m, firsts.pop(), lasts.pop())
        return None

    def fixed_point_prefix(self, seed, n):
        """Initial n letters of the fixed point selected by the seed.

        One-sided seeds are a single letter l with rule(l) starting at l.
        Two-sided seeds are written "r.l" and also need rule(r) to end at
        r and the pair rl to be admissible; the result is then a dict with
        the n letters on each side of the origin.

        n over EXPAND_CAP is refused first.  Each edge iterates on encoded
        strings translated by the rules with runs cut to n letters, each
        image ending at the run that brings it to n letters (under 2n <=
        LENGTH_GUARD).  Every rule is nonempty, so the n letters at an edge
        of w fix those at that edge of rule(w), and neither cut changes
        them.  With rule(l) = l v, rule^(k+1)(l) is rule^k(l) followed by
        the image of the letters rule^k(l) adds to rule^(k-1)(l), so each
        letter is translated once; l grows exactly when v is nonempty.  The
        left edge is the right edge of the reversed rules, reversed.
        """
        _require_positive_int(n, "prefix length")
        if not isinstance(seed, str) or not seed:
            raise SeedError("seed must be a nonempty string")
        if "." in seed:
            left, _, right = seed.partition(".")
            if left not in self.rules or right not in self.rules:
                raise SeedError("unknown seed letters in %r" % seed)
            if self.rules[left].last != left:
                raise SeedError("rule of %r does not end with it" % left)
            if self.rules[right].first != right:
                raise SeedError("rule of %r does not start with it" % right)
            enc, _, blocks = self._encoded_language()
            if (enc[left], enc[right]) not in blocks:
                raise SeedError("seed pair %s%s is not admissible" % (left, right))
        elif seed not in self.rules:
            raise SeedError("unknown seed letter %r" % seed)
        elif self.rules[seed].first != seed:
            raise SeedError("rule of %r does not start with it" % seed)
        if n > EXPAND_CAP:
            raise CapabilityError("word of %d letters is over the expansion "
                                  "budget of %d" % (n, EXPAND_CAP))
        enc, rules = self._encoded_rules()
        dec = {ch: l for l, ch in enc.items()}

        def edge(letter, rules):
            table, piece = _clamped_table(rules, n)
            parts = [table[ord(enc[letter])]]
            if n > 1 and len(parts[0]) == 1:
                raise SeedError("seed letter %r does not grow" % letter)
            # parts: the cut images of the letters before parts[i][done]
            size, i, done = len(parts[0]), 0, 1
            while size < n:
                if done >= len(parts[i]):
                    i, done = i + 1, 0
                parts.append(parts[i][done:done + piece].translate(table))
                size += len(parts[-1])
                done += piece
            return tuple(map(dec.get, "".join(parts)[:n]))

        if "." not in seed:
            return edge(seed, rules)
        flipped = {ch: RunWord(rule.runs[::-1]) for ch, rule in rules.items()}
        return {"left": edge(left, flipped)[::-1], "right": edge(right, rules)}

    # -- factor language engine ------------------------------------------

    def _encoded_rules(self):
        """One character per letter, and the rules over those characters."""
        if all(len(l) == 1 for l in self.alphabet):
            return {l: l for l in self.alphabet}, self.rules
        enc = {l: chr(i) for i, l in enumerate(self.alphabet)}
        return enc, {enc[letter]: RunWord((enc[l], c) for l, c in rule.runs)
                     for letter, rule in self.rules.items()}

    def _length_ladder(self, target):
        """Image lengths [|rule^t(l)| for l in the alphabet], t = 0..m, with
        m the least power whose images all have at least target letters.

        Each rung follows from the last through the letter counts of the
        rules: |rule^(t+1)(l)| = sum of count(x, rule(l)) * |rule^t(x)|.
        """
        v = [1] * self.size
        ladder = [v]
        while min(v) < target:
            nxt = _apply_counts(self._counts, v)
            if nxt == v:
                raise DomainError("substitution images do not grow")
            v = nxt
            ladder.append(v)
            if len(ladder) > POWER_ITER_CAP + 1:
                raise CapabilityError(
                    "growth power search passed its cap of %d steps with the "
                    "shortest image at %d of %d letters"
                    % (POWER_ITER_CAP, min(v), target))
        return ladder

    def _two_blocks_encoded(self, rules):
        """Exact two-block language over the encoded alphabet.

        Every two-block of rule^(N+1)(a) lies inside rule(x) for a letter
        x of rule^N(a), or it is the junction (last of rule(x), first of
        rule(y)) of a two-block xy of rule^N(a).  By induction on N, the
        pairs inside the rules, closed under the junction map
        (b, c) -> (last of rule(b), first of rule(c)), hold every
        two-block.  Each pair found is admissible: every letter occurs in
        the language of a primitive substitution, so every rule does, and
        the images of an admissible bc hold its junction.  Rules of one
        letter each give no pair, and their images never grow.
        """
        found = set()
        for rule in rules.values():
            found |= rule.two_factors()
        if not found:
            raise DomainError("substitution images do not grow")
        work = list(found)
        while work:
            b, c = work.pop()
            pair = (rules[b].last, rules[c].first)
            if pair not in found:
                found.add(pair)
                work.append(pair)
        return found

    def _encoded_language(self):
        """Encoding, encoded rules and two-block language, built once;
        refused for a substitution that is not primitive."""
        if self._language is None:
            if not self.is_primitive():
                raise DomainError("factor language needs a primitive substitution")
            enc, rules = self._encoded_rules()
            self._language = (enc, rules, self._two_blocks_encoded(rules))
        return self._language

    def _window_texts(self, n):
        """Encoded letter images whose n-windows give the n-factors.

        Returns (images, blocks, enc): images maps each encoded letter, in
        alphabet order, to a string with the n-windows and the (n-1)-letter
        prefix and suffix of its m-step image, m the growth power for n.
        Every letter of a primitive substitution is in the two-block
        language.  Images are at least n letters long, so every n-window
        of image(b) + image(c) for an admissible two-block bc lies inside
        one image or inside the junction image(b)[-(n-1):] + image(c)[:n-1].

        The images are built level by level from cur[y] = y.  Level t
        joins, over the runs z^r of rule(y), cur[z] repeated min(r, c)
        times, c = ceil((n-1)/|rule^(t-1)(z)|) + 1 with the lengths from
        the ladder of the growth power.  So each rule^t(y) is built once
        and shared by every letter above it.  The n-view of a word is its
        n-windows, its (n-1)-letter prefix and suffix and whether it has at
        least n letters.  c consecutive copies of rule^(t-1)(z) hold the
        n-view of rule^(t-1)(z)^r, since each window spans at most c
        copies, and the n-views of the parts fix that of their join; so
        every level keeps the n-view of the full image.  Copies that meet
        across two runs are not cut, so an image can be longer than one
        cut after every substitution step.  Each joined size is counted in
        integers and refused past LENGTH_GUARD before the join.  On the
        last level every letter run longer than n, which only a letter x
        with xx in the two-block language forms, is cut to n letters; its
        pattern is compiled only for an image that holds such a run.
        """
        _require_positive_int(n, "factor length")
        enc, rules, blocks = self._encoded_language()
        cur = {ch: ch for ch in rules}
        for rung in self._length_ladder(n)[:-1]:
            keep = {ch: -(-(n - 1) // size) + 1
                    for ch, size in zip(rules, rung)}
            below, cur = cur, {}
            for y, rule in rules.items():
                parts = [(below[z], min(r, keep[z])) for z, r in rule.runs]
                size = sum(len(part) * r for part, r in parts)
                if size > LENGTH_GUARD:
                    raise _over_guard(size)
                cur[y] = "".join([part * r for part, r in parts])
        runs = [x * (n + 1) for x in rules if (x, x) in blocks]
        images = {}
        for ch, img in cur.items():
            for run in runs:
                if run in img:
                    img = re.sub("%s{%d,}" % (re.escape(run[0]), n + 1),
                                 lambda _: run[:n], img)
            if len(img) > EXPAND_CAP:
                raise CapabilityError(
                    "clamped image has %d letters, over the expansion cap "
                    "of %d" % (len(img), EXPAND_CAP))
            images[ch] = img
        return images, blocks, enc

    def factor_language(self, n):
        """The n-factors, read as the windows of the window texts, and the
        two-block language; the words are refused past LENGTH_GUARD
        letters, checked every SLICE letters read."""
        images, blocks, enc = self._window_texts(n)
        texts = list(images.values())
        if n > 1:
            texts += [images[b][1 - n:] + images[c][:n - 1] for b, c in blocks]
        words = set()
        step = max(1, SLICE // n)
        for text in texts:
            end = len(text) - n + 1
            for start in range(0, end, step):
                for i in range(start, min(start + step, end)):
                    words.add(text[i:i + n])
                if len(words) * n > LENGTH_GUARD:
                    raise CapabilityError(
                        "factors of length %d passed %d letters, over the "
                        "word budget of %d" % (n, len(words) * n, LENGTH_GUARD))
        dec = {v: k for k, v in enc.items()}
        return FactorLanguage(
            n=n,
            words=frozenset(tuple(dec[ch] for ch in w) for w in words),
            two_blocks=frozenset((dec[b], dec[c]) for b, c in blocks))

    def complexity(self, n):
        return self.complexity_profile(n)[-1]

    def complexity_profile(self, n_max):
        """Tuple of factor counts p(1), ..., p(n_max).

        For j <= n_max the j-factors are exactly the j-letter substrings
        of the window texts: each such substring lies in an n_max-window,
        and every factor extends to an n_max-factor.  One suffix automaton
        over the images and junctions counts them all in linear memory.
        It is cut back to n_max-letter windows, and images inside the
        longest image are read off its feed: only strings longer than
        n_max change, so no count does (see _substring_profile).  p(1) is
        checked against the alphabet size and p(2) against the two-block
        closure, two counts that need no window.
        """
        images, blocks, enc = self._window_texts(n_max)
        letters = {ch: i for i, ch in enumerate(enc.values())}
        profile = _substring_profile(images, blocks, letters, n_max)
        for k, name, count in ((1, "letters", self.size),
                               (2, "two-blocks", len(blocks))):
            if k <= n_max and profile[k - 1] != count:
                raise InternalError("profile p(%d) = %d disagrees with the "
                                    "%d %s" % (k, profile[k - 1], count, name))
        return profile

    def __repr__(self):
        def shown(rule):
            # spelled out only up to 40 letters, as RunWord.__repr__ does
            compact = rule.as_compact() if rule.length <= 40 else None
            return compact or repr(rule)

        inner = ", ".join("%s->%s" % (l, shown(self.rules[l]))
                          for l in self.alphabet[:4])
        if self.size > 4:
            inner += ", ..."
        return "Substitution(%s)" % inner


def linear_bound_estimate(subst, n_probe):
    """Smallest observed C with p(n) <= C*n across the probed range."""
    return _slope_bound(subst.complexity_profile(n_probe))


def _slope_bound(profile):
    """Smallest integer C >= 1 with p(n) <= C*n for the counts p(1), ...
    of profile."""
    return max([1] + [-(-p // n) for n, p in enumerate(profile, start=1)])
