"""Primitive substitutions and their exact factor languages.

The language machinery never expands full images of letters.  It first
computes the exact two-block language by a closure argument, then reads
every longer factor out of images of two-block words whose runs have been
clamped to the window size.  Clamping preserves all factors up to the
window, so the enumeration is exact while huge rule words stay cheap.
"""

import re
from array import array
from dataclasses import dataclass
from itertools import accumulate

from .errors import CapabilityError, DomainError, InternalError, SeedError
from .matrix import ExactMatrix, primitivity_exponent
from .words import EXPAND_CAP, RunWord, word_of

LENGTH_GUARD = 2_000_000
POWER_ITER_CAP = 10_000
SLICE = 1 << 20


def _over_guard(size):
    return CapabilityError(
        "image passed %d letters, over the expansion budget of %d"
        % (size, LENGTH_GUARD))


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


def _run_cutter(letter, width):
    """Pattern and replacement that cut each run of letter to width."""
    pattern = re.compile("%s{%d,}" % (re.escape(letter), width + 1))
    return pattern, lambda run: run.group()[:width]


def _image_step(rules, n):
    """One clamped substitution step on encoded strings, as a function.

    The function maps an image s, whose runs have at most n letters, to
    an image with the n-windows, the (n-1)-letter prefix and suffix and
    the length of at least n of clamp(rule(s)), which is rule(s) with
    every run cut to n.  It translates s by the rules with their runs cut
    to n, then cuts the runs of the result to n.  Before translating,
    each run x^r of s keeps only c = ceil((n-1)/|rule(x)|) + 1 copies of
    x, as in RunWord.repeat_clamped: c consecutive copies of rule(x) hold
    every n-window of rule(x)^r and its (n-1)-letter prefix and suffix.

    The image is built from slices of at most about SLICE letters and
    refused as soon as its length passes LENGTH_GUARD.  Runs are cut to
    at most LENGTH_GUARD + 1 letters: a longer run is refused either way.
    """
    width = min(n, LENGTH_GUARD + 1)
    table = {}
    cuts = []
    for letter, rule in rules.items():
        size = sum(min(c, n) for _, c in rule.runs)
        if size > LENGTH_GUARD:
            raise _over_guard(size)
        table[ord(letter)] = "".join(l * min(c, n) for l, c in rule.runs)
        copies = -(-(n - 1) // size) + 1
        if copies < width:
            cuts.append(_run_cutter(letter, copies))
    clamps = [_run_cutter(letter, width) for letter in rules]
    piece = max(1, SLICE // max(map(len, table.values())))

    def step(word):
        for pattern, cut in cuts:
            word = pattern.sub(cut, word)
        parts = []
        built = 0
        carry = ""
        for start in range(0, len(word), piece):
            out = carry + word[start:start + piece].translate(table)
            for pattern, cut in clamps:
                out = pattern.sub(cut, out)
            # the last run may go on in the next slice
            end = len(out.rstrip(out[-1]))
            parts.append(out[:end])
            carry = out[end:]
            built += end
            if built + len(carry) > LENGTH_GUARD:
                raise _over_guard(built + len(carry))
        parts.append(carry)
        return "".join(parts)

    return step


def _substring_profile(images, blocks, letters, n):
    """Counts of distinct j-letter factors of the window texts, j = 1..n.

    Builds the generalized suffix automaton (Blumer et al., "The smallest
    automaton recognizing the subwords of a text", TCS 1985) of every
    image and of image(b) + image(c)[:n-1] for every two-block bc, in
    flat tables: state length, suffix link, and transitions at
    state*k + letter, where 0 means none since no transition enters the
    root.  Each image goes in once; a two-block text goes on from the
    state reached at the end of image(b), which stands for image(b)
    itself.  Its factors of at most n letters are those of image(b) and
    of the junction image(b)[-(n-1):] + image(c)[:n-1].  Each state s
    stands for exactly one distinct substring of every length in
    (len(link(s)), len(s)], so one difference array over those ranges
    cut at n gives every count.
    """
    k = len(letters)
    blank = array("i", [0]) * k
    size = array("i", [0])
    link = array("i", [-1])
    go = array("i", blank)

    def split(p, q, c):
        # clone q at length len(p)+1 and move p's suffix chain onto it
        clone = len(size)
        size.append(size[p] + 1)
        link.append(link[q])
        go.extend(go[q * k:q * k + k])
        while p != -1 and go[p * k + c] == q:
            go[p * k + c] = clone
            p = link[p]
        link[q] = clone
        return clone

    ends = {}
    texts = [(ch, None, image) for ch, image in images.items()]
    if n > 1:
        texts += [(None, b, images[c][:n - 1]) for b, c in blocks]
    for name, after, text in texts:
        last = 0 if after is None else ends[after]
        for ch in text:
            c = letters[ch]
            q = go[last * k + c]
            if q:
                last = q if size[q] == size[last] + 1 else split(last, q, c)
                continue
            cur = len(size)
            size.append(size[last] + 1)
            link.append(0)
            go.extend(blank)
            p = last
            while p != -1 and not go[p * k + c]:
                go[p * k + c] = cur
                p = link[p]
            if p != -1:
                q = go[p * k + c]
                link[cur] = q if size[q] == size[p] + 1 else split(p, q, c)
            last = cur
        if name is not None:
            ends[name] = last
    diff = [0] * (n + 2)
    for parent, top in zip(link[1:], size[1:]):
        low = size[parent] + 1
        if low <= n:
            diff[low] += 1
            diff[min(top, n) + 1] -= 1
    return tuple(accumulate(diff[1:n + 1]))


@dataclass(frozen=True)
class FactorLanguage:
    """All factors of one length, plus the exact two-block language."""
    n: int
    words: frozenset
    two_blocks: frozenset


class Substitution:
    """A map sending each alphabet letter to a nonempty word."""

    def __init__(self, rules, alphabet=None):
        if not rules:
            raise DomainError("substitution needs at least one rule")
        if alphabet is None:
            alphabet = tuple(rules)
        alphabet = tuple(alphabet)
        seen = set()
        for letter in alphabet:
            if not isinstance(letter, str) or not letter:
                raise DomainError("letters must be nonempty strings")
            if "." in letter or any(ch.isspace() for ch in letter):
                raise DomainError("letters may not contain dots or spaces")
            if letter in seen:
                raise DomainError("duplicate letter %r" % letter)
            seen.add(letter)
        fixed = {}
        for letter in alphabet:
            if letter not in rules:
                raise DomainError("missing rule for %r" % letter)
            image = word_of(rules[letter])
            if image.is_empty:
                raise DomainError("rule for %r is empty" % letter)
            if not image.letters_used() <= seen:
                raise DomainError("rule for %r uses unknown letters" % letter)
            fixed[letter] = image
        if set(rules) != seen:
            raise DomainError("rules mention letters outside the alphabet")
        self.alphabet = alphabet
        self.rules = fixed
        self._index = {l: i for i, l in enumerate(alphabet)}
        self._primitivity = None
        self._primitivity_known = False
        self._language = None

    @property
    def size(self):
        return len(self.alphabet)

    def incidence_matrix(self):
        """Column j counts the letters inside the rule of letter j."""
        cols = []
        for letter in self.alphabet:
            counts = self.rules[letter].letter_counts()
            cols.append([counts.get(l, 0) for l in self.alphabet])
        return ExactMatrix.from_columns(cols)

    def primitivity(self):
        if not self._primitivity_known:
            self._primitivity = primitivity_exponent(self.incidence_matrix())
            self._primitivity_known = True
        return self._primitivity

    def is_primitive(self):
        return self.primitivity() is not None

    def apply(self, word):
        return _apply_rules(self.rules, word_of(word))

    def compose(self, other):
        """Substitution sending each letter to self(other(letter))."""
        if self.alphabet != other.alphabet:
            raise DomainError("compose needs a shared alphabet")
        rules = {l: self.apply(other.rules[l]) for l in self.alphabet}
        return Substitution(rules, self.alphabet)

    def power(self, p):
        """The p-th iterate, composed by repeated squaring, refused before
        any image is built when the image of a letter under some k-th
        iterate, k <= p, would pass LENGTH_GUARD.

        Rules are nonempty, so images never shrink under a step and
        |rule^k(l)| does not decrease as k grows.  The largest k <= p
        within the guard is found in integers by binary lifting: the
        lengths of the (k + 2^i)-th images are those of the k-th images
        through the letter counts of the 2^i-th iterate, a matrix kept
        saturated at LENGTH_GUARD + 1.  The refusal names the first k
        over the guard, with its letter and exact length.
        """
        if p < 1:
            raise DomainError("power must be positive")
        cap = LENGTH_GUARD + 1
        letters = self.alphabet
        counts = [self.rules[l].letter_counts() for l in letters]
        # steps[i][l][x]: count of letter x in the 2^i-th image of l
        steps = [[[cnt.get(x, 0) for x in letters] for cnt in counts]]
        while 1 << len(steps) < p:
            q = steps[-1]
            steps.append([[min(cap, sum(a * b for a, b in zip(row, col)))
                           for col in zip(*q)] for row in q])
        k = 1
        lengths = [self.rules[l].length for l in letters]
        for i in range(len(steps) - 1, -1, -1):
            if k + (1 << i) <= p:
                nxt = [min(cap, sum(a * b for a, b in zip(row, lengths)))
                       for row in steps[i]]
                if max(nxt) <= LENGTH_GUARD:
                    k += 1 << i
                    lengths = nxt
        if k < p:
            for l, row in zip(letters, steps[0]):
                size = sum(a * b for a, b in zip(row, lengths))
                if size > LENGTH_GUARD:
                    raise CapabilityError(
                        "power %d image of %r has %d letters, over the "
                        "expansion budget of %d"
                        % (k + 1, l, size, LENGTH_GUARD))
        out = None
        square = self
        while True:
            if p & 1:
                out = square if out is None else out.compose(square)
            p >>= 1
            if not p:
                return out
            square = square.compose(square)

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

    def find_fixed_point_seed(self):
        """Pair (letter, p) so that the p-th power fixes letter in front.

        Smallest power first, alphabet order inside; follows the
        first-letter map, whose orbits always cycle.
        """
        fmap = self.first_letter_map()
        cur = {l: l for l in self.alphabet}
        for p in range(1, self.size + 1):
            cur = {l: fmap[cur[l]] for l in self.alphabet}
            for letter in self.alphabet:
                if cur[letter] == letter:
                    return (letter, p)
        raise InternalError("first-letter map has no periodic letter")

    def _image_edge(self, word, n, side):
        # one substitution step, keeping only n letters at the chosen edge
        parts = []
        size = 0
        runs = word.runs if side == "right" else reversed(word.runs)
        for letter, count in runs:
            image = self.rules[letter]
            while count > 0 and size < n:
                parts.append(image.runs)
                size += image.length
                count -= 1
            if size >= n:
                break
        if side == "right":
            flat = [r for chunk in parts for r in chunk]
            return RunWord(flat).prefix(n)
        flat = [r for chunk in reversed(parts) for r in chunk]
        return RunWord(flat).suffix(n)

    def _edge_iterate(self, letter, n, side):
        word = RunWord(((letter, 1),))
        for _ in range(n + 5):
            grown = self._image_edge(word, n, side)
            if grown == word:
                raise SeedError("seed letter %r does not grow" % letter)
            word = grown
            if word.length >= n:
                return word
        raise InternalError("edge iteration failed to settle")

    def fixed_point_prefix(self, seed, n):
        """Initial n letters of the fixed point selected by the seed.

        One-sided seeds are a single letter l with rule(l) starting at l.
        Two-sided seeds are written "r.l" and also need rule(r) to end at
        r and the pair rl to be admissible; the result is then a dict with
        the n letters on each side of the origin.
        """
        if n < 1:
            raise DomainError("prefix length must be positive")
        if not isinstance(seed, str) or not seed:
            raise SeedError("seed must be a nonempty string")
        if "." in seed:
            left, _, right = seed.partition(".")
            if left not in self._index or right not in self._index:
                raise SeedError("unknown seed letters in %r" % seed)
            if self.rules[left].last != left:
                raise SeedError("rule of %r does not end with it" % left)
            if self.rules[right].first != right:
                raise SeedError("rule of %r does not start with it" % right)
            if (left, right) not in self.factor_language(2).two_blocks:
                raise SeedError("seed pair %s%s is not admissible" % (left, right))
            return {
                "left": self._edge_iterate(left, n, "left").expand(),
                "right": self._edge_iterate(right, n, "right").expand(),
            }
        if seed not in self._index:
            raise SeedError("unknown seed letter %r" % seed)
        if self.rules[seed].first != seed:
            raise SeedError("rule of %r does not start with it" % seed)
        return self._edge_iterate(seed, n, "right").expand()

    # -- factor language engine ------------------------------------------

    def _encoding(self):
        if all(len(l) == 1 for l in self.alphabet):
            return {l: l for l in self.alphabet}
        return {l: chr(i) for i, l in enumerate(self.alphabet)}

    def _encoded_rules(self, enc):
        out = {}
        for letter in self.alphabet:
            out[enc[letter]] = RunWord(
                (enc[l], c) for l, c in self.rules[letter].runs)
        return out

    def _growth_power(self, target):
        """Least m with every m-step image at least target letters long."""
        if target <= 1:
            return 0
        a = self.incidence_matrix()
        s = self.size
        rows = [[int(a.at(i, j)) for j in range(s)] for i in range(s)]
        v = [self.rules[l].length for l in self.alphabet]
        m = 1
        while min(v) < target:
            nxt = [sum(rows[i][j] * v[i] for i in range(s)) for j in range(s)]
            if nxt == v:
                raise DomainError("substitution images do not grow")
            v = nxt
            m += 1
            if m > POWER_ITER_CAP:
                raise CapabilityError(
                    "growth power search passed its cap of %d steps with the "
                    "shortest image at %d of %d letters"
                    % (POWER_ITER_CAP, min(v), target))
        return m

    def _two_blocks_encoded(self, rules):
        """Exact two-block language over the encoded alphabet.

        Seeds with all adjacent pairs inside images deep enough that every
        letter image has length two, then closes under the pair map
        (b, c) -> pairs of rule(b), rule(c) plus their junction.  Every
        added pair stays admissible and the closure reaches all of them.
        """
        letters = list(rules)
        m0 = max(self._growth_power(2), 1)
        fmap = {ch: rules[ch].first for ch in letters}
        gmap = {ch: rules[ch].last for ch in letters}
        fpow = dict(fmap)
        gpow = dict(gmap)
        tsets = {ch: rules[ch].two_factors() for ch in letters}
        for _ in range(m0 - 1):
            nxt = {}
            for ch in letters:
                rule = rules[ch]
                pairs = set()
                for d in rule.letters_used():
                    pairs |= tsets[d]
                for b, c in rule.two_factors():
                    pairs.add((gpow[b], fpow[c]))
                nxt[ch] = pairs
            tsets = nxt
            fpow = {ch: fmap[fpow[ch]] for ch in letters}
            gpow = {ch: gmap[gpow[ch]] for ch in letters}
        work = set()
        for ch in letters:
            work |= tsets[ch]
        while True:
            grown = set(work)
            for b, c in work:
                grown |= rules[b].two_factors()
                grown |= rules[c].two_factors()
                grown.add((rules[b].last, rules[c].first))
            if grown == work:
                return work
            work = grown

    def _encoded_language(self):
        """Encoding, encoded rules and two-block language, built once."""
        if self._language is None:
            enc = self._encoding()
            rules = self._encoded_rules(enc)
            self._language = (enc, rules, self._two_blocks_encoded(rules))
        return self._language

    def _window_texts(self, n):
        """Encoded letter images whose n-windows give the n-factors.

        Returns (images, blocks, enc): images maps each encoded letter of
        the two-block language, in alphabet order, to a string with the
        n-windows and the (n-1)-letter prefix and suffix of its clamped
        m-step image, m the growth power for n.  Images are at least n
        letters long, so every n-window of image(b) + image(c) for an
        admissible two-block bc lies inside one image or inside the
        junction image(b)[-(n-1):] + image(c)[:n-1].
        """
        if n < 1:
            raise DomainError("factor length must be positive")
        if not self.is_primitive():
            raise DomainError("factor language needs a primitive substitution")
        enc, rules, blocks = self._encoded_language()
        m = self._growth_power(n)
        used = {ch for block in blocks for ch in block}
        images = {ch: ch for ch in enc.values() if ch in used}
        if m:
            step = _image_step(rules, n)
            for ch in images:
                img = ch
                for _ in range(m):
                    img = step(img)
                if len(img) > EXPAND_CAP:
                    raise CapabilityError(
                        "clamped image has %d letters, over the expansion cap "
                        "of %d" % (len(img), EXPAND_CAP))
                images[ch] = img
        return images, blocks, enc

    def _window_words(self, n):
        """Encoded n-factor strings of the substitution language."""
        images, blocks, enc = self._window_texts(n)
        texts = list(images.values())
        if n > 1:
            texts += [images[b][1 - n:] + images[c][:n - 1] for b, c in blocks]
        out = set()
        for text in texts:
            for i in range(len(text) - n + 1):
                out.add(text[i:i + n])
        return out, blocks, enc

    def factor_language(self, n):
        words, blocks, enc = self._window_words(n)
        dec = {v: k for k, v in enc.items()}
        return FactorLanguage(
            n=n,
            words=frozenset(tuple(dec[ch] for ch in w) for w in words),
            two_blocks=frozenset((dec[b], dec[c]) for b, c in blocks))

    def complexity(self, n):
        return len(self._window_words(n)[0])

    def complexity_profile(self, n_max, validate=True):
        """Tuple of factor counts p(1), ..., p(n_max).

        For j <= n_max the j-factors are exactly the j-letter substrings
        of the window texts: each such substring lies in an n_max-window,
        and every factor extends to an n_max-factor.  One suffix automaton
        over the images and junctions counts them all in linear time and
        memory.
        """
        if n_max < 1:
            raise DomainError("profile needs n_max >= 1")
        images, blocks, enc = self._window_texts(n_max)
        letters = {ch: i for i, ch in enumerate(enc.values())}
        profile = _substring_profile(images, blocks, letters, n_max)
        if validate:
            for k in sorted({1, min(3, n_max)}):
                if profile[k - 1] != self.complexity(k):
                    raise InternalError("profile disagrees with direct count")
        return tuple(profile)

    def aperiodicity_scan(self, n_cap):
        """Check p(n) > n on the range; a failure certifies periodicity."""
        profile = self.complexity_profile(n_cap, validate=False)
        for n, p in enumerate(profile, start=1):
            if p <= n:
                return {"aperiodic": False, "violation_at": n, "count": p}
        return {"aperiodic": True, "n_cap": n_cap}

    def __repr__(self):
        inner = ", ".join(
            "%s->%s" % (l, self.rules[l].as_compact() or "<long>")
            for l in self.alphabet[:4])
        if self.size > 4:
            inner += ", ..."
        return "Substitution(%s)" % inner


def linear_bound_estimate(subst, n_probe):
    """Smallest observed C with p(n) <= C*n across the probed range."""
    profile = subst.complexity_profile(n_probe, validate=False)
    best = 1
    for n, p in enumerate(profile, start=1):
        best = max(best, -(-p // n))
    return best
