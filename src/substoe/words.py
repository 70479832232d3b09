"""Run-length encoded words over string alphabets.

A RunWord stores maximal runs (letter, count) so that words with runs of
astronomical length stay cheap to handle.  Window-limited operations
(clamp, repeat_clamped) shorten runs while preserving every factor of a
chosen window size together with the prefix and suffix of that size,
which is exactly what the factor-language machinery relies on.
"""

from .errors import CapabilityError, DomainError

EXPAND_CAP = 1_000_000


def _merged(pairs):
    out = []
    for letter, count in pairs:
        count = int(count)
        if count < 0:
            raise DomainError("negative run count")
        if count == 0:
            continue
        if out and out[-1][0] == letter:
            out[-1][1] += count
        else:
            out.append([letter, count])
    return tuple((l, c) for l, c in out)


class RunWord:
    __slots__ = ("runs", "length")

    def __init__(self, pairs=()):
        object.__setattr__(self, "runs", _merged(pairs))
        object.__setattr__(self, "length", sum(c for _, c in self.runs))

    def __setattr__(self, name, value):
        raise AttributeError("RunWord is immutable")

    @classmethod
    def from_letters(cls, letters):
        return cls((l, 1) for l in letters)

    @classmethod
    def from_string(cls, text):
        """Word whose letters are the individual characters of text."""
        return cls((ch, 1) for ch in text)

    @property
    def is_empty(self):
        return not self.runs

    @property
    def first(self):
        if not self.runs:
            raise DomainError("empty word has no first letter")
        return self.runs[0][0]

    @property
    def last(self):
        if not self.runs:
            raise DomainError("empty word has no last letter")
        return self.runs[-1][0]

    def letters_used(self):
        return frozenset(l for l, _ in self.runs)

    def letter_counts(self):
        counts = {}
        for letter, count in self.runs:
            counts[letter] = counts.get(letter, 0) + count
        return counts

    def __add__(self, other):
        if not isinstance(other, RunWord):
            return NotImplemented
        return RunWord(self.runs + other.runs)

    def repeat(self, count):
        """The word concatenated with itself count times, materialized."""
        count = int(count)
        if count < 0:
            raise DomainError("negative repeat count")
        if count == 0 or not self.runs:
            return RunWord()
        if len(self.runs) == 1:
            letter, c = self.runs[0]
            return RunWord(((letter, c * count),))
        if count * len(self.runs) > EXPAND_CAP:
            raise CapabilityError(
                "run expansion to %d runs exceeds the budget of %d; clamp first"
                % (count * len(self.runs), EXPAND_CAP))
        return RunWord(self.runs * count)

    def repeat_clamped(self, count, window):
        """Repeat truncated so all factors up to the window size survive.

        Keeping ceil(window/length) + 1 copies preserves every factor of
        at most window letters, along with the prefix and the suffix of
        window letters, because any such factor sits inside that many
        consecutive copies.
        """
        count = int(count)
        if window < 1:
            raise DomainError("window must be at least 1")
        if count == 0 or not self.runs:
            return RunWord()
        copies = min(count, -(-window // self.length) + 1)
        return self.repeat(copies).clamp(window)

    def clamp(self, window):
        """Cut every run to at most window letters.

        Safe for window-sized analysis: a factor of at most window letters
        cannot span both ends of a run longer than the window, so the
        factor set, prefix and suffix at that size are unchanged.
        """
        if window < 1:
            raise DomainError("window must be at least 1")
        return RunWord((l, min(c, window)) for l, c in self.runs)

    def prefix(self, n):
        if n < 0:
            raise DomainError("negative prefix length")
        out = []
        left = n
        for letter, count in self.runs:
            if left <= 0:
                break
            take = min(count, left)
            out.append((letter, take))
            left -= take
        return RunWord(out)

    def suffix(self, n):
        if n < 0:
            raise DomainError("negative suffix length")
        out = []
        left = n
        for letter, count in reversed(self.runs):
            if left <= 0:
                break
            take = min(count, left)
            out.append((letter, take))
            left -= take
        return RunWord(reversed(out))

    def letter_at(self, index):
        if index < 0 or index >= self.length:
            raise DomainError("letter index out of range")
        seen = 0
        for letter, count in self.runs:
            seen += count
            if index < seen:
                return letter
        raise DomainError("letter index out of range")

    def two_factors(self):
        """Set of adjacent letter pairs occurring in the word."""
        pairs = set()
        for i, (letter, count) in enumerate(self.runs):
            if count >= 2:
                pairs.add((letter, letter))
            if i + 1 < len(self.runs):
                pairs.add((letter, self.runs[i + 1][0]))
        return pairs

    def expand(self):
        """Tuple of letters; guarded so huge words fail loudly."""
        if self.length > EXPAND_CAP:
            raise CapabilityError("word of %d letters is over the expansion "
                                  "budget of %d" % (self.length, EXPAND_CAP))
        out = []
        for letter, count in self.runs:
            out.extend([letter] * count)
        return tuple(out)

    def as_compact(self):
        """Plain string when all letters are single characters, else None."""
        if self.length > EXPAND_CAP:
            return None
        if any(len(l) != 1 for l, _ in self.runs):
            return None
        return "".join(l * c for l, c in self.runs)

    def to_runs_json(self):
        return [[l, c] for l, c in self.runs]

    def __eq__(self, other):
        if not isinstance(other, RunWord):
            return NotImplemented
        return self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __repr__(self):
        compact = self.as_compact()
        if compact is not None and len(compact) <= 40:
            return "RunWord(%r)" % compact
        inner = ", ".join("%s^%d" % (l, c) for l, c in self.runs[:6])
        if len(self.runs) > 6:
            inner += ", ..."
        return "RunWord<%s | length %d>" % (inner, self.length)


def word_of(value):
    """Coerce a word description into a RunWord.

    Accepts a RunWord, a plain string (one letter per character), an
    iterable of letters, or a {"runs": [[letter, count], ...]} mapping.
    """
    if isinstance(value, RunWord):
        return value
    if isinstance(value, str):
        return RunWord.from_string(value)
    if isinstance(value, dict):
        runs = value.get("runs")
        if not isinstance(runs, list) or set(value) != {"runs"}:
            raise DomainError("run mapping must have exactly the key 'runs'")
        pairs = []
        for item in runs:
            if (not isinstance(item, (list, tuple)) or len(item) != 2
                    or not isinstance(item[0], str)
                    or isinstance(item[1], bool)
                    or not isinstance(item[1], int)):
                raise DomainError("each run must be [letter, count]")
            pairs.append((item[0], item[1]))
        return RunWord(pairs)
    try:
        letters = list(value)
    except TypeError:
        raise DomainError("cannot interpret %r as a word" % (value,))
    if not all(isinstance(l, str) for l in letters):
        raise DomainError("letters must be strings")
    return RunWord.from_letters(letters)
