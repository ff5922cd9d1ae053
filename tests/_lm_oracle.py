"""The dict-of-tuples backoff lookup that the sorted-array store replaced.

``DictLM(model)`` copies a model's tables into dicts keyed by word
tuples and answers one query at a time with the scalar backoff
recursion, verbatim.  It shares no lookup code with
``NGramModel.logprob_ids``, so tests check the array store against it
bit for bit, and the ordering oracles read it.
"""

from udrealize.lm import UNK_WORD


class DictLM:
    def __init__(self, model):
        self.order = model.order
        self.vocab = model.vocab
        self.tables = []
        for table, grams in zip(model.tables, model.ngrams()):
            bows = [None] * len(grams) if table.bow is None else table.bow.tolist()
            self.tables.append(dict(zip(grams, zip(table.logp.tolist(), bows))))

    def map_word(self, word: str) -> str:
        return word if word in self.vocab else UNK_WORD

    def logprob(self, word: str, history=()) -> float:
        return self._logprob(self.map_word(word), tuple(history))[0]

    def _logprob(self, word: str, history: tuple[str, ...]) -> tuple[float, int]:
        h = history[-(self.order - 1) :] if self.order > 1 else ()
        h = tuple(self.map_word(w) for w in h)
        penalty = 0.0
        while True:
            entry = self.tables[len(h)].get(h + (word,))
            if entry is not None:
                return penalty + entry[0], len(h) + 1
            if not h:
                # Unigram missing: only possible for hand-written ARPA files
                # that omit a reserved word. Use the -99 placeholder value.
                return penalty - 99.0, 1
            bow_entry = self.tables[len(h) - 1].get(h)
            if bow_entry is not None and bow_entry[1] is not None:
                penalty += bow_entry[1]
            h = h[1:]
