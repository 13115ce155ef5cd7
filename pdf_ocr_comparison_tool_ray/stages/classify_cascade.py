"""Rule -> LLM classification cascade as one task map.

Reference M11–M13: ``document_classifier.py:284-319`` — rule classifier
first; if its confidence < 0.7 AND the LLM is enabled, ask the LLM
(prompt over the first 2000 chars, ``:163-179``; response parsed with
regexes for 类型/置信度, ``:223-253``) and keep whichever answer has the
higher confidence.

Ray-native topology: one plain task map per batch runs the stateless
rule pass (doc_type, type_confidence), hands only the doubtful rows
(confidence below the threshold) to the model, and emits both slices
in one output block.  The classifier is built once per worker process
by an ``lru_cache`` factory (the ``extract_batch`` idiom).  The input is
read and rule-classified once; a filter-split into two branches joined
by ``union`` would run both twice.  The "LLM" here is a deterministic
mock with the real engine's full shape — prompt template, generate call
slot in ``__init__``, regex response parse — so a HF model drops into
``_generate`` unchanged.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import DOCUMENT_TYPES_ZH
from ..functions.classify import RuleClassifier

_PROMPT = "请判断以下文档的类型。\n候选类型: {types}\n文档内容:\n{text}\n"
_TYPE_RE = re.compile(r"类型[:：]\s*(\S+)")
_CONF_RE = re.compile(r"置信度[:：]\s*([0-9.]+)")

# explicit output schema: the two slices of a batch concatenate only
# with equal schemas, and an empty slice would otherwise infer null for
# its string columns (the match_shuffle._KEYED_SCHEMA hazard)
def _out_schema(doc_id_type: pa.DataType) -> pa.Schema:
    return pa.schema(
        [
            ("doc_id", doc_id_type),
            ("doc_type", pa.string()),
            ("type_confidence", pa.float64()),
            ("classifier", pa.string()),
        ]
    )


class MockLLMClassifier:
    """The model slot: a real HF pipeline loads in ``__init__`` and
    replaces ``_generate`` (document_classifier.py:129-161).
    ``doc_types``: the candidate type names (a dict's keys or a
    sequence)."""

    def __init__(self, doc_types=None, prompt_chars: int = 2000):
        self.doc_types = list(doc_types or DOCUMENT_TYPES_ZH)
        self.prompt_chars = prompt_chars
        # model/tokenizer load slot (deterministic mock here)
        self._generate = self._mock_generate

    def _mock_generate(self, prompt: str) -> str:
        """Deterministic stand-in: keyword-free hash vote over the prompt,
        emitting the reference's expected response format."""
        digest = hashlib.md5(prompt.encode()).digest()
        choice = self.doc_types[digest[0] % len(self.doc_types)]
        conf = 0.80 + (digest[1] % 20) / 100.0  # 0.80–0.99
        return f"类型：{choice}\n置信度：{conf:.2f}\n理由：mock"

    def classify_one(self, text: str) -> tuple[str, float]:
        prompt = _PROMPT.format(
            types="/".join(self.doc_types), text=text[: self.prompt_chars]
        )
        resp = self._generate(prompt)
        m_t, m_c = _TYPE_RE.search(resp), _CONF_RE.search(resp)
        if not m_t:  # reference falls back to 其他/other on parse failure
            return "other", 0.5
        conf = float(m_c.group(1)) if m_c else 0.5
        return m_t.group(1), min(conf, 1.0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rule_types = batch["doc_type"].to_pylist()
        rule_confs = batch["type_confidence"].to_pylist()
        out_t, out_c, out_src = [], [], []
        for text, rt, rc in zip(batch["text"].to_pylist(), rule_types, rule_confs):
            lt, lc = self.classify_one(text)
            # M12: keep the higher-confidence answer
            if lc > rc:
                out_t.append(lt)
                out_c.append(lc)
                out_src.append("llm")
            else:
                out_t.append(rt)
                out_c.append(rc)
                out_src.append("rule")
        return pa.Table.from_arrays(
            [
                batch["doc_id"],
                pa.array(out_t, type=pa.string()),
                pa.array(out_c, type=pa.float64()),
                pa.array(out_src, type=pa.string()),
            ],
            schema=_out_schema(batch.schema.field("doc_id").type),
        )


@lru_cache(maxsize=None)
def _llm(doc_types: tuple) -> MockLLMClassifier:
    return MockLLMClassifier(doc_types)


def classify_cascade(
    ds: ray.data.Dataset,
    doc_types: dict | None = None,
    llm_threshold: float = 0.7,
) -> ray.data.Dataset:
    """(doc_id, text) rows -> (doc_id, doc_type, type_confidence, classifier).

    Confident rule rows never touch the LLM: each batch is split after
    its rule pass and only the doubtful slice is classified again.
    """
    types = doc_types or DOCUMENT_TYPES_ZH

    def cascade(batch: pa.Table) -> pa.Table:
        t, c = RuleClassifier(types).classify_many(batch["text"].to_pylist())
        ruled = pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": batch["text"],
                "doc_type": pa.array(t, type=pa.string()),
                "type_confidence": pa.array(c, type=pa.float64()),
            }
        )
        conf = ruled["type_confidence"]
        kept = ruled.filter(pc.greater_equal(conf, llm_threshold))
        confident = pa.Table.from_arrays(
            [
                kept["doc_id"],
                kept["doc_type"],
                kept["type_confidence"],
                pa.array(["rule"] * len(kept), type=pa.string()),
            ],
            schema=_out_schema(batch.schema.field("doc_id").type),
        )
        refined = _llm(tuple(types))(ruled.filter(pc.less(conf, llm_threshold)))
        return pa.concat_tables([confident, refined])

    return ds.map_batches(cascade, batch_format="pyarrow")
