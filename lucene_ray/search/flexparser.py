"""Flexible query parser front-ends — StandardQueryParser and
PrecedenceQueryParser over the classic lexer + query dataclasses.

Reference: queryparser/src/java/org/apache/lucene/queryparser/flexible/
  - standard/StandardQueryParser.java — the config-driven parser facade
  - standard/parser/StandardSyntaxParser.jj:228-230 — the REAL precedence
    grammar: Query ::= DisjQuery+ ; DisjQuery ::= ConjQuery (OR ConjQuery)* ;
    ConjQuery ::= ModClause (AND ModClause)*
  - standard/processors/BooleanQuery2ModifierNodeProcessor.java:124-137 —
    the STANDARD pipeline FLATTENS nested boolean nodes ("no precedence"
    TAG_REMOVE) after tagging children of AndQueryNode (and of a
    default-operator-AND implicit sequence) MOD_REQ: `a AND b OR c`
    comes out flat `+a +b c`, classic-compatible.
  - precedence/processors/BooleanModifiersQueryNodeProcessor.java — the
    PRECEDENCE pipeline keeps the grammar's nesting: `a AND b OR c` stays
    `(+a +b) OR c`, so a doc matching only `c` matches (it does NOT under
    the standard/classic flattening). That nesting-vs-flat split is the
    entire difference between the two parsers and is covered by the
    flexparser gate.
  - standard/processors/StandardQueryNodeProcessorPipeline.java:48-69 —
    the processor set mirrored here as config: MultiFieldQueryNodeProcessor
    (field-less leaves expand OR-wise over ``fields``), PointRangeQuery /
    PointQueryNodeProcessor (``points_config`` routes bare terms and ranges
    on configured fields to PointRangeQuery), AllowLeadingWildcardProcessor
    (leading ``*``/``?`` rejected unless enabled — the reference default),
    DefaultPhraseSlopQueryNodeProcessor (``phrase_slop`` applied to phrases
    without an explicit ``~n``), IntervalQueryNodeProcessor (``fn:`` syntax
    below).
  - standard/parser/StandardSyntaxParser.jj:418-680 + nodes/intervalfn/ —
    ``fn:NAME(args)`` interval functions; names are case-insensitive,
    arguments are space-separated, bare words are analyzed (AnalyzedText:
    one token -> term, several -> phrase), quoted strings are phrases,
    numbers fill the numeric slots in the .jj argument order
    (atLeast/maxgaps/maxwidth take the number FIRST; within(src n ref);
    extend(src before after)). fn:wildcard / fn:fuzzyTerm are not mapped
    (documented: multi-term interval expansion is out of scope).

The default field is ``content`` (None); both parsers accept any query the
classic parser accepts plus the fn: family, and share its escape grammar.
"""

from __future__ import annotations

import re

from lucene_ray.search import intervals as iv
from lucene_ray.search.query import (
    _BOOST_RE,
    _FIELD_RE,
    _LEX_RE,
    BooleanQuery,
    DisjunctionSumQuery,
    IntervalQuery,
    PointRangeQuery,
    WildcardQuery,
    _ends_escaped,
    _group_clause,
    _range_query,
    _token_queries,
    discard_escapes,
)

_NUM_RE = re.compile(r"^\d+$")

# fn name (lowercased) -> (signature, constructor). Signature tokens:
#   "S" one source, "S+" 1..n sources, "N" a number; order is the .jj order.
_FN_TABLE = {
    "ordered": ("S+", lambda a: iv.ordered(*a)),
    "unordered": ("S+", lambda a: iv.unordered(*a)),
    "phrase": ("S+", lambda a: iv.phrase(*a)),
    "or": ("S+", lambda a: iv.or_(*a)),
    "unorderednooverlaps": ("SS", lambda a: iv.unordered_no_overlaps(*a)),
    "atleast": ("NS+", lambda a: iv.at_least(*a)),
    "maxgaps": ("NS", lambda a: iv.maxgaps(*a)),
    "maxwidth": ("NS", lambda a: iv.maxwidth(*a)),
    "before": ("SS", lambda a: iv.before(*a)),
    "after": ("SS", lambda a: iv.after(*a)),
    "containing": ("SS", lambda a: iv.containing(*a)),
    "notcontaining": ("SS", lambda a: iv.not_containing(*a)),
    "containedby": ("SS", lambda a: iv.contained_by(*a)),
    "notcontainedby": ("SS", lambda a: iv.not_contained_by(*a)),
    "within": ("SNS", lambda a: iv.within(*a)),
    "notwithin": ("SNS", lambda a: iv.not_within(*a)),
    "overlapping": ("SS", lambda a: iv.overlapping(*a)),
    "nonoverlapping": ("SS", lambda a: iv.non_overlapping(*a)),
    "extend": ("SNN", lambda a: iv.extend(*a)),
}


class StandardQueryParser:
    """The flexible standard parser: classic-compatible FLAT boolean
    semantics (BooleanQuery2ModifierNodeProcessor) + the config surface +
    fn: interval functions. ``parse(text, default_field)`` ->
    BooleanQuery."""

    _nested = False  # standard pipeline flattens (TAG_REMOVE)

    def __init__(
        self,
        analyzer,
        *,
        default_operator: str = "or",
        fields: tuple = (),
        points_config: dict | None = None,
        phrase_slop: int = 0,
        allow_leading_wildcard: bool = False,
    ):
        if default_operator not in ("or", "and"):
            raise ValueError("default_operator must be 'or' or 'and'")
        self.analyzer = analyzer
        self.default_operator = default_operator
        self.fields = tuple(fields)
        self.points_config = dict(points_config or {})
        self.phrase_slop = int(phrase_slop)
        self.allow_leading_wildcard = bool(allow_leading_wildcard)

    # -- public ------------------------------------------------------------

    def parse(self, text: str, default_field: str | None = None) -> BooleanQuery:
        toks = [m for m in _LEX_RE.finditer(text) if not m.group("space")]
        node, i = self._seq(toks, 0, default_field, 0)
        if i != len(toks):
            raise ValueError("unbalanced ')' in query")
        return self._assemble(node)

    # -- grammar (StandardSyntaxParser.jj:228-230) ---------------------------

    def _seq(self, toks, i, field, depth):
        children = []
        while i < len(toks):
            m = toks[i]
            if m.group("rparen"):
                if depth == 0:
                    raise ValueError("unbalanced ')' in query")
                break
            if m.group("badesc"):
                raise ValueError("term can not end with escape character")
            node, i = self._disj(toks, i, field, depth)
            if node is not None:
                children.append(node)
        return ("seq", children), i

    def _disj(self, toks, i, field, depth):
        children = []
        node, i = self._conj(toks, i, field, depth)
        if node is not None:
            children.append(node)
        while i < len(toks) and toks[i].group("word") in ("OR", "||"):
            node, i = self._conj(toks, i + 1, field, depth)
            if node is not None:
                children.append(node)
        if not children:
            return None, i
        if len(children) == 1:
            return children[0], i
        return ("or", children), i

    def _conj(self, toks, i, field, depth):
        children = []
        node, i = self._mod_clause(toks, i, field, depth)
        if node is not None:
            children.append(node)
        while i < len(toks) and toks[i].group("word") in ("AND", "&&"):
            node, i = self._mod_clause(toks, i + 1, field, depth)
            if node is not None:
                children.append(node)
        if not children:
            return None, i
        if len(children) == 1:
            return children[0], i
        return ("and", children), i

    def _mod_clause(self, toks, i, field, depth):
        mod = None
        while i < len(toks) and toks[i].group("word") in ("NOT", "!"):
            mod = "-"  # NOT NOT a == NOT a (ModifierQueryNode is single)
            i += 1
        if i >= len(toks):
            return None, i
        node, i = self._clause(toks, i, field, depth)
        if node is not None and mod is not None and node[1] is None:
            node = ("leaf", mod, node[2])
        return node, i

    # -- clauses -------------------------------------------------------------

    def _clause(self, toks, i, field, depth):
        m = toks[i]
        if m.group("rparen"):
            raise ValueError("unexpected ')' in query")
        if m.group("badesc"):
            raise ValueError("term can not end with escape character")

        if m.group("lparen"):
            fld = (m.group("lfield") or "").rstrip(":") or field
            sub, j = self._seq(toks, i + 1, fld, depth + 1)
            if j >= len(toks) or not toks[j].group("rparen"):
                raise ValueError("missing ')' in query")
            boost = float(toks[j].group("gboost") or 1.0)
            qs = _group_clause(self._assemble(sub), boost)
            return ("leaf", m.group("lmod") or None, qs), j + 1

        if m.group("phrase"):
            fld = (m.group("pfield") or "").rstrip(":") or field
            slop = (
                int(m.group("pslop"))
                if m.group("pslop") is not None
                else self.phrase_slop  # DefaultPhraseSlopQueryNodeProcessor
            )
            qs = self._leaf(
                m.group("pbody"), True, float(m.group("pboost") or 1.0),
                slop, fld,
            )
            return ("leaf", m.group("pmod") or None, qs), i + 1

        if m.group("range"):
            fld = (m.group("rfield") or "").rstrip(":") or field
            qs = [
                self._range(
                    fld, m.group("rlo"), m.group("rhi"),
                    m.group("ropen") == "[", m.group("rclose") == "]",
                    float(m.group("rboost") or 1.0),
                )
            ]
            return ("leaf", m.group("rmod") or None, qs), i + 1

        if m.group("rgx"):
            from lucene_ray.search.query import RegexpQuery

            fld = (m.group("xfield") or "").rstrip(":") or field
            body = m.group("xbody").replace("\\/", "/")
            if fld is not None and fld != "content":
                body = f"{fld}:{body}"
            qs = [RegexpQuery(body, boost=float(m.group("xboost") or 1.0))]
            return ("leaf", m.group("xmod") or None, qs), i + 1

        w = m.group("word")
        mod = None
        if w.startswith("+") and len(w) > 1:
            mod, w = "+", w[1:]
        elif w.startswith("-") and len(w) > 1:
            mod, w = "-", w[1:]

        # fn: interval functions (field-scoped form `field:fn:...` allowed
        # for the default field only — intervals run over content positions)
        fn_field, fn_word = field, w
        fm = _FIELD_RE.match(w)
        if fm and fm.group(2).lower().startswith("fn:"):
            fn_field, fn_word = fm.group(1), fm.group(2)
        if fn_word.lower().startswith("fn:") and i + 1 < len(toks) and toks[
            i + 1
        ].group("lparen"):
            if fn_field not in (None, "content"):
                raise ValueError(
                    "interval functions are supported on the default "
                    "content field only"
                )
            src, j, boost = self._fn(toks, i)
            return ("leaf", mod, [IntervalQuery(src, boost=boost)]), j

        boost = 1.0
        bm = _BOOST_RE.match(w)
        if bm and bm.group(1) and not _ends_escaped(bm.group(1)):
            w, boost = bm.group(1), float(bm.group(2))

        # PointQueryNodeProcessor: bare term on a points-config field
        fm = _FIELD_RE.match(w)
        if fm and fm.group(1) in self.points_config:
            conv = self.points_config[fm.group(1)]
            v = conv(discard_escapes(fm.group(2)))
            return (
                ("leaf", mod, [PointRangeQuery(fm.group(1), v, v, boost=boost)]),
                i + 1,
            )

        qs = self._leaf(w, False, boost, 0, field)
        return ("leaf", mod, qs), i + 1

    def _leaf(self, w, is_phrase, boost, slop, field):
        """_token_queries + MultiFieldQueryNodeProcessor expansion +
        AllowLeadingWildcardProcessor check."""
        inline_field = None
        if not is_phrase:
            fm = _FIELD_RE.match(w)
            if fm:
                inline_field = fm.group(1)
        multi = field is None and inline_field is None and self.fields
        texts: list[str] = []
        builds = [
            _token_queries(w, is_phrase, boost, slop, texts, field=f)
            for f in (self.fields if multi else [field])
        ]
        words = self.analyzer.tokenize_texts(texts)
        qs = [q for build in builds for q in build(words)]
        self._check_wildcards(qs)
        if multi and len(qs) > 1:
            # GroupQueryNode(OR) — one SHOULD-sum clause
            return [DisjunctionSumQuery(tuple(qs))]
        return qs

    def _check_wildcards(self, qs):
        if self.allow_leading_wildcard:
            return
        for q in qs:
            if isinstance(q, WildcardQuery):
                pat = q.pattern.split(":", 1)[-1]
                if pat[:1] in ("*", "?") and pat != "*":
                    raise ValueError(
                        "'*' or '?' not allowed as first character in "
                        "WildcardQuery (AllowLeadingWildcardProcessor)"
                    )

    def _range(self, field, lo_raw, hi_raw, incl_lo, incl_hi, boost):
        if field in self.points_config:
            conv = self.points_config[field]

            def bound(x, adj):
                if x == "*":
                    return None
                return conv(discard_escapes(x)) + adj

            return PointRangeQuery(
                field,
                bound(lo_raw, 0 if incl_lo else 1),
                bound(hi_raw, 0 if incl_hi else -1),
                boost=boost,
            )
        texts: list[str] = []
        build = _range_query(field, lo_raw, hi_raw, incl_lo, incl_hi, boost, texts)
        return build(self.analyzer.tokenize_texts(texts))[0]

    # -- fn: interval functions ----------------------------------------------

    def _fn(self, toks, i):
        """toks[i] = the fn:NAME word, toks[i+1] = '('. Returns
        (source, next_index, boost-from-closing-paren)."""
        w = toks[i].group("word")
        fm = _FIELD_RE.match(w)
        if fm and fm.group(2).lower().startswith("fn:"):
            w = fm.group(2)  # strip 'content:' off 'content:fn:NAME'
        name = w[3:].lower()
        entry = _FN_TABLE.get(name)
        if entry is None:
            raise ValueError(f"unknown interval function fn:{name}")
        sig, ctor = entry
        if toks[i + 1].group("lmod") or toks[i + 1].group("lfield"):
            raise ValueError(f"malformed fn:{name} argument list")
        args, j, boost = self._fn_args(toks, i + 2)
        self._fn_check(name, sig, args)
        return ctor([a[1] for a in args]), j, boost

    def _fn_args(self, toks, i):
        args = []
        while i < len(toks):
            m = toks[i]
            if m.group("rparen"):
                return args, i + 1, float(m.group("gboost") or 1.0)
            if m.group("phrase"):
                terms = self.analyzer.tokenize_text(
                    discard_escapes(m.group("pbody"))
                )
                if not terms:
                    raise ValueError("empty phrase in interval function")
                args.append(("S", iv.phrase(*terms) if len(terms) > 1
                             else iv.term(terms[0])))
                i += 1
                continue
            w = m.group("word")
            if w is None:
                raise ValueError("malformed interval function argument")
            if w.lower().startswith("fn:") and i + 1 < len(toks) and toks[
                i + 1
            ].group("lparen"):
                src, i, b = self._fn(toks, i)
                if b != 1.0:
                    raise ValueError("boost inside an interval function")
                args.append(("S", src))
                continue
            if _NUM_RE.match(w):
                args.append(("N", int(w)))
                i += 1
                continue
            # AnalyzedText: one token -> term, several -> phrase
            terms = self.analyzer.tokenize_text(discard_escapes(w))
            if not terms:
                raise ValueError(
                    f"term {w!r} analyzes to nothing in interval function"
                )
            args.append(("S", iv.phrase(*terms) if len(terms) > 1
                         else iv.term(terms[0])))
            i += 1
        raise ValueError("missing ')' in interval function")

    @staticmethod
    def _fn_check(name, sig, args):
        kinds = "".join(k for k, _ in args)
        if sig == "S+":
            ok = len(kinds) >= 1 and set(kinds) == {"S"}
        elif sig == "NS+":
            ok = len(kinds) >= 2 and kinds[0] == "N" and set(kinds[1:]) == {"S"}
        else:
            ok = kinds == sig
        if not ok:
            raise ValueError(
                f"fn:{name} expects argument shape {sig}, got {kinds or '()'}"
            )

    # -- assembly --------------------------------------------------------------

    def _assemble(self, node) -> BooleanQuery:
        bq = BooleanQuery()
        if node is None:
            return bq
        if node[0] == "leaf":
            occur = {"+": "must", "-": "must_not", None: "should"}[node[1]]
            getattr(bq, occur).extend(node[2])
            return bq
        if self._nested:
            return self._assemble_nested(node)
        for qs, occur in self._flat(node):
            getattr(bq, occur).extend(qs)
        return bq

    def _occur(self, mod, parent_kind):
        """BooleanQuery2Modifier / BooleanModifiers shared rule: explicit
        modifiers win; children of AND are required; children of an
        implicit sequence follow the default operator; children of OR stay
        optional."""
        if mod == "+":
            return "must"
        if mod == "-":
            return "must_not"
        if parent_kind == "and":
            return "must"
        if parent_kind == "seq" and self.default_operator == "and":
            return "must"
        return "should"

    def _flat(self, node):
        """Standard pipeline: hoist nested boolean nodes into one flat
        clause list, each leaf's occur computed from its IMMEDIATE parent
        (BooleanQuery2ModifierNodeProcessor TAG_REMOVE + TAG_MODIFIER)."""
        out = []
        kind, children = node
        for c in children:
            if c[0] == "leaf":
                out.append((c[2], self._occur(c[1], kind)))
            else:
                out.extend(self._flat(c))
        return out

    def _assemble_nested(self, node) -> BooleanQuery:
        kind, children = node
        bq = BooleanQuery()
        for c in children:
            if c[0] == "leaf":
                getattr(bq, self._occur(c[1], kind)).extend(c[2])
            else:
                sub = self._assemble_nested(c)
                getattr(bq, self._occur(None, kind)).extend(_group_clause(sub, 1.0))
        return bq


class PrecedenceQueryParser(StandardQueryParser):
    """The flexible precedence parser: SAME grammar and config, but the
    grammar's AND-over-OR nesting is PRESERVED
    (precedence/processors/BooleanModifiersQueryNodeProcessor.java has no
    TAG_REMOVE flattening): ``a AND b OR c`` -> (+a +b) OR c."""

    _nested = True
