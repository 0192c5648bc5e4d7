from lucene_ray.analysis.analyzer import (  # noqa: F401
    CodeAnalyzer,
    StandardLiteAnalyzer,
    get_analyzer,
    tok_cte,
    tokenize_sql_expr,
)
