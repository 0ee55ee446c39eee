//! Recursive-descent parser for the GPSJ SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement := [CREATE VIEW ident AS] query [;]
//! query     := SELECT item (, item)*
//!              FROM ident (, ident)*
//!              [WHERE cond (AND cond)*]
//!              [GROUP BY qualname (, qualname)*]
//! item      := expr [AS ident]
//! expr      := aggfn '(' ('*' | [DISTINCT] qualname) ')' | qualname
//! cond      := operand cmp operand
//! operand   := qualname | literal
//! qualname  := ident [. ident]
//! ```

use md_algebra::{AggFunc, CmpOp};

use crate::error::{SqlError, SqlResult};
use crate::token::{tokenize, Keyword, Token, TokenKind};

/// A half-open byte range `[start, end)` into the statement source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset just past the last character.
    pub end: usize,
}

impl Span {
    /// Builds a span.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }
}

/// Source spans for every clause element of a [`ParsedView`], parallel to
/// the corresponding vectors. Diagnostics (the `md-check` crate) use these
/// to point at the offending SQL.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedSpans {
    /// The whole statement.
    pub statement: Span,
    /// One span per select item.
    pub select: Vec<Span>,
    /// One span per `FROM` table name.
    pub from: Vec<Span>,
    /// One span per `WHERE` conjunct.
    pub conditions: Vec<Span>,
    /// One span per `GROUP BY` column.
    pub group_by: Vec<Span>,
    /// One span per `HAVING` conjunct.
    pub having: Vec<Span>,
}

/// A possibly-qualified column name, unresolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QualName {
    /// Table qualifier, if written.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl QualName {
    /// Renders as written.
    pub(crate) fn to_sql(&self) -> String {
        match &self.table {
            Some(t) => format!("{t}.{}", self.column),
            None => self.column.clone(),
        }
    }
}

/// An unresolved select expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ParsedExpr {
    /// A plain column.
    Col(QualName),
    /// An aggregate call.
    Agg {
        /// The function.
        func: AggFunc,
        /// `DISTINCT` flag.
        distinct: bool,
        /// Argument; `None` for `COUNT(*)`.
        arg: Option<QualName>,
    },
}

/// One select item with its optional alias.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParsedItem {
    /// The expression.
    pub expr: ParsedExpr,
    /// The alias after `AS`, if any.
    pub alias: Option<String>,
}

/// An unresolved literal.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ParsedLiteral {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Double(f64),
    /// String literal.
    Str(String),
}

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ParsedOperand {
    /// A column.
    Col(QualName),
    /// A literal.
    Lit(ParsedLiteral),
}

/// One `WHERE` conjunct.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCond {
    /// Left-hand side.
    pub(crate) left: ParsedOperand,
    /// Operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub(crate) right: ParsedOperand,
}

/// One `HAVING` conjunct: an output expression compared with a literal.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParsedHavingCond {
    /// The output expression (an aggregate call, an alias, or a group-by
    /// column).
    pub expr: ParsedExpr,
    /// Comparison operator (normalized so the expression is on the left).
    pub op: CmpOp,
    /// Literal right-hand side.
    pub value: ParsedLiteral,
}

/// A parsed (unresolved) view definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedView {
    /// The view name (`CREATE VIEW name`), or `None` for a bare query.
    pub name: Option<String>,
    /// Select items, in order.
    pub(crate) select: Vec<ParsedItem>,
    /// `FROM` table names, in order.
    pub(crate) from: Vec<String>,
    /// `WHERE` conjuncts.
    pub conditions: Vec<ParsedCond>,
    /// `GROUP BY` columns.
    pub(crate) group_by: Vec<QualName>,
    /// `HAVING` conjuncts.
    pub(crate) having: Vec<ParsedHavingCond>,
    /// Source spans for every clause element, parallel to the vectors above.
    pub spans: ParsedSpans,
}

/// Parses a statement.
pub fn parse(input: &str) -> SqlResult<ParsedView> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
    };
    let stmt_start = p.tokens.first().map(|t| t.offset).unwrap_or(0);
    let mut view = p.statement()?;
    view.spans.statement = p.closed_span(stmt_start);
    p.eat_optional(&TokenKind::Semicolon);
    if let Some(tok) = p.peek() {
        return Err(SqlError::parse(
            tok.offset,
            format!("unexpected trailing {}", tok.kind),
        ));
    }
    Ok(view)
}

/// Mirror of a comparison under operand swapping.
pub(crate) fn flip_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_kind(&self) -> Option<&TokenKind> {
        self.peek().map(|t| &t.kind)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.peek().map(|t| t.offset).unwrap_or(self.input_len)
    }

    /// The span from `start` to the end of the last consumed token.
    fn closed_span(&self, start: usize) -> Span {
        let end = self.tokens[..self.pos]
            .last()
            .map(|t| t.end)
            .unwrap_or(start);
        Span::new(start, end)
    }

    fn expect(&mut self, kind: &TokenKind) -> SqlResult<()> {
        match self.peek_kind() {
            Some(k) if k == kind => {
                self.pos += 1;
                Ok(())
            }
            Some(k) => Err(SqlError::parse(
                self.offset(),
                format!("expected {kind}, found {k}"),
            )),
            None => Err(SqlError::parse(
                self.offset(),
                format!("expected {kind}, found end of input"),
            )),
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> SqlResult<()> {
        self.expect(&TokenKind::Keyword(kw))
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek_kind() == Some(&TokenKind::Keyword(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_optional(&mut self, kind: &TokenKind) {
        if self.peek_kind() == Some(kind) {
            self.pos += 1;
        }
    }

    fn ident(&mut self) -> SqlResult<String> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) => Ok(s),
            Some(t) => Err(SqlError::parse(
                t.offset,
                format!("expected identifier, found {}", t.kind),
            )),
            None => Err(SqlError::parse(
                self.input_len,
                "expected identifier, found end of input",
            )),
        }
    }

    fn statement(&mut self) -> SqlResult<ParsedView> {
        let name = if self.eat_keyword(Keyword::Create) {
            self.expect_keyword(Keyword::View)?;
            let name = self.ident()?;
            self.expect_keyword(Keyword::As)?;
            Some(name)
        } else {
            None
        };
        let mut view = self.query()?;
        view.name = name;
        Ok(view)
    }

    fn query(&mut self) -> SqlResult<ParsedView> {
        let mut spans = ParsedSpans::default();
        self.expect_keyword(Keyword::Select)?;
        let mut select = Vec::new();
        loop {
            let start = self.offset();
            select.push(self.item()?);
            spans.select.push(self.closed_span(start));
            if self.peek_kind() == Some(&TokenKind::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_keyword(Keyword::From)?;
        let mut from = Vec::new();
        loop {
            let start = self.offset();
            from.push(self.ident()?);
            spans.from.push(self.closed_span(start));
            if self.peek_kind() == Some(&TokenKind::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let mut conditions = Vec::new();
        if self.eat_keyword(Keyword::Where) {
            loop {
                let start = self.offset();
                conditions.push(self.condition()?);
                spans.conditions.push(self.closed_span(start));
                if !self.eat_keyword(Keyword::And) {
                    break;
                }
            }
        }
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let start = self.offset();
                group_by.push(self.qualname()?);
                spans.group_by.push(self.closed_span(start));
                if self.peek_kind() == Some(&TokenKind::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let mut having = Vec::new();
        if self.eat_keyword(Keyword::Having) {
            loop {
                let start = self.offset();
                having.push(self.having_cond()?);
                spans.having.push(self.closed_span(start));
                if !self.eat_keyword(Keyword::And) {
                    break;
                }
            }
        }
        Ok(ParsedView {
            name: None,
            select,
            from,
            conditions,
            group_by,
            having,
            spans,
        })
    }

    fn cmp_op(&mut self) -> SqlResult<CmpOp> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Eq,
                ..
            }) => Ok(CmpOp::Eq),
            Some(Token {
                kind: TokenKind::Ne,
                ..
            }) => Ok(CmpOp::Ne),
            Some(Token {
                kind: TokenKind::Lt,
                ..
            }) => Ok(CmpOp::Lt),
            Some(Token {
                kind: TokenKind::Le,
                ..
            }) => Ok(CmpOp::Le),
            Some(Token {
                kind: TokenKind::Gt,
                ..
            }) => Ok(CmpOp::Gt),
            Some(Token {
                kind: TokenKind::Ge,
                ..
            }) => Ok(CmpOp::Ge),
            Some(t) => Err(SqlError::parse(
                t.offset,
                format!("expected comparison operator, found {}", t.kind),
            )),
            None => Err(SqlError::parse(
                self.input_len,
                "expected comparison operator, found end of input",
            )),
        }
    }

    fn literal(&mut self) -> SqlResult<ParsedLiteral> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Int(v),
                ..
            }) => Ok(ParsedLiteral::Int(v)),
            Some(Token {
                kind: TokenKind::Double(v),
                ..
            }) => Ok(ParsedLiteral::Double(v)),
            Some(Token {
                kind: TokenKind::Str(v),
                ..
            }) => Ok(ParsedLiteral::Str(v)),
            Some(t) => Err(SqlError::parse(
                t.offset,
                format!("expected a literal, found {}", t.kind),
            )),
            None => Err(SqlError::parse(
                self.input_len,
                "expected a literal, found end of input",
            )),
        }
    }

    /// `HAVING` conjunct: `expr op literal` or `literal op expr` (flipped).
    fn having_cond(&mut self) -> SqlResult<ParsedHavingCond> {
        let literal_first = matches!(
            self.peek_kind(),
            Some(TokenKind::Int(_) | TokenKind::Double(_) | TokenKind::Str(_))
        );
        if literal_first {
            let value = self.literal()?;
            let op = flip_op(self.cmp_op()?);
            let expr = self.expr()?;
            Ok(ParsedHavingCond { expr, op, value })
        } else {
            let expr = self.expr()?;
            let op = self.cmp_op()?;
            let value = self.literal()?;
            Ok(ParsedHavingCond { expr, op, value })
        }
    }

    fn item(&mut self) -> SqlResult<ParsedItem> {
        let expr = self.expr()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(ParsedItem { expr, alias })
    }

    fn agg_func(&mut self) -> Option<AggFunc> {
        let func = match self.peek_kind()? {
            TokenKind::Keyword(Keyword::Count) => AggFunc::Count,
            TokenKind::Keyword(Keyword::Sum) => AggFunc::Sum,
            TokenKind::Keyword(Keyword::Avg) => AggFunc::Avg,
            TokenKind::Keyword(Keyword::Min) => AggFunc::Min,
            TokenKind::Keyword(Keyword::Max) => AggFunc::Max,
            _ => return None,
        };
        self.pos += 1;
        Some(func)
    }

    fn expr(&mut self) -> SqlResult<ParsedExpr> {
        if let Some(func) = self.agg_func() {
            self.expect(&TokenKind::LParen)?;
            if self.peek_kind() == Some(&TokenKind::Star) {
                self.pos += 1;
                self.expect(&TokenKind::RParen)?;
                if func != AggFunc::Count {
                    return Err(SqlError::parse(
                        self.offset(),
                        format!("{func}(*) is not valid; only COUNT(*) is"),
                    ));
                }
                return Ok(ParsedExpr::Agg {
                    func,
                    distinct: false,
                    arg: None,
                });
            }
            let distinct = self.eat_keyword(Keyword::Distinct);
            let arg = self.qualname()?;
            self.expect(&TokenKind::RParen)?;
            Ok(ParsedExpr::Agg {
                func,
                distinct,
                arg: Some(arg),
            })
        } else {
            Ok(ParsedExpr::Col(self.qualname()?))
        }
    }

    fn qualname(&mut self) -> SqlResult<QualName> {
        let first = self.ident()?;
        if self.peek_kind() == Some(&TokenKind::Dot) {
            self.pos += 1;
            let column = self.ident()?;
            Ok(QualName {
                table: Some(first),
                column,
            })
        } else {
            Ok(QualName {
                table: None,
                column: first,
            })
        }
    }

    fn operand(&mut self) -> SqlResult<ParsedOperand> {
        match self.peek_kind() {
            Some(TokenKind::Int(v)) => {
                let v = *v;
                self.pos += 1;
                Ok(ParsedOperand::Lit(ParsedLiteral::Int(v)))
            }
            Some(TokenKind::Double(v)) => {
                let v = *v;
                self.pos += 1;
                Ok(ParsedOperand::Lit(ParsedLiteral::Double(v)))
            }
            Some(TokenKind::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(ParsedOperand::Lit(ParsedLiteral::Str(s)))
            }
            _ => Ok(ParsedOperand::Col(self.qualname()?)),
        }
    }

    fn condition(&mut self) -> SqlResult<ParsedCond> {
        let left = self.operand()?;
        let op = self.cmp_op()?;
        let right = self.operand()?;
        Ok(ParsedCond { left, op, right })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_product_sales_view() {
        let sql = "CREATE VIEW product_sales AS \
                   SELECT time.month, SUM(price) AS TotalPrice, \
                          COUNT(*) AS TotalCount, \
                          COUNT(DISTINCT brand) AS DifferentBrands \
                   FROM sale, time, product \
                   WHERE time.year = 1997 AND sale.timeid = time.id \
                     AND sale.productid = product.id \
                   GROUP BY time.month";
        let v = parse(sql).unwrap();
        assert_eq!(v.name.as_deref(), Some("product_sales"));
        assert_eq!(v.from, vec!["sale", "time", "product"]);
        assert_eq!(v.select.len(), 4);
        assert_eq!(v.conditions.len(), 3);
        assert_eq!(v.group_by.len(), 1);
        assert_eq!(
            v.select[1],
            ParsedItem {
                expr: ParsedExpr::Agg {
                    func: AggFunc::Sum,
                    distinct: false,
                    arg: Some(QualName {
                        table: None,
                        column: "price".into()
                    }),
                },
                alias: Some("TotalPrice".into()),
            }
        );
        assert_eq!(
            v.select[3],
            ParsedItem {
                expr: ParsedExpr::Agg {
                    func: AggFunc::Count,
                    distinct: true,
                    arg: Some(QualName {
                        table: None,
                        column: "brand".into()
                    }),
                },
                alias: Some("DifferentBrands".into()),
            }
        );
    }

    #[test]
    fn bare_query_without_create_view() {
        let v = parse("SELECT a FROM t").unwrap();
        assert_eq!(v.name, None);
        assert_eq!(v.from, vec!["t"]);
    }

    #[test]
    fn literal_on_the_left() {
        let v = parse("SELECT a FROM t WHERE 5 < t.a").unwrap();
        assert_eq!(
            v.conditions[0].left,
            ParsedOperand::Lit(ParsedLiteral::Int(5))
        );
        assert_eq!(v.conditions[0].op, CmpOp::Lt);
    }

    #[test]
    fn string_and_double_literals() {
        let v = parse("SELECT a FROM t WHERE t.b = 'x' AND t.c >= 1.5").unwrap();
        assert_eq!(
            v.conditions[0].right,
            ParsedOperand::Lit(ParsedLiteral::Str("x".into()))
        );
        assert_eq!(
            v.conditions[1].right,
            ParsedOperand::Lit(ParsedLiteral::Double(1.5))
        );
    }

    #[test]
    fn sum_star_is_rejected() {
        assert!(parse("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT a FROM t GROUP BY a extra").is_err());
    }

    #[test]
    fn missing_from_rejected() {
        let e = parse("SELECT a").unwrap_err();
        assert!(e.to_string().contains("expected"));
    }

    #[test]
    fn trailing_semicolon_accepted() {
        assert!(parse("SELECT a FROM t;").is_ok());
    }

    #[test]
    fn group_by_multiple_columns() {
        let v = parse("SELECT a, b, COUNT(*) FROM t GROUP BY a, b").unwrap();
        assert_eq!(v.group_by.len(), 2);
    }

    #[test]
    fn clause_spans_cover_their_source_text() {
        let sql = "SELECT a, SUM(b) AS s FROM t, u WHERE t.x = u.id AND t.y > 3 GROUP BY a";
        let v = parse(sql).unwrap();
        let text = |s: Span| &sql[s.start..s.end];
        assert_eq!(v.spans.select.len(), 2);
        assert_eq!(text(v.spans.select[0]), "a");
        assert_eq!(text(v.spans.select[1]), "SUM(b) AS s");
        assert_eq!(v.spans.from.len(), 2);
        assert_eq!(text(v.spans.from[0]), "t");
        assert_eq!(text(v.spans.from[1]), "u");
        assert_eq!(v.spans.conditions.len(), 2);
        assert_eq!(text(v.spans.conditions[0]), "t.x = u.id");
        assert_eq!(text(v.spans.conditions[1]), "t.y > 3");
        assert_eq!(v.spans.group_by.len(), 1);
        assert_eq!(text(v.spans.group_by[0]), "a");
        assert_eq!(text(v.spans.statement), sql);
    }

    #[test]
    fn statement_span_excludes_trailing_semicolon() {
        let sql = "SELECT a FROM t;";
        let v = parse(sql).unwrap();
        assert_eq!(
            &sql[v.spans.statement.start..v.spans.statement.end],
            "SELECT a FROM t"
        );
    }

    #[test]
    fn min_max_parse() {
        let v = parse("SELECT MIN(t.a) AS lo, MAX(t.a) AS hi FROM t").unwrap();
        assert!(matches!(
            v.select[0].expr,
            ParsedExpr::Agg {
                func: AggFunc::Min,
                ..
            }
        ));
        assert!(matches!(
            v.select[1].expr,
            ParsedExpr::Agg {
                func: AggFunc::Max,
                ..
            }
        ));
    }
}
