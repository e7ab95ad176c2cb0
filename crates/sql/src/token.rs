//! Token definitions and keyword table for the SQL lexer.

use std::fmt;

/// A single lexical token produced by the [`crate::lexer::Lexer`].
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// SQL keyword (normalized to uppercase), e.g. `SELECT`.
    Keyword(Keyword),
    /// Unquoted or double-quoted identifier; the flag records quoting.
    Identifier {
        /// Identifier text without surrounding quotes.
        value: String,
        /// Whether the identifier was double-quoted in the source.
        quoted: bool,
    },
    /// Numeric literal kept as text to preserve formatting.
    Number(String),
    /// Single-quoted string literal with quotes stripped and escapes resolved.
    StringLiteral(String),
    /// `(`
    LeftParen,
    /// `)`
    RightParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `||` string concatenation
    Concat,
}

impl Token {
    /// Returns true when this token is the given keyword.
    pub fn is_keyword(&self, kw: Keyword) -> bool {
        matches!(self, Token::Keyword(k) if *k == kw)
    }

    /// Rough display width used for token-count statistics.
    pub fn text(&self) -> String {
        match self {
            Token::Keyword(k) => k.as_str().to_string(),
            Token::Identifier { value, quoted } => {
                if *quoted {
                    format!("\"{value}\"")
                } else {
                    value.clone()
                }
            }
            Token::Number(n) => n.clone(),
            Token::StringLiteral(s) => format!("'{s}'"),
            Token::LeftParen => "(".into(),
            Token::RightParen => ")".into(),
            Token::Comma => ",".into(),
            Token::Dot => ".".into(),
            Token::Semicolon => ";".into(),
            Token::Star => "*".into(),
            Token::Plus => "+".into(),
            Token::Minus => "-".into(),
            Token::Slash => "/".into(),
            Token::Percent => "%".into(),
            Token::Eq => "=".into(),
            Token::NotEq => "<>".into(),
            Token::Lt => "<".into(),
            Token::LtEq => "<=".into(),
            Token::Gt => ">".into(),
            Token::GtEq => ">=".into(),
            Token::Concat => "||".into(),
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text())
    }
}

macro_rules! define_keywords {
    ($($name:ident => $text:literal),+ $(,)?) => {
        /// All SQL keywords recognized by the lexer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[allow(missing_docs)]
        pub enum Keyword {
            $($name,)+
        }

        impl Keyword {
            /// The canonical uppercase spelling of the keyword.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Keyword::$name => $text,)+
                }
            }

            /// Look up a keyword from an identifier-like word (case-insensitive).
            pub fn from_word(word: &str) -> Option<Keyword> {
                let upper = word.to_ascii_uppercase();
                match upper.as_str() {
                    $($text => Some(Keyword::$name),)+
                    _ => None,
                }
            }

            /// Every keyword, in declaration order.
            pub fn all() -> &'static [Keyword] {
                &[$(Keyword::$name,)+]
            }
        }
    };
}

define_keywords! {
    Select => "SELECT",
    From => "FROM",
    Where => "WHERE",
    Group => "GROUP",
    By => "BY",
    Having => "HAVING",
    Order => "ORDER",
    Limit => "LIMIT",
    Offset => "OFFSET",
    As => "AS",
    On => "ON",
    Join => "JOIN",
    Inner => "INNER",
    Left => "LEFT",
    Right => "RIGHT",
    Full => "FULL",
    Outer => "OUTER",
    Cross => "CROSS",
    Union => "UNION",
    Intersect => "INTERSECT",
    Except => "EXCEPT",
    All => "ALL",
    Distinct => "DISTINCT",
    And => "AND",
    Or => "OR",
    Not => "NOT",
    In => "IN",
    Exists => "EXISTS",
    Between => "BETWEEN",
    Like => "LIKE",
    Is => "IS",
    Null => "NULL",
    True => "TRUE",
    False => "FALSE",
    Case => "CASE",
    When => "WHEN",
    Then => "THEN",
    Else => "ELSE",
    End => "END",
    Cast => "CAST",
    With => "WITH",
    Asc => "ASC",
    Desc => "DESC",
    Create => "CREATE",
    Table => "TABLE",
    Primary => "PRIMARY",
    Key => "KEY",
    Foreign => "FOREIGN",
    References => "REFERENCES",
    Unique => "UNIQUE",
    Integer => "INTEGER",
    Int => "INT",
    Bigint => "BIGINT",
    Smallint => "SMALLINT",
    Number => "NUMBER",
    Decimal => "DECIMAL",
    Numeric => "NUMERIC",
    Float => "FLOAT",
    Real => "REAL",
    Double => "DOUBLE",
    Precision => "PRECISION",
    Varchar => "VARCHAR",
    Varchar2 => "VARCHAR2",
    Char => "CHAR",
    Text => "TEXT",
    Date => "DATE",
    Timestamp => "TIMESTAMP",
    Boolean => "BOOLEAN",
    Count => "COUNT",
    Sum => "SUM",
    Avg => "AVG",
    Min => "MIN",
    Max => "MAX",
}

impl Keyword {
    /// Keywords that introduce or shape query structure; used by
    /// [`crate::canonical_token_counts`] to compute the "#Keywords"
    /// statistic the way query-log complexity studies do (structural
    /// keywords only, not type names).
    pub fn is_structural(&self) -> bool {
        use Keyword::*;
        matches!(
            self,
            Select
                | From
                | Where
                | Group
                | By
                | Having
                | Order
                | Limit
                | Offset
                | On
                | Join
                | Inner
                | Left
                | Right
                | Full
                | Outer
                | Cross
                | Union
                | Intersect
                | Except
                | Distinct
                | And
                | Or
                | Not
                | In
                | Exists
                | Between
                | Like
                | Is
                | Case
                | When
                | Then
                | Else
                | End
                | With
                | Count
                | Sum
                | Avg
                | Min
                | Max
        )
    }

    /// Keywords naming aggregate functions.
    pub fn is_aggregate(&self) -> bool {
        use Keyword::*;
        matches!(self, Count | Sum | Avg | Min | Max)
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in Keyword::all() {
            assert_eq!(Keyword::from_word(kw.as_str()), Some(*kw));
            assert_eq!(Keyword::from_word(&kw.as_str().to_lowercase()), Some(*kw));
        }
    }

    #[test]
    fn non_keyword_words_are_none() {
        assert_eq!(Keyword::from_word("moira_list"), None);
        assert_eq!(Keyword::from_word("selects"), None);
        assert_eq!(Keyword::from_word(""), None);
    }

    #[test]
    fn aggregates_are_structural() {
        for kw in Keyword::all() {
            if kw.is_aggregate() {
                assert!(kw.is_structural(), "{kw} should be structural");
            }
        }
    }

    #[test]
    fn token_text_round_trip() {
        assert_eq!(Token::Keyword(Keyword::Select).text(), "SELECT");
        assert_eq!(
            Token::Identifier {
                value: "x".into(),
                quoted: true
            }
            .text(),
            "\"x\""
        );
        assert_eq!(Token::StringLiteral("a'b".into()).text(), "'a'b'");
        assert_eq!(Token::Concat.text(), "||");
    }

    #[test]
    fn is_keyword_helper() {
        assert!(Token::Keyword(Keyword::From).is_keyword(Keyword::From));
        assert!(!Token::Keyword(Keyword::From).is_keyword(Keyword::Select));
        assert!(!Token::Comma.is_keyword(Keyword::Select));
    }
}
