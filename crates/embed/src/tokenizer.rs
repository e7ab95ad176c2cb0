//! Text tokenization shared by the embedder and the simulated LLM.
//!
//! SQL and natural language are both normalized the same way: lowercased,
//! split on non-alphanumeric characters, and compound identifiers such as
//! `MOIRA_LIST_NAME` or `academicTermsAll` are additionally split into their
//! parts so that SQL identifiers and English words land in a shared token
//! space. This is what lets hashed n-gram embeddings stand in for
//! Sentence-BERT: similarity is driven by shared schema terms and phrasing.

/// Tokenize a text into normalized word tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |token| tokens.push(token.to_ascii_lowercase()));
    tokens
}

/// Feed the tokens of `text` to `token` in [`tokenize`] order, as slices of
/// `text` that are not yet lowercased: the normalized token is the slice's
/// ASCII lowercase. Allocates nothing.
pub(crate) fn for_each_token<'a>(text: &'a str, mut token: impl FnMut(&'a str)) {
    for raw in text.split(|c: char| !c.is_alphanumeric() && c != '_') {
        if raw.is_empty() {
            continue;
        }
        // Split snake_case and camelCase identifiers into parts, but also
        // keep the full identifier as a token so exact matches score higher.
        let mut parts = 0;
        for_each_part(raw, |_| parts += 1);
        if parts > 1 {
            token(raw);
        }
        for_each_part(raw, &mut token);
    }
}

/// Split an identifier on underscores and at each uppercase char that
/// follows a lowercase one (camelCase), feeding the non-empty parts to
/// `part`.
fn for_each_part<'a>(word: &'a str, mut part: impl FnMut(&'a str)) {
    for chunk in word.split('_') {
        let mut start = 0;
        let mut prev_lower = false;
        for (i, c) in chunk.char_indices() {
            if c.is_uppercase() && prev_lower {
                part(&chunk[start..i]);
                start = i;
            }
            prev_lower = c.is_lowercase();
        }
        if start < chunk.len() {
            part(&chunk[start..]);
        }
    }
}

/// Word-level bigrams of a token stream ("a b", "b c", ...).
pub fn bigrams(tokens: &[String]) -> Vec<String> {
    tokens
        .windows(2)
        .map(|w| format!("{} {}", w[0], w[1]))
        .collect()
}

/// Character trigrams of the normalized text (whitespace collapsed).
pub fn char_trigrams(text: &str) -> Vec<String> {
    let mut trigrams = Vec::new();
    for_each_trigram(text, |window| trigrams.push(window.iter().collect()));
    trigrams
}

/// Feed the [`char_trigrams`] of `text` to `trigram`, in order, as char
/// slices: every 3-char window of the lowercased, punctuation-to-space,
/// space-collapsed text, or the trimmed text itself when it is shorter than
/// three chars. Allocates nothing.
pub(crate) fn for_each_trigram(text: &str, mut trigram: impl FnMut(&[char])) {
    let mut window = [' '; 3];
    let mut len = 0usize;
    let mut last_space = true;
    for c in text.chars() {
        let c = c.to_ascii_lowercase();
        let c = if c.is_alphanumeric() { c } else { ' ' };
        let space = c == ' ';
        if space && last_space {
            continue;
        }
        last_space = space;
        window = [window[1], window[2], c];
        len += 1;
        if len >= 3 {
            trigram(&window);
        }
    }
    if len < 3 {
        // The collapsed text never starts with a space, so trimming only
        // drops a trailing one.
        let short = &window[3 - len..];
        let trimmed = short.strip_suffix(&[' ']).unwrap_or(short);
        if !trimmed.is_empty() {
            trigram(trimmed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_snake_case_and_keeps_whole() {
        let toks = tokenize("SELECT MOIRA_LIST_NAME FROM MOIRA_LIST");
        assert!(toks.contains(&"moira_list_name".to_string()));
        assert!(toks.contains(&"moira".to_string()));
        assert!(toks.contains(&"list".to_string()));
        assert!(toks.contains(&"name".to_string()));
        assert!(toks.contains(&"select".to_string()));
    }

    #[test]
    fn splits_camel_case() {
        let toks = tokenize("academicTermsAll");
        assert_eq!(toks, vec!["academictermsall", "academic", "terms", "all"]);
    }

    #[test]
    fn simple_words_are_not_duplicated() {
        let toks = tokenize("count the members");
        assert_eq!(toks, vec!["count", "the", "members"]);
    }

    #[test]
    fn punctuation_is_removed() {
        let toks = tokenize("What are the lists, starting with 'B'?");
        assert!(toks.contains(&"lists".to_string()));
        assert!(toks.contains(&"b".to_string()));
        assert!(!toks.iter().any(|t| t.contains('\'')));
    }

    #[test]
    fn bigrams_of_tokens() {
        let toks = tokenize("count distinct members");
        assert_eq!(
            bigrams(&toks),
            vec!["count distinct".to_string(), "distinct members".to_string()]
        );
        assert!(bigrams(&toks[..1]).is_empty());
    }

    #[test]
    fn char_trigrams_cover_short_text() {
        assert_eq!(char_trigrams("ab"), vec!["ab".to_string()]);
        let tris = char_trigrams("J-term");
        assert!(tris.contains(&"ter".to_string()));
    }

    /// String-building tokenizer: every part is collected into its own
    /// `String`. The oracle `tokenize` must match.
    fn reference_tokenize(text: &str) -> Vec<String> {
        fn split_identifier(word: &str) -> Vec<String> {
            let mut parts = Vec::new();
            for chunk in word.split('_') {
                let mut current = String::new();
                let chars: Vec<char> = chunk.chars().collect();
                for (i, &c) in chars.iter().enumerate() {
                    let prev_lower = i > 0 && chars[i - 1].is_lowercase();
                    if c.is_uppercase() && prev_lower && !current.is_empty() {
                        parts.push(current.to_ascii_lowercase());
                        current = String::new();
                    }
                    current.push(c);
                }
                if !current.is_empty() {
                    parts.push(current.to_ascii_lowercase());
                }
            }
            parts
        }
        let mut tokens = Vec::new();
        for raw in text.split(|c: char| !c.is_alphanumeric() && c != '_') {
            if raw.is_empty() {
                continue;
            }
            let parts = split_identifier(raw);
            if parts.len() > 1 {
                tokens.push(raw.to_ascii_lowercase());
            }
            tokens.extend(parts);
        }
        tokens
    }

    /// Buffer-building trigram splitter: the text is normalized and
    /// collapsed into buffers first. The oracle `char_trigrams` (and so
    /// `for_each_trigram`) must match.
    fn reference_char_trigrams(text: &str) -> Vec<String> {
        let normalized: Vec<char> = text
            .to_ascii_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { ' ' })
            .collect();
        let collapsed: Vec<char> = {
            let mut out = Vec::with_capacity(normalized.len());
            let mut last_space = true;
            for c in normalized {
                if c == ' ' {
                    if !last_space {
                        out.push(c);
                    }
                    last_space = true;
                } else {
                    out.push(c);
                    last_space = false;
                }
            }
            out
        };
        let trimmed: String = collapsed.iter().collect::<String>().trim().to_string();
        if trimmed.is_empty() {
            return Vec::new();
        }
        if collapsed.len() < 3 {
            return vec![trimmed];
        }
        collapsed
            .windows(3)
            .map(|w| w.iter().collect::<String>())
            .collect()
    }

    #[test]
    fn tokenizer_matches_reference_on_mixed_scripts() {
        for text in [
            "",
            "a",
            "ab",
            "a.",
            "?!",
            " x ",
            "-ß-",
            "😀",
            "_",
            "__a__",
            "A_b_C",
            "aB",
            "ABc dEF",
            "éÉ ßẞ ǅǆ",
            "naïveÉcole Straße_Öl 東京Tokyo 🚀x",
            "SELECT MOIRA_LIST_NAME, academicTermsAll FROM t_1",
        ] {
            assert_eq!(tokenize(text), reference_tokenize(text), "{text:?}");
            assert_eq!(
                char_trigrams(text),
                reference_char_trigrams(text),
                "{text:?}"
            );
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Random mixed-case, mixed-script texts tokenize and split into
        /// trigrams exactly like the references.
        #[test]
        fn tokenizer_matches_reference_on_random_text(
            text in "[a-zA-Z0-9_ .,'(*)ÉéßØø中😀ǅ-]{0,40}"
        ) {
            prop_assert_eq!(tokenize(&text), reference_tokenize(&text));
            prop_assert_eq!(char_trigrams(&text), reference_char_trigrams(&text));
        }
    }

    #[test]
    fn empty_text() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("—?!").is_empty());
    }
}
