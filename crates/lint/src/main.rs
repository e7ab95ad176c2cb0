//! `bp-lint` — the workspace determinism and exactness lint.
//!
//! The engine's load-bearing source-level rules — the ones reviewer memory
//! used to enforce — as a checkable, ratcheted gate over `crates/*/src`:
//!
//! * **`hash-iter`** — no `HashMap`/`HashSet` iteration (`.iter()`,
//!   `.keys()`, `.values()`, `.drain()`, `for … in map`, …). Hash iteration
//!   order is nondeterministic, so any such site that flows into result
//!   construction is a byte-identity hazard; legitimate sites (order
//!   restored by a sort, order provably irrelevant) carry a one-line
//!   justification in the baseline.
//! * **`as-cast`** — no bare `as` numeric casts in kernel/key files
//!   (`scalar.rs`, `value.rs`, `physical/*`): `as` silently truncates and
//!   saturates, which is how exact-integer keys get corrupted. Use the
//!   checked conversion helpers; justified leftovers live in the baseline.
//! * **`unwrap`** — no `.unwrap()` / `.expect(…)` in non-test library code
//!   (binaries under `src/bin/` and `src/main.rs` are excluded): fallible
//!   paths must surface `StorageError`s, not panics. Lock poisoning and
//!   other prove-impossible sites are baselined with a justification.
//! * **`relaxed`** — `Ordering::Relaxed` only at allowlisted counter
//!   sites: relaxed atomics are correct for monotone counters and nothing
//!   else the codebase does.
//! * **`sync-shim`** — no direct `std::sync` / `std::thread::spawn` /
//!   `std::thread::scope` in library code outside `bp_storage::sync`: the
//!   shim module is the single doorway to the concurrency primitives, so
//!   the `bp_sanitize` schedule explorer sees every lock, atomic and
//!   spawn. Test code is exempt (the sanitizer harness itself drives
//!   tests), as are binaries and the shim's own sources.
//!
//! The committed baseline (`lint-baseline.txt` at the workspace root) is a
//! **ratchet**: per (rule, file) the current count may fall but never
//! rise. A new violation anywhere — including a file absent from the
//! baseline — fails the build; dropping below the baseline prints a
//! tightening hint (re-run with `--update-baseline`). Counts are compared
//! per file rather than per line so that unrelated edits don't shift
//! waivers around.
//!
//! The scanner is deliberately token-level: comments, string/char literal
//! contents and raw strings are blanked first (offsets preserved), then
//! `#[cfg(test)]` modules and `#[test]` functions are masked out by brace
//! tracking, and the rules match tokens in what remains. No type
//! inference: `hash-iter` resolves receivers by collecting identifiers
//! bound to `HashMap`/`HashSet`: a local only in the `fn` that binds it, a
//! struct field file-wide except inside another struct that declares a
//! same-named field of another type (and that struct's `impl` blocks) —
//! exact for this codebase's idiom (locals and struct fields annotated or
//! constructed in place).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Numeric target types a bare `as` cast can truncate or saturate into.
const NUMERIC_TYPES: [&str; 14] = [
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize", "f32",
    "f64",
];

/// Hash-container methods whose call order leaks hash-map iteration order.
const HASH_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rule {
    HashIter,
    AsCast,
    Unwrap,
    Relaxed,
    SyncShim,
}

impl Rule {
    fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::AsCast => "as-cast",
            Rule::Unwrap => "unwrap",
            Rule::Relaxed => "relaxed",
            Rule::SyncShim => "sync-shim",
        }
    }

    fn parse(s: &str) -> Option<Rule> {
        match s {
            "hash-iter" => Some(Rule::HashIter),
            "as-cast" => Some(Rule::AsCast),
            "unwrap" => Some(Rule::Unwrap),
            "relaxed" => Some(Rule::Relaxed),
            "sync-shim" => Some(Rule::SyncShim),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One flagged site.
struct Finding {
    rule: Rule,
    file: String,
    line: usize,
    snippet: String,
}

// ---------------------------------------------------------------------
// Source sanitizing: blank comments and literal contents, keep offsets
// ---------------------------------------------------------------------

/// Replace comments (line + nested block), string literal contents, raw
/// strings, and char literals with spaces, preserving every **byte**
/// offset and newline so line numbers and `str::find` offsets stay exact
/// across the original and sanitized text (multi-byte characters in
/// blanked regions become one space per byte). Lifetimes (`'a`) are left
/// untouched.
fn sanitize(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for b in out.iter_mut().take(to).skip(from) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            blank(&mut out, start, i);
        } else if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, start, i);
        } else if b == b'r'
            && i + 1 < bytes.len()
            && (bytes[i + 1] == b'"' || bytes[i + 1] == b'#')
            && (i == 0 || !is_ident_byte(bytes[i - 1]))
        {
            // Raw string: r"..." or r#"..."# (any number of hashes).
            let mut j = i + 1;
            let mut hashes = 0usize;
            while j < bytes.len() && bytes[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'"' {
                let start = i;
                j += 1;
                'raw: while j < bytes.len() {
                    if bytes[j] == b'"' {
                        let mut k = j + 1;
                        let mut seen = 0usize;
                        while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                blank(&mut out, start, j);
                i = j;
            } else {
                i += 1;
            }
        } else if b == b'"' {
            let start = i;
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\\' {
                    i += 2;
                } else if bytes[i] == b'"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            // Keep the quotes, blank the contents.
            blank(&mut out, start + 1, i.saturating_sub(1));
        } else if b == b'\'' {
            // Char literal vs lifetime: 'x' or '\..' is a literal;
            // anything else ('a without a closing quote) is a lifetime.
            if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                let start = i;
                i += 2;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
                i = (i + 1).min(bytes.len());
                blank(&mut out, start + 1, i.saturating_sub(1));
            } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                blank(&mut out, i + 1, i + 2);
                i += 3;
            } else {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    // Blanked bytes are all ASCII spaces; surviving bytes are unchanged
    // from the valid-UTF-8 input, except multi-byte char literals where a
    // partial blank could split a sequence — replace defensively.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

// ---------------------------------------------------------------------
// Test-region masking: #[cfg(test)] modules and #[test] functions
// ---------------------------------------------------------------------

/// Byte ranges (of the sanitized text) covered by `#[cfg(test)]` items or
/// `#[test]` functions: the attribute through its item's closing brace.
fn test_regions(clean: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(pos) = clean[from..].find(marker) {
            let attr_start = from + pos;
            let mut i = attr_start + marker.len();
            // Find the item's opening brace (skipping further attributes,
            // signatures, where-clauses).
            let bytes = clean.as_bytes();
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    b';' if !opened => break, // declaration without a body
                    _ => {}
                }
                if opened && depth == 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
            regions.push((attr_start, i.min(clean.len())));
            from = i.min(clean.len()).max(attr_start + 1);
        }
    }
    regions.sort_unstable();
    regions
}

fn in_regions(regions: &[(usize, usize)], offset: usize) -> bool {
    regions.iter().any(|&(a, b)| offset >= a && offset < b)
}

fn line_of(clean: &str, offset: usize) -> usize {
    clean[..offset].matches('\n').count() + 1
}

fn snippet_at(src: &str, offset: usize) -> String {
    let start = src[..offset].rfind('\n').map_or(0, |p| p + 1);
    let end = src[offset..].find('\n').map_or(src.len(), |p| offset + p);
    src[start..end].trim().chars().take(100).collect()
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// Whether `clean[offset..]` starts with a standalone token `word` (not a
/// fragment of a longer identifier). `offset` is a byte offset, as
/// produced by `str::find` on the sanitized text.
fn token_at(clean: &str, offset: usize, word: &str) -> bool {
    let bytes = clean.as_bytes();
    let w = word.as_bytes();
    if offset + w.len() > bytes.len() || &bytes[offset..offset + w.len()] != w {
        return false;
    }
    let before_ok = offset == 0 || !is_ident_byte(bytes[offset - 1]);
    let after = offset + w.len();
    let after_ok = after == bytes.len() || !is_ident_byte(bytes[after]);
    before_ok && after_ok
}

/// `as-cast`: bare `as` casts to a numeric type.
fn find_as_casts(clean: &str, src: &str, file: &str, tests: &[(usize, usize)]) -> Vec<Finding> {
    let bytes = clean.as_bytes();
    let mut findings = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'a' && token_at(clean, i, "as") && !in_regions(tests, i) {
            let mut j = i + 2;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if NUMERIC_TYPES.iter().any(|t| token_at(clean, j, t)) {
                findings.push(Finding {
                    rule: Rule::AsCast,
                    file: file.to_string(),
                    line: line_of(clean, i),
                    snippet: snippet_at(src, i),
                });
            }
            i = j;
        } else {
            i += 1;
        }
    }
    findings
}

/// `unwrap`: `.unwrap()` / `.expect(` in non-test code.
fn find_unwraps(clean: &str, src: &str, file: &str, tests: &[(usize, usize)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for pattern in [".unwrap()", ".expect("] {
        let mut from = 0;
        while let Some(pos) = clean[from..].find(pattern) {
            let offset = from + pos;
            if !in_regions(tests, offset) {
                findings.push(Finding {
                    rule: Rule::Unwrap,
                    file: file.to_string(),
                    line: line_of(clean, offset),
                    snippet: snippet_at(src, offset),
                });
            }
            from = offset + pattern.len();
        }
    }
    findings
}

/// `relaxed`: every `Ordering::Relaxed` site (allowlisted via baseline).
fn find_relaxed(clean: &str, src: &str, file: &str, tests: &[(usize, usize)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut from = 0;
    while let Some(pos) = clean[from..].find("Ordering::Relaxed") {
        let offset = from + pos;
        if !in_regions(tests, offset) {
            findings.push(Finding {
                rule: Rule::Relaxed,
                file: file.to_string(),
                line: line_of(clean, offset),
                snippet: snippet_at(src, offset),
            });
        }
        from = offset + 1;
    }
    findings
}

/// Paths whose appearance in library code bypasses the `bp_storage::sync`
/// shim. `std::sync` covers every primitive (including `std::sync::atomic`
/// and `Arc` — the shim re-exports them all); `std::thread` is matched
/// only for the spawning entry points, so `available_parallelism`,
/// `sleep` and `panicking` stay legal.
const SYNC_SHIM_PATHS: [&str; 3] = ["std::sync", "std::thread::spawn", "std::thread::scope"];

/// `sync-shim`: direct `std::sync` / thread-spawn paths in library code
/// outside the shim module — those primitives would be invisible to the
/// `bp_sanitize` schedule explorer.
fn find_sync_shim(clean: &str, src: &str, file: &str, tests: &[(usize, usize)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for path in SYNC_SHIM_PATHS {
        let mut from = 0;
        while let Some(pos) = clean[from..].find(path) {
            let offset = from + pos;
            from = offset + path.len();
            if in_regions(tests, offset) {
                continue;
            }
            // Token boundaries: `mystd::sync` or `std::synchronize` (or a
            // longer path continuing with an identifier, for the thread
            // entries) must not match. A following `::` is a match — it is
            // how the paths are actually used.
            let bytes = clean.as_bytes();
            let before_ok = offset == 0 || !is_ident_byte(bytes[offset - 1]);
            let after = offset + path.len();
            let after_ok = after == bytes.len() || !is_ident_byte(bytes[after]);
            if before_ok && after_ok {
                findings.push(Finding {
                    rule: Rule::SyncShim,
                    file: file.to_string(),
                    line: line_of(clean, offset),
                    snippet: snippet_at(src, offset),
                });
            }
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// One brace block of the sanitized text: `start` is where its header
/// begins (just past the previous `;`, `{` or `}`), `open` its `{`, `end`
/// one past its `}`.
struct Block {
    start: usize,
    open: usize,
    end: usize,
}

/// Every brace block of the sanitized text, in closing order.
fn blocks(clean: &str) -> Vec<Block> {
    let mut stack = Vec::new();
    let mut out = Vec::new();
    for (i, b) in clean.bytes().enumerate() {
        match b {
            b'{' => stack.push(i),
            b'}' => {
                if let Some(open) = stack.pop() {
                    let start = clean[..open].rfind([';', '{', '}']).map_or(0, |p| p + 1);
                    out.push(Block {
                        start,
                        open,
                        end: i + 1,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// The identifiers of a block's header, in order.
fn header_words(clean: &str, block: &Block) -> Vec<String> {
    clean[block.start..block.open]
        .split(|c: char| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// Where one `HashMap`/`HashSet` binding may be read: anywhere in
/// `within` that is not in `except`.
struct Scope {
    within: Vec<(usize, usize)>,
    except: Vec<(usize, usize)>,
}

impl Scope {
    fn contains(&self, offset: usize) -> bool {
        in_regions(&self.within, offset) && !in_regions(&self.except, offset)
    }
}

/// The name a `struct` block's header declares, if it is one.
fn struct_name(words: &[String]) -> Option<&String> {
    let at = words.iter().position(|w| w == "struct")?;
    words.get(at + 1)
}

/// Where the binding `name` declared at `offset` may be read. A local or
/// parameter is visible in the innermost `fn` around it. A struct field is
/// visible file-wide (it may be read from any function), except inside
/// another struct that declares a field of the same name with another
/// type, and that struct's `impl` blocks.
fn binding_scope(clean: &str, blocks: &[Block], offset: usize, name: &str) -> Scope {
    let file = vec![(0, clean.len())];
    let mut around: Vec<&Block> = blocks
        .iter()
        .filter(|b| b.start <= offset && offset < b.end)
        .collect();
    around.sort_by_key(|b| b.end - b.start);
    let owner = around
        .first()
        .and_then(|b| struct_name(&header_words(clean, b)).cloned());
    let Some(owner) = owner else {
        let fun = around
            .iter()
            .find(|b| header_words(clean, b).iter().any(|w| w == "fn"));
        let within = fun.map_or(file, |f| vec![(f.start, f.end)]);
        return Scope {
            within,
            except: Vec::new(),
        };
    };
    let others: Vec<String> = blocks
        .iter()
        .filter_map(|b| {
            let other = struct_name(&header_words(clean, b))?.clone();
            let shadows = other != owner && declares_other_field(&clean[b.open..b.end], name);
            shadows.then_some(other)
        })
        .collect();
    let except = blocks
        .iter()
        .filter(|b| {
            let words = header_words(clean, b);
            let is_impl = words.iter().any(|w| w == "impl") && !words.iter().any(|w| w == "fn");
            others.iter().any(|other| {
                struct_name(&words) == Some(other) || (is_impl && words.contains(other))
            })
        })
        .map(|b| (b.start, b.end))
        .collect();
    Scope {
        within: file,
        except,
    }
}

/// Whether a struct body declares a field `name` whose type is neither a
/// `HashMap` nor a `HashSet`.
fn declares_other_field(body: &str, name: &str) -> bool {
    body.lines().any(|line| {
        let field = line.trim_start();
        let field = field.strip_prefix("pub(crate) ").unwrap_or(field);
        let field = field.strip_prefix("pub ").unwrap_or(field);
        field
            .strip_prefix(name)
            .and_then(|rest| rest.trim_start().strip_prefix(':'))
            .is_some_and(|ty| {
                !ty.starts_with(':') && !ty.contains("HashMap") && !ty.contains("HashSet")
            })
    })
}

/// Collect identifiers bound to `HashMap`/`HashSet` in this file, each with
/// the scopes of its bindings (see [`binding_scope`]):
/// `let` bindings, parameters and struct fields, by annotation (`name:
/// HashMap<…>`, possibly through wrappers like `Mutex<HashMap<…>>`) or
/// in-place construction (`name = HashMap::new()`).
fn hash_bound_names(clean: &str) -> Vec<(String, Vec<Scope>)> {
    let blocks = blocks(clean);
    let mut names: BTreeMap<String, Vec<Scope>> = BTreeMap::new();
    let mut line_start = 0;
    for line in clean.split_inclusive('\n') {
        let offset = line_start;
        line_start += line.len();
        let trimmed = line.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        for container in ["HashMap", "HashSet"] {
            let Some(pos) = line.find(container) else {
                continue;
            };
            // The nearest preceding `:` or `=` introduces the binding; the
            // identifier right before it is the name.
            let head = &line[..pos];
            let sep = head.rfind([':', '=']);
            let Some(sep) = sep else { continue };
            // `::` is a path, not an annotation — step over `HashMap::new`
            // by looking left of a `=` instead.
            let head = if head[..sep].ends_with(':') {
                &head[..sep - 1]
            } else {
                &head[..sep]
            };
            let sep = match head.rfind([':', '=']) {
                Some(s) if head[..s].ends_with(':') => continue,
                Some(s) => s,
                None => head.len(),
            };
            let name: String = head[..sep.min(head.len())]
                .chars()
                .rev()
                .skip_while(|c| c.is_whitespace())
                .take_while(|c| is_ident_char(*c))
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if !name.is_empty()
                && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
                && name != "mut"
            {
                let scope = binding_scope(clean, &blocks, offset + pos, &name);
                names.entry(name).or_default().push(scope);
            }
        }
    }
    names.into_iter().collect()
}

/// `hash-iter`: iteration over identifiers bound to `HashMap`/`HashSet`.
fn find_hash_iter(clean: &str, src: &str, file: &str, tests: &[(usize, usize)]) -> Vec<Finding> {
    let names = hash_bound_names(clean);
    let mut findings = Vec::new();
    for (name, scopes) in &names {
        let mut from = 0;
        while let Some(pos) = clean[from..].find(name.as_str()) {
            let offset = from + pos;
            from = offset + name.len();
            if !token_at(clean, offset, name)
                || in_regions(tests, offset)
                || !scopes.iter().any(|scope| scope.contains(offset))
            {
                continue;
            }
            let after = offset + name.len();
            let rest = &clean[after..];
            // `name.iter()` / `.keys()` / … (also `self.name.iter()` —
            // the receiver token is the same).
            let method_hit = rest.strip_prefix('.').is_some_and(|r| {
                HASH_ITER_METHODS
                    .iter()
                    .any(|m| r.starts_with(m) && r[m.len()..].starts_with('('))
            });
            // `for … in name` / `in &name` / `in &mut name`.
            let line_start = clean[..offset].rfind('\n').map_or(0, |p| p + 1);
            let before = &clean[line_start..offset];
            let for_hit = before.contains("for ")
                && before
                    .trim_end()
                    .trim_end_matches(['&'])
                    .trim_end()
                    .trim_end_matches("mut")
                    .trim_end()
                    .trim_end_matches(['&'])
                    .ends_with(" in");
            if method_hit || for_hit {
                findings.push(Finding {
                    rule: Rule::HashIter,
                    file: file.to_string(),
                    line: line_of(clean, offset),
                    snippet: snippet_at(src, offset),
                });
            }
        }
    }
    findings.sort_by_key(|f| f.line);
    findings.dedup_by(|a, b| a.line == b.line && a.snippet == b.snippet);
    findings
}

// ---------------------------------------------------------------------
// File discovery and per-file dispatch
// ---------------------------------------------------------------------

/// Whether `as-cast` applies: the kernel/key files where a silent
/// truncation corrupts keys or scalar semantics.
fn is_kernel_file(rel: &str) -> bool {
    rel.ends_with("scalar.rs") || rel.ends_with("value.rs") || rel.contains("/physical/")
}

/// Whether `unwrap` applies: library code only — binaries own their exit
/// behavior and may panic on startup errors.
fn is_library_file(rel: &str) -> bool {
    !rel.contains("/bin/") && !rel.ends_with("main.rs") && !rel.ends_with("build.rs")
}

/// Whether `sync-shim` is exempt: the shim module is the one place that
/// *must* name the std primitives it wraps.
fn is_shim_file(rel: &str) -> bool {
    rel.contains("crates/storage/src/sync/")
}

fn lint_file(rel: &str, src: &str) -> Vec<Finding> {
    let clean = sanitize(src);
    let tests = test_regions(&clean);
    let mut findings = find_hash_iter(&clean, src, rel, &tests);
    if is_kernel_file(rel) {
        findings.extend(find_as_casts(&clean, src, rel, &tests));
    }
    if is_library_file(rel) {
        findings.extend(find_unwraps(&clean, src, rel, &tests));
        if !is_shim_file(rel) {
            findings.extend(find_sync_shim(&clean, src, rel, &tests));
        }
    }
    findings.extend(find_relaxed(&clean, src, rel, &tests));
    findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// All lintable sources: `crates/*/src/**/*.rs` (the lint's own source
/// included — it must hold itself to the same rules).
fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let crates = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates) else {
        return Vec::new();
    };
    let mut dirs: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    dirs.sort();
    let mut files = Vec::new();
    for dir in dirs {
        collect_rs_files(&dir.join("src"), &mut files);
    }
    files
}

// ---------------------------------------------------------------------
// Baseline: parse, compare (ratchet), update
// ---------------------------------------------------------------------

/// One waiver: up to `max` findings of `rule` in `file`, with a committed
/// justification.
struct Waiver {
    max: usize,
    justification: String,
}

type Baseline = BTreeMap<(Rule, String), Waiver>;

fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut baseline = Baseline::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(4, '\t');
        let (Some(rule), Some(file), Some(max)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "baseline line {}: expected rule<TAB>file<TAB>count<TAB>justification",
                lineno + 1
            ));
        };
        let rule = Rule::parse(rule)
            .ok_or_else(|| format!("baseline line {}: unknown rule '{rule}'", lineno + 1))?;
        let max: usize = max
            .parse()
            .map_err(|_| format!("baseline line {}: bad count '{max}'", lineno + 1))?;
        let justification = parts.next().unwrap_or("").to_string();
        baseline.insert((rule, file.to_string()), Waiver { max, justification });
    }
    Ok(baseline)
}

fn render_baseline(counts: &BTreeMap<(Rule, String), usize>, old: &Baseline) -> String {
    let mut out = String::from(
        "# bp-lint baseline — the determinism-lint ratchet.\n\
         # One waiver per line: rule<TAB>file<TAB>max-count<TAB>justification.\n\
         # Counts may only fall; run `cargo run -p bp-lint -- --update-baseline`\n\
         # after removing a violation to lock the lower count in.\n",
    );
    for ((rule, file), count) in counts {
        if *count == 0 {
            continue;
        }
        let justification = old
            .get(&(*rule, file.clone()))
            .map(|w| w.justification.as_str())
            .filter(|j| !j.is_empty())
            .unwrap_or("TODO: justify or fix");
        out.push_str(&format!("{rule}\t{file}\t{count}\t{justification}\n"));
    }
    out
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut update = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--baseline" if i + 1 < args.len() => {
                baseline_path = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--update-baseline" => {
                update = true;
                i += 1;
            }
            other => {
                eprintln!("bp-lint: unknown argument '{other}'");
                eprintln!("usage: bp-lint [--root DIR] [--baseline FILE] [--update-baseline]");
                return ExitCode::FAILURE;
            }
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.txt"));

    let files = workspace_sources(&root);
    if files.is_empty() {
        eprintln!("bp-lint: no sources under {}/crates", root.display());
        return ExitCode::FAILURE;
    }
    let mut findings: Vec<Finding> = Vec::new();
    for path in &files {
        let Ok(src) = fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_file(&rel, &src));
    }
    let mut counts: BTreeMap<(Rule, String), usize> = BTreeMap::new();
    for finding in &findings {
        *counts
            .entry((finding.rule, finding.file.clone()))
            .or_default() += 1;
    }

    if update {
        let old = fs::read_to_string(&baseline_path)
            .ok()
            .and_then(|t| parse_baseline(&t).ok())
            .unwrap_or_default();
        let rendered = render_baseline(&counts, &old);
        if let Err(e) = fs::write(&baseline_path, rendered) {
            eprintln!("bp-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "bp-lint: baseline updated ({} waivers) at {}",
            counts.values().filter(|c| **c > 0).count(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bp-lint: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => {
            eprintln!(
                "bp-lint: no baseline at {} (run with --update-baseline to create one)",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let mut regressions = 0usize;
    let mut tightenable = 0usize;
    for ((rule, file), count) in &counts {
        let max = baseline.get(&(*rule, file.clone())).map_or(0, |w| w.max);
        if *count > max {
            regressions += 1;
            eprintln!(
                "bp-lint: {rule} in {file}: {count} finding(s), baseline allows {max} — the ratchet only goes down"
            );
            for finding in findings
                .iter()
                .filter(|f| f.rule == *rule && &f.file == file)
            {
                eprintln!("    {}:{}: {}", finding.file, finding.line, finding.snippet);
            }
        } else if *count < max {
            tightenable += 1;
            eprintln!(
                "bp-lint: note: {rule} in {file} is down to {count} (baseline {max}) — run --update-baseline to lock it in"
            );
        }
    }
    // Baseline entries whose file is now clean (or gone) are stale waivers.
    for ((rule, file), waiver) in &baseline {
        if waiver.max > 0 && !counts.contains_key(&(*rule, file.clone())) {
            tightenable += 1;
            eprintln!(
                "bp-lint: note: stale waiver {rule} in {file} ({} allowed, 0 found) — run --update-baseline",
                waiver.max
            );
        }
    }
    let total: usize = counts.values().sum();
    println!(
        "bp-lint: {} file(s) scanned, {} finding(s) across {} rule-file pair(s), {} regression(s)",
        files.len(),
        total,
        counts.len(),
        regressions
    );
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        if tightenable > 0 {
            println!("bp-lint: {tightenable} waiver(s) can be tightened");
        }
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_blanks_comments_strings_and_chars() {
        let src =
            "let a = \"x.unwrap()\"; // .unwrap()\nlet b = 'c'; /* as i64 */ let l: &'a str = s;";
        let clean = sanitize(src);
        assert!(!clean.contains(".unwrap()"));
        assert!(!clean.contains("as i64"));
        assert!(clean.contains("&'a str"), "lifetimes survive: {clean}");
        assert_eq!(clean.len(), src.len(), "byte offsets preserved");
        let raw = sanitize("let r = r#\"Ordering::Relaxed\"#; let x = 1;");
        assert!(!raw.contains("Ordering::Relaxed"));
        assert!(raw.contains("let x = 1;"));
    }

    #[test]
    fn test_regions_cover_cfg_test_modules_and_test_fns() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn helper() { y.unwrap(); }\n}\n#[test]\nfn t() { z.unwrap(); }\nfn lib2() { w.unwrap(); }\n";
        let clean = sanitize(src);
        let regions = test_regions(&clean);
        let findings = find_unwraps(&clean, src, "f.rs", &regions);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 8], "only library unwraps flagged");
    }

    #[test]
    fn as_casts_flag_numeric_targets_only() {
        let src =
            "let a = x as i64; let b = y as f64; let c = z as Box<dyn T>; let d = w as usize;";
        let clean = sanitize(src);
        let findings = find_as_casts(&clean, src, "value.rs", &[]);
        assert_eq!(findings.len(), 3);
        // `as` inside identifiers must not match.
        let src2 = "let base = basis; let alias = cast_to(v);";
        let clean2 = sanitize(src2);
        assert!(find_as_casts(&clean2, src2, "value.rs", &[]).is_empty());
    }

    #[test]
    fn unwrap_rule_skips_unwrap_or_variants() {
        let src = "let a = x.unwrap_or(0); let b = y.unwrap_or_else(f); let c = z.unwrap();";
        let clean = sanitize(src);
        let findings = find_unwraps(&clean, src, "f.rs", &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].snippet.contains("z.unwrap()"));
    }

    #[test]
    fn hash_iter_flags_iteration_not_lookup() {
        let src = "let mut seen: HashMap<String, u64> = HashMap::new();\n\
                   seen.insert(k, v);\n\
                   let hit = seen.get(&k);\n\
                   for (k, v) in &seen { emit(k, v); }\n\
                   let all: Vec<_> = seen.keys().collect();\n\
                   let sorted: BTreeMap<_, _> = other.iter().collect();\n";
        let clean = sanitize(src);
        let findings = find_hash_iter(&clean, src, "f.rs", &[]);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![4, 5], "insert/get are fine; iteration is not");
    }

    #[test]
    fn hash_iter_resolves_struct_fields() {
        let src = "struct Cache {\n    slots: HashMap<String, Slot>,\n}\n\
                   impl Cache {\n    fn all(&self) { for s in self.slots.values() { use_(s); } }\n    fn one(&self) { self.slots.get(\"k\"); }\n}\n";
        let clean = sanitize(src);
        let findings = find_hash_iter(&clean, src, "f.rs", &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn hash_iter_scopes_a_field_to_its_struct() {
        // Two structs share a field name: iterating the `Vec` one is fine,
        // iterating the `HashMap` one is not.
        let src = "struct Walker {\n    frames: Vec<u32>,\n}\n\
                   impl Walker {\n    fn all(&self) { for f in self.frames.iter() { use_(f); } }\n}\n\
                   struct Index {\n    frames: HashMap<String, u32>,\n}\n\
                   impl Index {\n    fn all(&self) { for f in self.frames.iter() { use_(f); } }\n}\n";
        let clean = sanitize(src);
        let findings = find_hash_iter(&clean, src, "f.rs", &[]);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![11], "only the HashMap field's iteration");
    }

    #[test]
    fn hash_iter_follows_a_field_outside_its_impl() {
        // A free fn, another type's impl and a destructuring all read the
        // `HashMap` field; only `Walker`'s own `Vec` field is exempt.
        let src = "struct Index {\n    frames: HashMap<String, u32>,\n}\n\
                   struct Walker {\n    frames: Vec<u32>,\n}\n\
                   fn dump(i: &Index) { for f in i.frames.iter() { use_(f); } }\n\
                   impl Report {\n    fn of(i: &Index) { i.frames.values().count(); }\n}\n\
                   fn parts(i: Index) {\n    let Index { frames } = i;\n    frames.keys();\n}\n\
                   #[allow(dead_code)]\nimpl Walker {\n    fn all(&self) { self.frames.iter(); }\n}\n";
        let clean = sanitize(src);
        let findings = find_hash_iter(&clean, src, "f.rs", &[]);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![7, 9, 13]);
    }

    #[test]
    fn hash_iter_scopes_a_local_to_its_fn() {
        let src = "fn a() {\n    let seen: HashSet<u32> = HashSet::new();\n    for s in &seen { use_(s); }\n}\n\
                   fn b(seen: &[u32]) {\n    for s in seen.iter() { use_(s); }\n}\n";
        let clean = sanitize(src);
        let findings = find_hash_iter(&clean, src, "f.rs", &[]);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![3],
            "the slice parameter of `b` is not the set of `a`"
        );
    }

    #[test]
    fn sync_shim_flags_std_sync_paths_outside_tests() {
        let src = "use std::sync::Mutex;\n\
                   use std::sync::atomic::{AtomicBool, Ordering};\n\
                   fn go() { std::thread::spawn(|| {}); }\n\
                   fn par() { std::thread::available_parallelism(); }\n\
                   fn nap() { std::thread::sleep(d); }\n\
                   #[cfg(test)]\nmod tests {\n    use std::sync::mpsc;\n    fn t() { std::thread::scope(|s| {}); }\n}\n";
        let clean = sanitize(src);
        let regions = test_regions(&clean);
        let findings = find_sync_shim(&clean, src, "f.rs", &regions);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![1, 2, 3],
            "imports and spawn flagged; parallelism/sleep/test code exempt"
        );
        // Comments and doc text never count, and identifier fragments
        // (`mystd::sync…`) must not match.
        let src2 = "// use std::sync::Mutex\nlet p = mystd::sync_token();\n";
        let clean2 = sanitize(src2);
        assert!(find_sync_shim(&clean2, src2, "f.rs", &[]).is_empty());
    }

    #[test]
    fn sync_shim_exempts_the_shim_module_and_binaries() {
        assert!(is_shim_file("crates/storage/src/sync/mod.rs"));
        assert!(is_shim_file("crates/storage/src/sync/shim.rs"));
        assert!(is_shim_file("crates/storage/src/sync/runtime.rs"));
        assert!(!is_shim_file("crates/storage/src/database.rs"));
        let src = "use std::sync::Mutex;\n";
        assert!(
            lint_file("crates/storage/src/sync/mod.rs", src).is_empty(),
            "the shim may name the std primitives it wraps"
        );
        assert!(
            lint_file("crates/bench/src/bin/exec_bench.rs", src).is_empty(),
            "binaries own their concurrency"
        );
        assert_eq!(
            lint_file("crates/storage/src/table.rs", src).len(),
            1,
            "library code outside the shim is flagged"
        );
    }

    #[test]
    fn baseline_round_trips_and_ratchets() {
        let text = "# comment\nunwrap\tcrates/x/src/lib.rs\t3\tlock poisoning is fatal by design\n";
        let baseline = parse_baseline(text).unwrap();
        let waiver = &baseline[&(Rule::Unwrap, "crates/x/src/lib.rs".to_string())];
        assert_eq!(waiver.max, 3);
        assert!(waiver.justification.contains("poisoning"));
        let mut counts = BTreeMap::new();
        counts.insert((Rule::Unwrap, "crates/x/src/lib.rs".to_string()), 2usize);
        let rendered = render_baseline(&counts, &baseline);
        let reparsed = parse_baseline(&rendered).unwrap();
        assert_eq!(
            reparsed[&(Rule::Unwrap, "crates/x/src/lib.rs".to_string())].max,
            2,
            "update locks the lower count in"
        );
        assert!(rendered.contains("poisoning"), "justification preserved");
    }
}
