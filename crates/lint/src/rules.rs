//! The six determinism/concurrency rules.
//!
//! All rules work on [`crate::lexer::Stripped`] text — token-level, not AST-level
//! — so they are heuristics by design: precise enough for this workspace
//! (the fixture tests pin the behavior), cheap enough to run on every CI
//! push, and individually suppressible where a human has looked:
//!
//! - same line or the line above: `// lint: allow(<rule>) <reason>`
//!   (for `no-hashmap-iter`, `// lint: sorted <reason>` is an alias);
//! - `lint.toml` `[[allow]]` entries for reviewed, path-scoped burndown.

use crate::config::Config;
use crate::diag::{Diagnostic, Level, UnsafeSite};
use crate::lexer::Stripped;

/// Names of every rule, used by `lint: allow(...)` validation and the
/// `contract-sync` allow-entry check.
pub const RULES: [&str; 9] = [
    "no-hashmap-iter",
    "no-wall-clock",
    "no-unseeded-rng",
    "no-raw-spawn",
    "no-float-keys",
    "unsafe-inventory",
    "no-alloc-hot-path",
    "bail-discipline",
    "contract-sync",
];

/// One scanned file, lexed, with its workspace-relative path.
#[derive(Debug)]
pub struct SourceFile {
    /// `/`-separated path relative to the workspace root.
    pub rel: String,
    /// Stripped source.
    pub stripped: Stripped,
}

/// Cross-file pass 1: every identifier (field, local, parameter) declared
/// with a `HashMap`/`HashSet` type anywhere in the workspace. Pass 2 flags
/// iteration through these names, which catches a `HashMap` *field*
/// declared in one crate and iterated in another — the failure mode a
/// single-file scan misses.
#[derive(Debug, Default)]
pub struct HashNameIndex {
    names: Vec<String>,
}

/// Ordered/sequential container types whose declarations make a name
/// *ambiguous*: if `counts` is a `HashMap` in one file but a `[u64; 4]`
/// or `Vec` elsewhere, flagging every `counts.iter()` would drown the
/// rule in false positives, so ambiguous names are dropped from the
/// index. (Precision over recall — the fixtures pin this choice.)
const ORDERED_TYPES: [&str; 4] = ["BTreeMap", "BTreeSet", "Vec", "VecDeque"];

impl HashNameIndex {
    /// Builds the index over every scanned file.
    pub fn build(files: &[SourceFile]) -> HashNameIndex {
        let mut hash_names = Vec::new();
        let mut other_names = Vec::new();
        for file in files {
            for line in file.stripped.code.lines() {
                for ty in ["HashMap", "HashSet"] {
                    collect_decls(line, ty, &mut hash_names);
                }
                for ty in ORDERED_TYPES {
                    collect_decls(line, ty, &mut other_names);
                }
                collect_array_decls(line, &mut other_names);
            }
        }
        hash_names.sort();
        hash_names.dedup();
        other_names.sort();
        let names = hash_names
            .into_iter()
            .filter(|n| other_names.binary_search(n).is_err())
            .collect();
        HashNameIndex { names }
    }

    fn contains(&self, name: &str) -> bool {
        self.names
            .binary_search_by(|n| n.as_str().cmp(name))
            .is_ok()
    }
}

/// Records identifiers declared with array types (`name: [T; N]` /
/// `name = [expr; n]`), which also disambiguate toward "ordered".
fn collect_array_decls(line: &str, out: &mut Vec<String>) {
    let mut from = 0;
    while let Some(pos) = line[from..].find('[') {
        let at = from + pos;
        from = at + 1;
        let before = line[..at].trim_end();
        for sigil in [':', '='] {
            if let Some(prefix) = before.strip_suffix(sigil) {
                if !prefix.ends_with([':', '=', '<', '>', '!']) {
                    if let Some(name) = trailing_ident(prefix) {
                        out.push(name.to_string());
                    }
                }
            }
        }
    }
}

/// Records identifiers declared with type `ty` on `line`:
/// `name: Ty<...>`, `let [mut] name = Ty::new()`, and reference forms.
fn collect_decls(line: &str, ty: &str, out: &mut Vec<String>) {
    {
        let mut from = 0;
        while let Some(pos) = line[from..].find(ty) {
            let at = from + pos;
            from = at + ty.len();
            if !is_word_boundary(line, at, ty.len()) {
                continue;
            }
            // Skip reference/mut sigils: `cache: &mut HashSet<...>`.
            let mut before = line[..at].trim_end();
            loop {
                let stripped = before.trim_end_matches('&').trim_end();
                let stripped = stripped.strip_suffix("mut").unwrap_or(stripped).trim_end();
                if stripped == before {
                    break;
                }
                before = stripped;
            }
            // `name: HashMap<...>` (field, param, or annotated let) — but
            // not a `::` path like `std::collections::HashMap`.
            if let Some(prefix) = before.strip_suffix(':') {
                if !prefix.ends_with(':') {
                    if let Some(name) = trailing_ident(prefix) {
                        out.push(name.to_string());
                    }
                }
                continue;
            }
            // `let [mut] name = HashMap::new()` / `with_capacity`.
            if let Some(prefix) = before.strip_suffix('=') {
                if let Some(name) = trailing_ident(prefix) {
                    if prefix.trim_end().ends_with(name) {
                        out.push(name.to_string());
                    }
                }
            }
        }
    }
}

/// The identifier a method-call receiver chain ends with, e.g.
/// `self.input.topology.systems` → `systems`.
fn trailing_ident(s: &str) -> Option<&str> {
    let trimmed = s.trim_end();
    let end = trimmed.len();
    let start = trimmed
        .rfind(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .map_or(0, |i| i + 1);
    let ident = &trimmed[start..end];
    (!ident.is_empty() && !ident.chars().next().unwrap().is_ascii_digit()).then_some(ident)
}

fn is_word_boundary(line: &str, at: usize, len: usize) -> bool {
    let before_ok = at == 0
        || !line.as_bytes()[at - 1].is_ascii_alphanumeric() && line.as_bytes()[at - 1] != b'_';
    let after = at + len;
    let after_ok = after >= line.len()
        || !line.as_bytes()[after].is_ascii_alphanumeric() && line.as_bytes()[after] != b'_';
    before_ok && after_ok
}

/// Whether a finding of `rule` at `line` (1-based) is suppressed by a
/// justification comment on the same line, or on a *standalone* comment
/// line directly above (a trailing comment on the previous code line
/// blesses that line, not this one).
pub fn suppressed(file: &SourceFile, rule: &str, line: usize) -> bool {
    let above_is_standalone = line > 1
        && file
            .stripped
            .code
            .lines()
            .nth(line - 2)
            .is_some_and(|code| code.trim().is_empty());
    let candidates = file.stripped.comments_on(line).chain(
        if above_is_standalone {
            Some(file.stripped.comments_on(line - 1))
        } else {
            None
        }
        .into_iter()
        .flatten(),
    );
    for comment in candidates {
        let text = comment.text.as_str();
        if text.contains(&format!("lint: allow({rule})")) {
            return true;
        }
        if rule == "no-hashmap-iter" && text.contains("lint: sorted") {
            return true;
        }
    }
    false
}

/// Iteration adapters whose receiver order becomes program order.
const ITER_ADAPTERS: [&str; 7] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// `no-hashmap-iter`: iterating a `HashMap`/`HashSet` in deterministic
/// code. Hash iteration order depends on hasher seed and insertion
/// history; anything accumulated in that order (float sums especially)
/// diverges between runs and shardings.
pub fn no_hashmap_iter(
    file: &SourceFile,
    index: &HashNameIndex,
    config: &Config,
    out: &mut Vec<Diagnostic>,
) {
    if !config.deterministic_paths.is_empty()
        && !Config::under(&file.rel, &config.deterministic_paths)
    {
        return;
    }
    for (i, line) in file.stripped.code.lines().enumerate() {
        let lineno = i + 1;
        // Method-style iteration: `<recv>.values()` etc. where the
        // receiver's trailing identifier is hash-typed somewhere.
        for adapter in ITER_ADAPTERS {
            let mut from = 0;
            while let Some(pos) = line[from..].find(adapter) {
                let at = from + pos;
                from = at + adapter.len();
                if let Some(recv) = trailing_ident(&line[..at]) {
                    if index.contains(recv) {
                        out.push(Diagnostic {
                            rule: "no-hashmap-iter",
                            level: Level::Error,
                            path: file.rel.clone(),
                            line: lineno,
                            col: at + 1,
                            message: format!(
                                "`{recv}` is HashMap/HashSet-typed and `{}` iterates it in hash order",
                                adapter.trim_end_matches('(')
                            ),
                            help: "use a BTreeMap/BTreeSet (or collect and sort) so iteration \
                                   order is stable; if order provably cannot matter here, \
                                   justify with `// lint: sorted <why>`"
                                .into(),
                        });
                    }
                }
            }
        }
        // `for x in &name` / `for x in name` over a hash-typed name.
        if let Some(pos) = find_for_in(line) {
            let rest = line[pos..].trim_start();
            let subject = rest
                .split(|c: char| c.is_whitespace() || c == '{')
                .next()
                .unwrap_or("");
            let subject = subject.trim_start_matches('&').trim_start_matches("mut ");
            if let Some(name) = trailing_ident(subject) {
                if subject
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '&')
                    && index.contains(name)
                {
                    out.push(Diagnostic {
                        rule: "no-hashmap-iter",
                        level: Level::Error,
                        path: file.rel.clone(),
                        line: lineno,
                        col: pos + 1,
                        message: format!(
                            "`{name}` is HashMap/HashSet-typed and `for … in` visits it in hash order"
                        ),
                        help: "use a BTreeMap/BTreeSet (or collect and sort) so iteration \
                               order is stable; if order provably cannot matter here, justify \
                               with `// lint: sorted <why>`"
                            .into(),
                    });
                }
            }
        }
    }
}

/// Byte offset just past `in ` of a `for … in ` construct, if any.
fn find_for_in(line: &str) -> Option<usize> {
    let for_at = line.find("for ")?;
    if !is_word_boundary(line, for_at, 3) {
        return None;
    }
    let in_rel = line[for_at..].find(" in ")?;
    Some(for_at + in_rel + 4)
}

/// `no-wall-clock`: `SystemTime::now` / `Instant::now` outside the bench
/// harness paths. Wall-clock reads make replays and differential tests
/// diverge; deterministic code takes time as data.
pub fn no_wall_clock(file: &SourceFile, config: &Config, out: &mut Vec<Diagnostic>) {
    if Config::under(&file.rel, &config.wall_clock_allowed) {
        return;
    }
    scan_tokens(
        file,
        &["SystemTime::now", "Instant::now"],
        out,
        "no-wall-clock",
        |token| format!("`{token}` reads the wall clock in deterministic code"),
        "inject time as data (SimTime) or move the timing into crates/bench; \
         justify exceptions with `// lint: allow(no-wall-clock) <why>`",
    );
}

/// `no-unseeded-rng`: RNG constructed from ambient entropy. Every random
/// stream in this workspace must be reproducible from an explicit seed.
pub fn no_unseeded_rng(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    scan_tokens(
        file,
        &["from_entropy", "thread_rng", "OsRng", "rand::random"],
        out,
        "no-unseeded-rng",
        |token| format!("`{token}` draws ambient entropy; runs become unreproducible"),
        "construct RNGs with an explicit seed (seed_from_u64 / from_seed); justify \
         exceptions with `// lint: allow(no-unseeded-rng) <why>`",
    );
}

/// `no-raw-spawn`: `thread::spawn` / `thread::scope` outside the blessed
/// worker-pool modules. Ad-hoc threads bypass the deterministic work-queue
/// discipline the model checker verifies.
pub fn no_raw_spawn(file: &SourceFile, config: &Config, out: &mut Vec<Diagnostic>) {
    if Config::under(&file.rel, &config.raw_spawn_allowed) {
        return;
    }
    scan_tokens(
        file,
        &["thread::spawn", "thread::scope"],
        out,
        "no-raw-spawn",
        |token| format!("`{token}` outside a blessed worker-pool module"),
        "route the work through the chunk work queue (ssfa::workqueue) or bless the \
         module in lint.toml `raw_spawn_allowed` with a reason",
    );
}

/// `no-float-keys`: ordering floats via `partial_cmp(..).unwrap()` (or
/// `.expect`). NaN panics aside, `partial_cmp` invites copy-paste into
/// contexts where the comparator disagrees with itself; `f64::total_cmp`
/// is total, panic-free, and IEEE-754-ordered.
pub fn no_float_keys(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in file.stripped.code.lines().enumerate() {
        if let Some(at) = line.find("partial_cmp") {
            let tail = &line[at..];
            if tail.contains(".unwrap()") || tail.contains(".expect(") {
                out.push(Diagnostic {
                    rule: "no-float-keys",
                    level: Level::Error,
                    path: file.rel.clone(),
                    line: i + 1,
                    col: at + 1,
                    message: "float ordering via `partial_cmp(..).unwrap()`".into(),
                    help: "use `f64::total_cmp` (total, panic-free); justify exceptions \
                           with `// lint: allow(no-float-keys) <why>`"
                        .into(),
                });
            }
        }
    }
}

/// `unsafe-inventory`: every `unsafe` token needs a `// SAFETY:` comment
/// within the three lines above it (or on its own line). Justified sites
/// land in the machine-readable inventory; unjustified ones are findings.
pub fn unsafe_inventory(
    file: &SourceFile,
    out: &mut Vec<Diagnostic>,
    inventory: &mut Vec<UnsafeSite>,
) {
    for (i, line) in file.stripped.code.lines().enumerate() {
        let lineno = i + 1;
        let mut from = 0;
        while let Some(pos) = line[from..].find("unsafe") {
            let at = from + pos;
            from = at + "unsafe".len();
            if !is_word_boundary(line, at, "unsafe".len()) {
                continue;
            }
            let safety = (lineno.saturating_sub(3)..=lineno)
                .flat_map(|l| file.stripped.comments_on(l))
                .find(|c| c.text.contains("SAFETY:"))
                .map(|c| {
                    c.text
                        .trim_start_matches('/')
                        .trim_start_matches('*')
                        .trim()
                        .to_string()
                });
            match safety {
                Some(text) => inventory.push(UnsafeSite {
                    path: file.rel.clone(),
                    line: lineno,
                    safety: text,
                }),
                None => out.push(Diagnostic {
                    rule: "unsafe-inventory",
                    level: Level::Error,
                    path: file.rel.clone(),
                    line: lineno,
                    col: at + 1,
                    message: "`unsafe` without a `// SAFETY:` justification".into(),
                    help: "add a `// SAFETY: <invariant and why it holds>` comment on or \
                           directly above the unsafe block"
                        .into(),
                }),
            }
        }
    }
}

/// Shared token scanner for the substring-match rules.
fn scan_tokens(
    file: &SourceFile,
    tokens: &[&str],
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    message: impl Fn(&str) -> String,
    help: &str,
) {
    for (i, line) in file.stripped.code.lines().enumerate() {
        for token in tokens {
            let mut from = 0;
            while let Some(pos) = line[from..].find(token) {
                let at = from + pos;
                from = at + token.len();
                if !is_word_boundary(line, at, token.len()) {
                    continue;
                }
                out.push(Diagnostic {
                    rule,
                    level: Level::Error,
                    path: file.rel.clone(),
                    line: i + 1,
                    col: at + 1,
                    message: message(token),
                    help: help.into(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            stripped: strip(src),
        }
    }

    #[test]
    fn hash_decl_index_sees_fields_lets_and_params() {
        let f = file(
            "crates/core/src/x.rs",
            "struct S { by_id: HashMap<u32, u64> }\n\
             fn g(cache: &HashSet<u32>) {}\n\
             fn h() { let mut tally = HashMap::new(); }\n",
        );
        let index = HashNameIndex::build(&[f]);
        assert!(index.contains("by_id"));
        assert!(index.contains("cache"));
        assert!(index.contains("tally"));
        assert!(!index.contains("u32"));
    }

    #[test]
    fn names_also_declared_with_ordered_types_are_ambiguous() {
        let hashy = file(
            "crates/core/src/a.rs",
            "struct A { counts: HashMap<u32, u32>, spread: HashMap<u32, f64> }\n",
        );
        let ordered = file(
            "crates/model/src/b.rs",
            "struct B { counts: [u64; 4] }\n\
             fn g() { let totals: Vec<u64> = Vec::new(); }\n\
             fn h() { let mut hist = [0usize; 6]; }\n",
        );
        let index = HashNameIndex::build(&[hashy, ordered]);
        // `counts` is a HashMap in one file but a fixed array in another:
        // ambiguous, dropped so array iteration is not flagged.
        assert!(!index.contains("counts"));
        assert!(!index.contains("hist"));
        // `spread` is only ever hash-typed: stays indexed.
        assert!(index.contains("spread"));
    }

    #[test]
    fn iteration_of_indexed_name_is_flagged_even_cross_file() {
        let decl = file(
            "crates/model/src/x.rs",
            "pub struct T { pub m: HashMap<u32, u32> }\n",
        );
        let uses = file(
            "crates/core/src/y.rs",
            "fn f(t: &T) { for v in t.m.values() { use_it(v); } }\n",
        );
        let index = HashNameIndex::build(&[decl, uses]);
        let uses = file(
            "crates/core/src/y.rs",
            "fn f(t: &T) { for v in t.m.values() { use_it(v); } }\n",
        );
        let mut out = Vec::new();
        no_hashmap_iter(&uses, &index, &Config::default(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "no-hashmap-iter");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn btreemap_with_same_usage_is_clean() {
        let f = file(
            "crates/core/src/y.rs",
            "fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); for v in m.values() {} }\n",
        );
        let index = HashNameIndex::build(&[f]);
        let f = file(
            "crates/core/src/y.rs",
            "fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); for v in m.values() {} }\n",
        );
        let mut out = Vec::new();
        no_hashmap_iter(&f, &index, &Config::default(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn wall_clock_in_string_literal_is_not_flagged() {
        let f = file(
            "src/lib.rs",
            "fn f() { let s = \"Instant::now\"; } // Instant::now in comment\n",
        );
        let mut out = Vec::new();
        no_wall_clock(&f, &Config::default(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unsafe_without_safety_is_flagged_with_safety_is_inventoried() {
        let f = file(
            "src/lib.rs",
            "fn f() { unsafe { a() } }\n\
             // SAFETY: b is sound because reasons.\n\
             fn g() { unsafe { b() } }\n",
        );
        let mut out = Vec::new();
        let mut inv = Vec::new();
        unsafe_inventory(&f, &mut out, &mut inv);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].line, 3);
        assert!(inv[0].safety.contains("reasons"));
    }

    #[test]
    fn suppression_comment_on_line_or_above_works() {
        let f = file(
            "src/lib.rs",
            "// lint: allow(no-raw-spawn) test fixture\n\
             fn f() { std::thread::spawn(|| {}); }\n\
             fn g() { std::thread::spawn(|| {}); } // lint: allow(no-raw-spawn) same line\n\
             fn h() { std::thread::spawn(|| {}); }\n",
        );
        assert!(suppressed(&f, "no-raw-spawn", 2));
        assert!(suppressed(&f, "no-raw-spawn", 3));
        assert!(!suppressed(&f, "no-raw-spawn", 4));
    }
}
