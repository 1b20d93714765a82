//! The determinism-contract rules (DESIGN.md §10) and the line-aware
//! engine that applies them to one scrubbed source file.
//!
//! Every rule is named, numbered, and carries an escape hatch: a
//! `// xlint: allow(<slug>, <reason>)` annotation on the offending line
//! (or on its own line directly above) suppresses the diagnostic — the
//! reason is mandatory, and a malformed annotation is itself an error.

use crate::lexer::{scrub, ScrubbedLine};
use std::fmt;

/// How many lines above an `unsafe` token the engine searches for a
/// `// SAFETY:` comment (D4). Wide enough for a multi-line statement
/// whose justification sits above the statement head; narrow enough that
/// one comment cannot silently cover an unrelated site.
const SAFETY_LOOKBACK: usize = 12;

/// A named determinism-contract rule. The `D<n>` ids match DESIGN.md §10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: no `HashMap`/`HashSet` *iteration* in algorithm crates.
    HashIter,
    /// D2: no thread spawning outside `pram::pool` and `xbench`.
    ThreadSpawn,
    /// D3: no wall-clock reads in algorithm crates.
    WallClock,
    /// D4: every `unsafe` must sit under a `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// D5: no bare floating-point `sum`/`fold` reductions in algorithm
    /// crates (outside the pool's order-fixed merge primitives).
    FloatFold,
    /// D6: no ambient thread-count/environment reads in library crates.
    AmbientThreads,
    /// A0: an `xlint:` annotation that does not parse, names an unknown
    /// rule, or omits the reason.
    MalformedAllow,
}

/// Every real rule, in id order (excludes [`Rule::MalformedAllow`], which
/// is annotation hygiene rather than a contract rule).
pub const ALL_RULES: [Rule; 6] = [
    Rule::HashIter,
    Rule::ThreadSpawn,
    Rule::WallClock,
    Rule::UndocumentedUnsafe,
    Rule::FloatFold,
    Rule::AmbientThreads,
];

impl Rule {
    /// The `D<n>` id used in diagnostics and the DESIGN.md §10 table.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIter => "D1",
            Rule::ThreadSpawn => "D2",
            Rule::WallClock => "D3",
            Rule::UndocumentedUnsafe => "D4",
            Rule::FloatFold => "D5",
            Rule::AmbientThreads => "D6",
            Rule::MalformedAllow => "A0",
        }
    }

    /// The slug accepted by `// xlint: allow(<slug>, <reason>)`.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::WallClock => "wall-clock",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::FloatFold => "float-fold",
            Rule::AmbientThreads => "ambient-threads",
            Rule::MalformedAllow => "malformed-allow",
        }
    }

    fn from_slug(slug: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.slug() == slug)
    }

    /// One-line rationale, shown with every diagnostic.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::HashIter => {
                "hash iteration order is nondeterministic; iterate a sorted \
                 structure (BTreeMap/sorted Vec) instead — keyed lookup is fine"
            }
            Rule::ThreadSpawn => {
                "all parallelism must flow through pram::pool's deterministic \
                 chunked rounds (DESIGN.md \u{a7}5)"
            }
            Rule::WallClock => "algorithm crates must be schedule-blind; timing lives in xbench",
            Rule::UndocumentedUnsafe => {
                "every unsafe site carries a // SAFETY: comment stating the \
                 invariant that makes it sound"
            }
            Rule::FloatFold => {
                "f64 addition is non-associative, so a bare sum/fold leaks chunk \
                 boundaries into results; use the pool's order-fixed merges"
            }
            Rule::AmbientThreads => {
                "execution-time reads of ambient thread counts break the \
                 explicit-Executor contract (DESIGN.md \u{a7}5)"
            }
            Rule::MalformedAllow => {
                "xlint annotations are machine-read; the grammar is \
                 `xlint: allow(<slug>, <reason>)` with a non-empty reason"
            }
        }
    }
}

/// One finding: where, which rule, and what matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// What was found on the line.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "error[{}/{}]: {}",
            self.rule.id(),
            self.rule.slug(),
            self.message
        )?;
        writeln!(f, "  --> {}:{}", self.path, self.line)?;
        write!(f, "   = note: {}", self.rule.rationale())
    }
}

/// The rule scope a file falls into, derived from its workspace-relative
/// path. Rules D1/D3/D5/D6 apply to the four algorithm crates' library
/// code; D2 applies everywhere except the two sanctioned spawn sites;
/// D4 applies to every scanned file.
#[derive(Debug, Clone, Copy)]
struct Scope {
    /// `crates/{pram,hopset,pgraph,sssp}/src/**`.
    algo: bool,
    /// Anywhere under `crates/xbench/` (the measurement harness may
    /// spawn load-generator threads and read clocks).
    xbench: bool,
    /// `crates/pram/src/pool.rs` — defines the runtime, so it is the one
    /// library file allowed to spawn threads and read ambient knobs.
    pool: bool,
    /// `crates/pram/src/prim.rs` — the pool's order-fixed merge
    /// primitives (exempt from D5 so they can host the sanctioned
    /// reductions).
    merge_prims: bool,
    /// Integration tests / benches / examples: scheduling scaffolding is
    /// legitimate there (D2/D3/D5/D6 skip; D4 still applies).
    test_path: bool,
}

impl Scope {
    fn from_path(path: &str) -> Scope {
        let p = path.replace('\\', "/");
        let algo = ["pram", "hopset", "pgraph", "sssp"]
            .iter()
            .any(|c| p.starts_with(&format!("crates/{c}/src/")));
        Scope {
            algo,
            xbench: p.starts_with("crates/xbench/"),
            pool: p == "crates/pram/src/pool.rs",
            merge_prims: p == "crates/pram/src/prim.rs",
            test_path: ["/tests/", "/benches/", "/examples/"]
                .iter()
                .any(|d| p.contains(d))
                || p.starts_with("tests/")
                || p.starts_with("benches/")
                || p.starts_with("examples/"),
        }
    }
}

/// Lint one file's source. `rel_path` is the workspace-relative path and
/// selects which rules apply (see the scope table in the crate docs).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let lines = scrub(src);
    let scope = Scope::from_path(rel_path);
    let in_test = test_region_mask(&lines);
    let (allows, mut diags) = collect_allows(rel_path, &lines);

    let hash_idents = if scope.algo {
        collect_hash_idents(&lines)
    } else {
        Vec::new()
    };

    let mut emit = |line_no: usize, rule: Rule, message: String| {
        let allowed = allows
            .get(&line_no)
            .is_some_and(|slugs| slugs.iter().any(|s| s == rule.slug()));
        if !allowed {
            diags.push(Diagnostic {
                path: rel_path.to_string(),
                line: line_no + 1,
                rule,
                message,
            });
        }
    };

    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let lib_code = !scope.test_path && !in_test[i];

        // D1 — hash iteration in algorithm crates.
        if scope.algo && lib_code {
            if let Some(m) = find_hash_iteration(code, &hash_idents) {
                emit(i, Rule::HashIter, m);
            }
        }

        // D2 — thread spawning outside pool/xbench.
        if !scope.pool && !scope.xbench && lib_code {
            for pat in ["thread::spawn", "thread::Builder", "thread::scope"] {
                if code.contains(pat) {
                    emit(
                        i,
                        Rule::ThreadSpawn,
                        format!("`{pat}` outside `pram::pool`/`xbench`"),
                    );
                }
            }
        }

        // D3 — wall-clock reads in algorithm crates.
        if scope.algo && lib_code {
            for pat in ["Instant", "SystemTime"] {
                if find_word(code, pat).is_some() {
                    emit(i, Rule::WallClock, format!("`{pat}` in an algorithm crate"));
                }
            }
        }

        // D4 — undocumented unsafe (all scanned files).
        if find_word(code, "unsafe").is_some() {
            let covered = lines[i.saturating_sub(SAFETY_LOOKBACK)..=i]
                .iter()
                .any(|l| l.comment.contains("SAFETY:"));
            if !covered {
                emit(
                    i,
                    Rule::UndocumentedUnsafe,
                    "`unsafe` with no `// SAFETY:` comment in the preceding lines".to_string(),
                );
            }
        }

        // D5 — bare floating-point reductions in algorithm crates.
        if scope.algo && lib_code && !scope.pool && !scope.merge_prims {
            if let Some(m) = find_float_fold(code) {
                emit(i, Rule::FloatFold, m);
            }
        }

        // D6 — ambient thread-count/env reads in library crates. Plain
        // `use` re-exports are declarations, not reads.
        if scope.algo && lib_code && !scope.pool {
            let t = code.trim_start();
            if !t.starts_with("use ") && !t.starts_with("pub use ") {
                for pat in [
                    "Executor::current",
                    "Executor::default",
                    "current_threads",
                    "with_threads",
                    "set_global_threads",
                    "threads_from_env",
                    "env::var",
                ] {
                    if code.contains(pat) {
                        emit(
                            i,
                            Rule::AmbientThreads,
                            format!("ambient execution-state read `{pat}` in a library crate"),
                        );
                    }
                }
            }
        }
    }

    diags.sort_by_key(|a| (a.line, a.rule));
    diags
}

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

/// Parse every `xlint: allow(slug, reason)` annotation. Returns a map
/// from the line the annotation *applies to* (its own line if it shares
/// it with code, otherwise the next code-bearing line) to the allowed
/// slugs, plus diagnostics for malformed annotations.
#[allow(clippy::type_complexity)]
fn collect_allows(
    rel_path: &str,
    lines: &[ScrubbedLine],
) -> (
    std::collections::BTreeMap<usize, Vec<String>>,
    Vec<Diagnostic>,
) {
    let mut map: std::collections::BTreeMap<usize, Vec<String>> = Default::default();
    let mut diags = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        // An annotation is a comment that *starts with* `xlint:` (after
        // whitespace): `// xlint: allow(..)`. Mentions of the grammar
        // mid-prose (or in doc comments, whose text starts with `/` or
        // `!`) are not annotations.
        let Some(body) = line.comment.trim_start().strip_prefix("xlint:") else {
            continue;
        };
        let body = body.trim_start();
        let slug = match parse_allow(body) {
            Ok(slug) => slug,
            Err(why) => {
                diags.push(Diagnostic {
                    path: rel_path.to_string(),
                    line: i + 1,
                    rule: Rule::MalformedAllow,
                    message: why,
                });
                continue;
            }
        };
        // Attach: same line if it carries code, else the next code line.
        let target = if line.code.trim().is_empty() {
            lines[i + 1..]
                .iter()
                .position(|l| !l.code.trim().is_empty())
                .map(|off| i + 1 + off)
        } else {
            Some(i)
        };
        if let Some(t) = target {
            map.entry(t).or_default().push(slug);
        }
    }
    (map, diags)
}

/// Parse `allow(<slug>, <reason>)`; returns the slug or an error message.
fn parse_allow(body: &str) -> Result<String, String> {
    let Some(args) = body.strip_prefix("allow(") else {
        return Err("expected `allow(<slug>, <reason>)` after `xlint:`".to_string());
    };
    let Some(close) = args.find(')') else {
        return Err("unclosed `allow(` annotation".to_string());
    };
    let inner = &args[..close];
    let Some((slug, reason)) = inner.split_once(',') else {
        return Err(format!(
            "`allow({inner})` has no reason — the reason is mandatory"
        ));
    };
    let slug = slug.trim();
    if Rule::from_slug(slug).is_none() {
        let known: Vec<&str> = ALL_RULES.iter().map(|r| r.slug()).collect();
        return Err(format!(
            "unknown rule `{slug}` (known: {})",
            known.join(", ")
        ));
    }
    if reason.trim().is_empty() {
        return Err(format!("`allow({slug}, )` has an empty reason"));
    }
    Ok(slug.to_string())
}

// ---------------------------------------------------------------------------
// Test-region tracking
// ---------------------------------------------------------------------------

/// Mark the lines belonging to `#[cfg(test)]` / `#[test]` items: the
/// attribute line, any further attribute lines, and the item's whole
/// brace block. Determined purely from scrubbed code (brace counting),
/// so strings and comments cannot confuse it.
fn test_region_mask(lines: &[ScrubbedLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth: i64 = 0;
    // Depth at which an active test region ends, if any.
    let mut region_floor: Option<i64> = None;
    let mut pending_attr = false;
    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let is_test_attr = code.contains("#[cfg(test)]")
            || code.contains("#[cfg(all(test")
            || code.contains("#[cfg(any(test")
            || code.contains("#[test]");

        if region_floor.is_none() {
            if is_test_attr {
                pending_attr = true;
            }
            if pending_attr {
                mask[i] = true;
                if code.contains('{') {
                    // The item body opens here; region lasts until depth
                    // returns to its pre-line value.
                    region_floor = Some(depth);
                    pending_attr = false;
                } else if code.contains(';') && !is_test_attr {
                    // Braceless item (e.g. `#[cfg(test)] mod tests;`).
                    pending_attr = false;
                }
            }
        } else {
            mask[i] = true;
        }

        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some(floor) = region_floor {
            if depth <= floor {
                region_floor = None;
            }
        }
    }
    mask
}

// ---------------------------------------------------------------------------
// D1 helpers
// ---------------------------------------------------------------------------

/// Identifiers bound to a `HashMap`/`HashSet` anywhere in the file: `let`
/// bindings, fn parameters, and struct fields whose type names one.
fn collect_hash_idents(lines: &[ScrubbedLine]) -> Vec<String> {
    let mut idents: Vec<String> = Vec::new();
    for line in lines {
        let code = line.code.as_str();
        let has_hash = find_word(code, "HashMap").is_some() || find_word(code, "HashSet").is_some();
        if !has_hash {
            continue;
        }
        // `let [mut] name … = HashMap::…` / `let name: HashSet<…> = …`.
        if let Some(pos) = find_word(code, "let") {
            let rest = code[pos + 3..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            if let Some(name) = leading_ident(rest) {
                idents.push(name.to_string());
            }
        }
        // `name: [&[mut]] [path::]Hash{Map,Set}<…>` (params and fields).
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0usize;
            while let Some(off) = find_word(&code[from..], ty) {
                let pos = from + off;
                if let Some(name) = binding_before_type(&code[..pos]) {
                    idents.push(name);
                }
                from = pos + ty.len();
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// Given text ending just before a `HashMap`/`HashSet` token, walk back
/// over the type path / reference sigils to the `:` and return the bound
/// identifier, if the shape matches `name: &mut path::` etc.
fn binding_before_type(before: &str) -> Option<String> {
    let mut s = before.trim_end();
    // Strip path segments: `std::collections::`.
    while let Some(stripped) = s.strip_suffix("::") {
        let t = stripped.trim_end_matches(|c: char| c.is_alphanumeric() || c == '_');
        s = t;
    }
    let s = s.trim_end();
    let s = s.strip_suffix("mut").map(str::trim_end).unwrap_or(s);
    let s = s.trim_end_matches('&').trim_end();
    let s = s.strip_suffix(':')?;
    // Reject `::` (path, not a binding) — already stripped above, so a
    // remaining ':' means a second colon.
    if s.ends_with(':') {
        return None;
    }
    let s = s.trim_end();
    let name = trailing_ident(s)?;
    Some(name.to_string())
}

/// Detect iteration over any tracked hash identifier on one line, or
/// inline iteration over a constructed hash value.
fn find_hash_iteration(code: &str, idents: &[String]) -> Option<String> {
    const ITER_METHODS: [&str; 10] = [
        ".iter()",
        ".iter_mut()",
        ".into_iter()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_keys()",
        ".into_values()",
        ".drain(",
        ".retain(",
    ];
    for ident in idents {
        let mut from = 0usize;
        while let Some(off) = find_word(&code[from..], ident) {
            let pos = from + off;
            let after = &code[pos + ident.len()..];
            if let Some(m) = ITER_METHODS.iter().find(|m| after.starts_with(**m)) {
                return Some(format!("hash structure `{ident}` iterated via `{m}`"));
            }
            let before = code[..pos].trim_end();
            let for_loop = before.ends_with(" in")
                || before.ends_with(" in &")
                || before.ends_with(" in &mut")
                || before == "in";
            if for_loop {
                return Some(format!("hash structure `{ident}` iterated by a `for` loop"));
            }
            if before.ends_with(".extend(") || before.ends_with(".extend(&") {
                return Some(format!(
                    "hash structure `{ident}` drained into another collection via `.extend`"
                ));
            }
            from = pos + ident.len();
        }
    }
    // Inline: `for x in HashSet::from(…)` — no binding to track.
    if find_word(code, "for").is_some()
        && find_word(code, "in").is_some()
        && (find_word(code, "HashMap").is_some() || find_word(code, "HashSet").is_some())
    {
        return Some("`for` loop over an inline-constructed hash structure".to_string());
    }
    None
}

// ---------------------------------------------------------------------------
// D5 helper
// ---------------------------------------------------------------------------

/// Bare floating-point reductions: an explicit f32/f64 `sum`/`product`
/// turbofish, or a `fold` seeded with a float literal / float constant.
fn find_float_fold(code: &str) -> Option<String> {
    for pat in [
        "sum::<f64>",
        "sum::<f32>",
        "product::<f64>",
        "product::<f32>",
    ] {
        if code.contains(pat) {
            return Some(format!("floating-point reduction `{pat}`"));
        }
    }
    let mut from = 0usize;
    while let Some(off) = code[from..].find(".fold(") {
        let pos = from + off;
        let arg = code[pos + ".fold(".len()..].trim_start();
        let arg = arg.strip_prefix('-').unwrap_or(arg);
        if arg.starts_with("f64::") || arg.starts_with("f32::") || is_float_literal_head(arg) {
            return Some("`.fold` seeded with a floating-point accumulator".to_string());
        }
        from = pos + ".fold(".len();
    }
    None
}

/// Does `s` begin with a float literal (`0.0`, `1.5e3`, `0f64`, `2_f32`)?
fn is_float_literal_head(s: &str) -> bool {
    let digits = s.len()
        - s.trim_start_matches(|c: char| c.is_ascii_digit() || c == '_')
            .len();
    if digits == 0 {
        return false;
    }
    let rest = &s[digits..];
    rest.starts_with("f64") || rest.starts_with("f32") || {
        rest.starts_with('.') && rest[1..].starts_with(|c: char| c.is_ascii_digit())
    }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// First occurrence of `word` in `code` with non-identifier characters
/// (or the text boundary) on both sides.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(off) = code[from..].find(word) {
        let pos = from + off;
        let left_ok = pos == 0 || !code[..pos].chars().next_back().is_some_and(is_ident_char);
        let right_ok = !code[pos + word.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if left_ok && right_ok {
            return Some(pos);
        }
        from = pos + word.len();
    }
    None
}

/// The identifier at the start of `s`, if any.
fn leading_ident(s: &str) -> Option<&str> {
    let end = s
        .char_indices()
        .find(|&(_, c)| !is_ident_char(c))
        .map_or(s.len(), |(i, _)| i);
    (end > 0 && !s.starts_with(|c: char| c.is_ascii_digit())).then(|| &s[..end])
}

/// The identifier at the end of `s`, if any.
fn trailing_ident(s: &str) -> Option<&str> {
    let start = s
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident_char(c))
        .last()
        .map(|(i, _)| i)?;
    let ident = &s[start..];
    (!ident.is_empty() && !ident.starts_with(|c: char| c.is_ascii_digit())).then_some(ident)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALGO: &str = "crates/hopset/src/somefile.rs";

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src)
            .into_iter()
            .map(|d| d.rule.id())
            .collect()
    }

    #[test]
    fn keyed_lookup_is_clean_but_iteration_is_not() {
        let keyed = "fn f() {\n    let mut m = std::collections::HashMap::new();\n    m.insert(1, 2);\n    let x = m[&1] + m.get(&2).unwrap();\n}\n";
        assert!(rules_hit(ALGO, keyed).is_empty());
        let iterated = "fn f() {\n    let mut m = std::collections::HashMap::new();\n    m.insert(1, 2);\n    for (k, v) in m.iter() { dbg(k, v); }\n}\n";
        assert_eq!(rules_hit(ALGO, iterated), vec!["D1"]);
    }

    #[test]
    fn for_loop_over_hash_param_is_flagged() {
        let src = "fn f(seen: &std::collections::HashSet<u32>) {\n    for v in seen { g(v); }\n}\n";
        assert_eq!(rules_hit(ALGO, src), vec!["D1"]);
        let contains_only =
            "fn f(seen: &std::collections::HashSet<u32>) {\n    if seen.contains(&3) { g(); }\n}\n";
        assert!(rules_hit(ALGO, contains_only).is_empty());
    }

    #[test]
    fn collect_into_hash_set_is_clean() {
        // The `.iter()` belongs to the slice, not the set: keyed use only.
        let src = "fn f(u: &[u32]) {\n    let in_u: std::collections::HashSet<u32> = u.iter().copied().collect();\n    let _ = in_u.contains(&1);\n}\n";
        assert!(rules_hit(ALGO, src).is_empty());
    }

    #[test]
    fn spawn_flagged_everywhere_but_pool_xbench_and_tests() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_hit(ALGO, src), vec!["D2"]);
        assert_eq!(rules_hit("src/lib.rs", src), vec!["D2"]);
        assert!(rules_hit("crates/pram/src/pool.rs", src).is_empty());
        assert!(rules_hit("crates/xbench/src/exp_serve.rs", src).is_empty());
        assert!(rules_hit("tests/serving.rs", src).is_empty());
        let in_test_mod =
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| {}); }\n}\n";
        assert!(rules_hit(ALGO, in_test_mod).is_empty());
    }

    #[test]
    fn code_after_test_mod_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| {}); }\n}\nfn g() { std::thread::spawn(|| {}); }\n";
        let d = lint_source(ALGO, src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn wall_clock_in_algo_crate() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules_hit(ALGO, src), vec!["D3"]);
        assert!(rules_hit("crates/xbench/src/table.rs", src).is_empty());
    }

    #[test]
    fn undocumented_unsafe_and_the_safety_escape() {
        let bad = "fn f(p: *mut u8) { unsafe { *p = 0 }; }\n";
        assert_eq!(rules_hit(ALGO, bad), vec!["D4"]);
        let good = "fn f(p: *mut u8) {\n    // SAFETY: p is valid for writes by contract.\n    unsafe { *p = 0 };\n}\n";
        assert!(rules_hit(ALGO, good).is_empty());
        // A SAFETY comment in a string must not count.
        let fake = "fn f(p: *mut u8) { let s = \"// SAFETY: no\"; unsafe { *p = 0 }; }\n";
        assert_eq!(rules_hit(ALGO, fake), vec!["D4"]);
    }

    #[test]
    fn float_folds() {
        assert_eq!(
            rules_hit(ALGO, "fn f(x: &[f64]) -> f64 { x.iter().sum::<f64>() }\n"),
            vec!["D5"]
        );
        assert_eq!(
            rules_hit(
                ALGO,
                "fn f(x: &[f64]) -> f64 { x.iter().fold(0.0, |a, b| a + b) }\n"
            ),
            vec!["D5"]
        );
        assert_eq!(
            rules_hit(
                ALGO,
                "fn f(x: &[f64]) -> f64 { x.iter().fold(f64::MIN, |a, &b| a.max(b)) }\n"
            ),
            vec!["D5"]
        );
        // Integer reductions are fine.
        assert!(rules_hit(ALGO, "fn f(x: &[u64]) -> u64 { x.iter().sum::<u64>() }\n").is_empty());
        assert!(rules_hit(
            ALGO,
            "fn f(x: &[u64]) -> u64 { x.iter().fold(0u64, |a, b| a + b) }\n"
        )
        .is_empty());
        // The pool's merge primitives host the sanctioned reductions.
        assert!(rules_hit(
            "crates/pram/src/prim.rs",
            "fn f(x: &[f64]) -> f64 { x.iter().sum::<f64>() }\n"
        )
        .is_empty());
    }

    #[test]
    fn ambient_reads() {
        let src = "fn f() { let e = Executor::current(); }\n";
        assert_eq!(rules_hit(ALGO, src), vec!["D6"]);
        assert!(rules_hit("crates/pram/src/pool.rs", src).is_empty());
        // Re-exports are declarations, not reads.
        assert!(rules_hit(ALGO, "pub use pool::{current_threads, with_threads};\n").is_empty());
        assert_eq!(
            rules_hit(ALGO, "fn f() { let v = std::env::var(\"X\"); }\n"),
            vec!["D6"]
        );
        // The one sanctioned env read belongs to binaries, benches and
        // tests: a library crate calling it picks its own thread count.
        let env_count = "fn f() { let t = pram::pool::threads_from_env(); }\n";
        assert_eq!(rules_hit(ALGO, env_count), vec!["D6"]);
        assert!(rules_hit("crates/sssp/tests/t.rs", env_count).is_empty());
    }

    #[test]
    fn allow_annotations_suppress_with_reason() {
        let same_line = "fn f() { let e = Executor::current(); } // xlint: allow(ambient-threads, legacy wrapper)\n";
        assert!(rules_hit(ALGO, same_line).is_empty());
        let line_above = "fn f() {\n    // xlint: allow(ambient-threads, legacy wrapper)\n    let e = Executor::current();\n}\n";
        assert!(rules_hit(ALGO, line_above).is_empty());
        // Wrong slug does not suppress.
        let wrong = "fn f() {\n    // xlint: allow(hash-iter, wrong rule)\n    let e = Executor::current();\n}\n";
        assert_eq!(rules_hit(ALGO, wrong), vec!["D6"]);
    }

    #[test]
    fn malformed_allows_are_errors() {
        assert_eq!(
            rules_hit(ALGO, "// xlint: allow(ambient-threads)\nfn f() {}\n"),
            vec!["A0"]
        );
        assert_eq!(
            rules_hit(ALGO, "// xlint: allow(no-such-rule, reason)\nfn f() {}\n"),
            vec!["A0"]
        );
        assert_eq!(
            rules_hit(ALGO, "// xlint: allos(x, y)\nfn f() {}\n"),
            vec!["A0"]
        );
    }

    #[test]
    fn display_is_rustc_style() {
        let d = lint_source(ALGO, "fn f() { std::thread::spawn(|| {}); }\n");
        let s = d[0].to_string();
        assert!(s.starts_with("error[D2/thread-spawn]:"), "{s}");
        assert!(s.contains(&format!("--> {ALGO}:1")), "{s}");
    }
}
