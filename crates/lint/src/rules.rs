//! The rule set, pragma validation, and the Rust-token rule pass.
//!
//! Each rule defends one leg of the repo's scientific claim:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-wall-clock` | experiments run in pure virtual time |
//! | `no-random-state-map` | figure tables are byte-identical run to run |
//! | `no-env-read` | a run is a pure function of its seeds, not ambient host state |
//! | `no-unseeded-entropy` | every random stream is derived from an explicit seed |
//! | `rng-domain-separation` | every derived RNG stream has a unique seeding domain |
//! | `unsafe-requires-safety` | every `unsafe` block/impl argues its soundness in place |
//! | `panic-surface` | the hot-path crates' panic surface only ever shrinks |
//! | `dead-pragma` | the suppression surface carries no stale grants |
//!
//! The first four and `unsafe-requires-safety` are token rules over one
//! file. `rng-domain-separation` needs the whole workspace (the
//! orchestration in [`crate::lint_files`]), `panic-surface` ratchets
//! against a committed baseline ([`crate::baseline`]), and `dead-pragma`
//! runs after suppression, judging the pragmas themselves.
//!
//! Two invariants need no rule here. A registry dependency fails the
//! offline build and the lockfile test in `tests/kvlint_gate.rs`. A
//! library crate cannot call the sanctioned bench modules, because Cargo
//! rejects the dependency cycle; the same test catches any other crate
//! linking the bench crate.

use crate::lexer::{Lexed, Pragma, Tok, TokKind};
use crate::FileClass;

/// The rules kvlint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `std::time::{Instant, SystemTime}` outside the allowlisted bench
    /// timing module (`crates/bench/src/walltime.rs`).
    NoWallClock,
    /// `std::collections::{HashMap, HashSet}` (SipHash with a random
    /// seed — iteration order varies run to run) in library crates.
    NoRandomStateMap,
    /// `std::env::var`-family reads outside the bench config module
    /// (`crates/bench/src/lib.rs`).
    NoEnvRead,
    /// OS-entropy RNG constructors (`thread_rng`, `from_entropy`, ...).
    NoUnseededEntropy,
    /// The same `mix64(0x...)` seeding domain constant used at two
    /// sites: two "independent" RNG streams would be correlated.
    RngDomainSeparation,
    /// An `unsafe` block or `unsafe impl` without an adjacent
    /// `// SAFETY:` comment.
    UnsafeRequiresSafety,
    /// `.unwrap()` / `.expect()` / `panic!` / slice indexing in non-test
    /// code of the hot-path crates, over the committed baseline budget.
    PanicSurface,
    /// A valid `kvlint: allow` pragma that suppresses nothing.
    DeadPragma,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::NoWallClock,
        Rule::NoRandomStateMap,
        Rule::NoEnvRead,
        Rule::NoUnseededEntropy,
        Rule::RngDomainSeparation,
        Rule::UnsafeRequiresSafety,
        Rule::PanicSurface,
        Rule::DeadPragma,
    ];

    /// The rule's kebab-case name (as used in `kvlint: allow(...)`).
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoRandomStateMap => "no-random-state-map",
            Rule::NoEnvRead => "no-env-read",
            Rule::NoUnseededEntropy => "no-unseeded-entropy",
            Rule::RngDomainSeparation => "rng-domain-separation",
            Rule::UnsafeRequiresSafety => "unsafe-requires-safety",
            Rule::PanicSurface => "panic-surface",
            Rule::DeadPragma => "dead-pragma",
        }
    }

    /// Parses a rule name (for pragma validation).
    pub fn from_name(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }
}

/// Diagnostic category: a real rule, or a malformed suppression pragma
/// (itself an error — a typoed pragma must never silently un-suppress).
pub const BAD_PRAGMA: &str = "bad-pragma";

/// The crates whose panic surface is ratcheted: the ones on the
/// measured device/cluster/fabric path (both firmware personalities, the
/// flash substrate and NVMe link under them, and the simulation kernel
/// under everything) and the paper's RocksDB and Aerospike baselines
/// with the host stack, where a panic aborts an experiment mid-figure
/// instead of surfacing a typed error.
pub const HOT_PATH_CRATES: &[&str] = &[
    "crates/block-ftl/src/",
    "crates/core/src/",
    "crates/cluster/src/",
    "crates/fabric/src/",
    "crates/flash/src/",
    "crates/hash-store/src/",
    "crates/host-stack/src/",
    "crates/lsm-store/src/",
    "crates/nvme/src/",
    "crates/sim/src/",
];

/// Identifiers that construct OS-entropy RNG state.
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "getrandom",
];

/// `std::env` reader names.
const ENV_READ_FNS: &[&str] = &["var", "var_os", "vars", "vars_os"];

/// One finding, before path attachment.
#[derive(Debug, Clone)]
pub struct RawDiag {
    /// 1-based line.
    pub line: u32,
    /// Rule name, or [`BAD_PRAGMA`].
    pub rule: &'static str,
    /// Human explanation with the remedy.
    pub message: String,
}

/// Minimum justification length (characters after the separator) for a
/// suppression pragma. Short enough not to bureaucratize, long enough
/// that "ok" doesn't pass review.
pub const MIN_JUSTIFICATION: usize = 10;

/// Validates pragmas: returns the usable `(rule, line)` suppressions and
/// appends a [`BAD_PRAGMA`] diagnostic for each malformed one.
pub fn validate_pragmas(pragmas: &[Pragma], diags: &mut Vec<RawDiag>) -> Vec<(Rule, u32)> {
    let mut ok = Vec::new();
    for p in pragmas {
        match Rule::from_name(&p.rule) {
            None => diags.push(RawDiag {
                line: p.line,
                rule: BAD_PRAGMA,
                message: format!(
                    "`kvlint: allow({})` names an unknown rule; known rules: {}",
                    p.rule,
                    Rule::ALL.map(Rule::name).join(", ")
                ),
            }),
            Some(_) if p.justification.chars().count() < MIN_JUSTIFICATION => {
                diags.push(RawDiag {
                    line: p.line,
                    rule: BAD_PRAGMA,
                    message: format!(
                        "`kvlint: allow({})` must carry a justification (>= {MIN_JUSTIFICATION} \
                         chars after the rule), e.g. `// kvlint: allow({}) — why this is sound`",
                        p.rule, p.rule
                    ),
                });
            }
            Some(rule) => ok.push((rule, p.line)),
        }
    }
    ok
}

/// Applies suppressions: a pragma covers its own line and the line
/// immediately below it (so it can sit at end-of-line or on its own line
/// directly above the code it excuses). Returns (kept,
/// suppressed-counts as (rule-name, n) pairs, per-allow hit flags — the
/// hit flags feed [`dead_pragma_pass`]).
pub fn apply_suppressions(
    diags: Vec<RawDiag>,
    allows: &[(Rule, u32)],
) -> (Vec<RawDiag>, Vec<(&'static str, usize)>, Vec<bool>) {
    let mut kept = Vec::new();
    let mut suppressed: Vec<(&'static str, usize)> = Vec::new();
    let mut hits = vec![false; allows.len()];
    for d in diags {
        let mut hit = false;
        if d.rule != BAD_PRAGMA {
            for (i, (r, l)) in allows.iter().enumerate() {
                if r.name() == d.rule && (*l == d.line || l.checked_add(1) == Some(d.line)) {
                    hits[i] = true;
                    hit = true;
                }
            }
        }
        if hit {
            match suppressed.iter_mut().find(|(r, _)| *r == d.rule) {
                Some((_, n)) => *n += 1,
                None => suppressed.push((d.rule, 1)),
            }
        } else {
            kept.push(d);
        }
    }
    (kept, suppressed, hits)
}

/// The `dead-pragma` rule: runs after every suppression round for a
/// file, flagging valid pragmas that suppressed nothing — a stale grant
/// is free attack surface for the violation it once excused. A
/// `kvlint: allow(dead-pragma)` pragma covering the stale pragma's line
/// keeps a deliberately prophylactic pragma, and is itself marked live
/// by doing so. Returns the dead-pragma findings plus the number of
/// findings that were excused that way.
pub fn dead_pragma_pass(allows: &[(Rule, u32)], hits: &mut [bool]) -> (Vec<RawDiag>, usize) {
    let mut excused = vec![false; allows.len()];
    for i in 0..allows.len() {
        if hits[i] || excused[i] {
            continue;
        }
        let line = allows[i].1;
        if let Some(j) = (0..allows.len()).find(|&j| {
            j != i
                && allows[j].0 == Rule::DeadPragma
                && (allows[j].1 == line || allows[j].1.checked_add(1) == Some(line))
        }) {
            excused[i] = true;
            hits[j] = true;
        }
    }
    let mut out = Vec::new();
    let mut n_excused = 0usize;
    for (i, &(rule, line)) in allows.iter().enumerate() {
        if hits[i] {
            continue;
        }
        if excused[i] {
            n_excused += 1;
            continue;
        }
        out.push(RawDiag {
            line,
            rule: Rule::DeadPragma.name(),
            message: format!(
                "`kvlint: allow({})` suppresses nothing — delete it; a stale pragma is a \
                 standing grant for the next violation on this line",
                rule.name()
            ),
        });
    }
    (out, n_excused)
}

/// Line ranges (inclusive) covered by `#[cfg(test)]` items. Used to
/// exempt in-file test modules from the rules that exempt tests; the
/// workspace pass computes them once per file and hands them to each
/// such rule.
pub fn cfg_test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        let (end, is_test) = scan_attr(toks, i + 1);
        let mut j = end;
        if is_test {
            // Skip any further attributes between #[cfg(test)] and the item.
            while j + 1 < toks.len() && toks[j].is_punct("#") && toks[j + 1].is_punct("[") {
                let (e, _) = scan_attr(toks, j + 1);
                j = e;
            }
            // The attached item ends at its block's closing brace, or at
            // the `;` for block-less items (`mod tests;`, `use ...;`). A
            // field (`x: u64,`) ends at its comma outside parentheses, or
            // at the `}` that closes its struct.
            let mut parens = 0i64;
            while let Some(t) = toks.get(j) {
                let field_end = parens == 0 && t.is_punct(",");
                if t.is_punct("{") || t.is_punct(";") || t.is_punct("}") || field_end {
                    break;
                }
                parens += t.is_punct("(") as i64 - t.is_punct(")") as i64;
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct("{") {
                let mut depth = 0i64;
                while j < toks.len() {
                    if toks[j].is_punct("{") {
                        depth += 1;
                    } else if toks[j].is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
            }
            let end_line = toks.get(j).or(toks.last()).map_or(attr_line, |t| t.line);
            out.push((attr_line, end_line));
        }
        i = j.max(end);
    }
    out
}

/// Scans an attribute starting at its `[` token; returns (index just
/// past the matching `]`, whether the attribute is exactly `cfg(test)`).
/// The exact-sequence check deliberately does NOT match `cfg(not(test))`
/// or `cfg(any(test, ...))` — only plain `#[cfg(test)]` earns the test
/// exemption.
fn scan_attr(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0i64;
    let mut j = open;
    let mut is_test = false;
    while j < toks.len() {
        if toks[j].is_punct("[") {
            depth += 1;
        } else if toks[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (j + 1, is_test);
            }
        } else if toks[j].is_ident("cfg")
            && j + 3 < toks.len()
            && toks[j + 1].is_punct("(")
            && toks[j + 2].is_ident("test")
            && toks[j + 3].is_punct(")")
        {
            is_test = true;
        }
        j += 1;
    }
    (j, is_test)
}

fn in_regions(line: u32, regions: &[(u32, u32)]) -> bool {
    regions.iter().any(|&(a, b)| a <= line && line <= b)
}

/// Keywords that can directly precede `[` without being an indexable
/// expression — used to reject `let [a, b] = ...` patterns as index
/// sites.
const KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Runs every token rule over one lexed Rust file. `class` decides which
/// rules apply; `test_regions` are the file's [`cfg_test_regions`];
/// `wall_clock_allowed` / `env_read_allowed` are the per-file
/// path-allowlist decisions made by the caller.
pub fn check_tokens(
    lexed: &Lexed,
    test_regions: &[(u32, u32)],
    class: FileClass,
    wall_clock_allowed: bool,
    env_read_allowed: bool,
) -> Vec<RawDiag> {
    let mut diags = Vec::new();
    let toks = &lexed.toks;

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.s {
            "Instant" | "SystemTime" if !wall_clock_allowed => {
                diags.push(RawDiag {
                    line: t.line,
                    rule: Rule::NoWallClock.name(),
                    message: format!(
                        "`{}` is wall-clock: experiments run in virtual time (SimTime); host \
                         self-timing must go through kvssd_bench::walltime::Stopwatch",
                        t.s
                    ),
                });
            }
            "HashMap" | "HashSet" | "RandomState"
                if class == FileClass::LibrarySrc && !in_regions(t.line, test_regions) =>
            {
                diags.push(RawDiag {
                    line: t.line,
                    rule: Rule::NoRandomStateMap.name(),
                    message: format!(
                        "`{}` iterates in a randomized order (SipHash random state), which can \
                         leak into figure tables; use kvssd_sim::prehash::{{PrehashedMap, \
                         PrehashedSet}} or BTreeMap in library crates",
                        t.s
                    ),
                });
            }
            "env"
                if !env_read_allowed
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|n| {
                        ENV_READ_FNS.contains(&n.s) && n.kind == TokKind::Ident
                    }) =>
            {
                diags.push(RawDiag {
                    line: t.line,
                    rule: Rule::NoEnvRead.name(),
                    message: format!(
                        "`env::{}` reads ambient host state; route configuration through \
                         kvssd_bench::env_config so runs stay pure functions of their seeds",
                        toks[i + 2].s
                    ),
                });
            }
            s if ENTROPY_IDENTS.contains(&s) => {
                diags.push(RawDiag {
                    line: t.line,
                    rule: Rule::NoUnseededEntropy.name(),
                    message: format!(
                        "`{}` draws OS entropy; every random stream must derive from an explicit \
                         seed (kvssd_sim::DeterministicRng) so runs are reproducible",
                        t.s
                    ),
                });
            }
            _ => {}
        }
    }
    // One diagnostic per (rule, line): `pub fn now() -> Instant { Instant::now() }`
    // is one violation, not two.
    diags.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    diags
}

/// The `unsafe-requires-safety` rule: every `unsafe` block or
/// `unsafe impl` must have a `// SAFETY:` comment on its own line or in
/// the comment run directly above it. `unsafe fn` *declarations* are
/// exempt — the obligation sits at the unsafe *uses* inside them, which
/// are blocks and get checked.
pub fn check_unsafe_safety(lexed: &Lexed) -> Vec<RawDiag> {
    let covered = |line: u32| {
        lexed
            .comment_lines
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    };
    let safety = |line: u32| lexed.safety_lines.contains(&line);
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let form = match toks.get(i + 1) {
            Some(n) if n.is_punct("{") => "block",
            Some(n) if n.is_ident("impl") => "impl",
            _ => continue,
        };
        // Trailing `// SAFETY:` on the same line, or a comment run
        // walking upward from the line above that carries the marker.
        let mut ok = safety(t.line);
        let mut cur = t.line;
        while !ok && cur > 1 && covered(cur - 1) {
            cur -= 1;
            ok = safety(cur);
        }
        if !ok {
            out.push(RawDiag {
                line: t.line,
                rule: Rule::UnsafeRequiresSafety.name(),
                message: format!(
                    "`unsafe` {form} without an adjacent `// SAFETY:` comment; state the \
                     invariant that makes it sound directly above the `unsafe`",
                ),
            });
        }
    }
    out
}

/// The `panic-surface` token scan: `.unwrap()` / `.expect()` / `panic!`
/// / slice-indexing sites in non-test code of the hot-path crates
/// ([`HOT_PATH_CRATES`]). Counting (and the baseline ratchet) happens in
/// the orchestration layer; this returns one site per line.
pub fn check_panic_surface(
    lexed: &Lexed,
    test_regions: &[(u32, u32)],
    rel: &str,
    class: FileClass,
) -> Vec<RawDiag> {
    if class != FileClass::LibrarySrc || !HOT_PATH_CRATES.iter().any(|p| rel.starts_with(p)) {
        return Vec::new();
    }
    let toks = &lexed.toks;
    let mut diags: Vec<RawDiag> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_regions(t.line, test_regions) {
            continue;
        }
        let what = match t.kind {
            TokKind::Ident
                if matches!(t.s, "unwrap" | "expect")
                    && i > 0
                    && toks[i - 1].is_punct(".")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) =>
            {
                format!("`.{}()`", t.s)
            }
            TokKind::Ident
                if t.s == "panic" && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
            {
                "`panic!`".to_string()
            }
            // `x[i]` / `f()[i]` / `a[i][j]`: `[` after a value expression.
            // `#[attr]`, `: [u8; N]`, `= [...]`, `let [a, b]` all have a
            // non-value token before the bracket and stay unflagged.
            TokKind::Punct
                if t.s == "["
                    && i > 0
                    && ((toks[i - 1].kind == TokKind::Ident
                        && !KEYWORDS.contains(&toks[i - 1].s))
                        || toks[i - 1].is_punct(")")
                        || toks[i - 1].is_punct("]")) =>
            {
                "slice indexing".to_string()
            }
            _ => continue,
        };
        diags.push(RawDiag {
            line: t.line,
            rule: Rule::PanicSurface.name(),
            message: format!(
                "panic-surface site ({what}) in hot-path library code; return a typed `KvError` \
                 instead (budgeted sites live in kvlint-baseline.toml and may only shrink)"
            ),
        });
    }
    // One site per line keeps baseline counts stable under reformatting.
    diags.dedup_by(|a, b| a.line == b.line);
    diags
}

/// One `mix64(<int literal> ...)` seeding-domain constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainConst {
    /// 1-based line of the literal.
    pub line: u32,
    /// The literal as written (`0x52_4554_5259`).
    pub text: String,
    /// Its numeric value (what uniqueness is judged on).
    pub value: u64,
}

/// Collects `rng-domain-separation` candidates: integer literals in
/// first-argument position of a `mix64(...)` call in library
/// (non-`cfg(test)`) code. Both the pure form `mix64(0xD0)` and the
/// mixed form `mix64(0xD0 ^ data)` carry a domain constant; the
/// workspace pass flags any value used at more than one site.
pub fn collect_rng_domains(
    lexed: &Lexed,
    test_regions: &[(u32, u32)],
    class: FileClass,
) -> Vec<DomainConst> {
    if class != FileClass::LibrarySrc {
        return Vec::new();
    }
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("mix64") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        let Some(lit) = toks.get(i + 2) else { continue };
        let Some(value) = lit.int_value() else {
            continue;
        };
        if in_regions(lit.line, test_regions) {
            continue;
        }
        out.push(DomainConst {
            line: lit.line,
            text: lit.s.to_string(),
            value,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_region_covers_module_body() {
        let src = "struct A;\n#[cfg(test)]\nmod tests {\n  fn f() {}\n}\nstruct B;\n";
        let l = lex(src);
        let regions = cfg_test_regions(&l.toks);
        assert_eq!(regions, vec![(2, 5)]);
    }

    #[test]
    fn cfg_test_field_covers_only_the_field() {
        let src = "struct A {\n  #[cfg(test)]\n  t: u64,\n  #[cfg(test)]\n  u: fn(u8, u8)\n}\nimpl A {\n  fn f() {}\n}\n";
        let l = lex(src);
        assert_eq!(cfg_test_regions(&l.toks), vec![(2, 3), (4, 6)]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nmod real {}\n";
        let l = lex(src);
        assert!(cfg_test_regions(&l.toks).is_empty());
    }

    #[test]
    fn stacked_attributes_still_find_the_block() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t {\n  struct X;\n}\n";
        let l = lex(src);
        assert_eq!(cfg_test_regions(&l.toks), vec![(1, 5)]);
    }

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
        assert_eq!(
            Rule::from_name(BAD_PRAGMA),
            None,
            "bad-pragma is not allowable"
        );
    }

    #[test]
    fn suppression_hits_are_tracked_per_pragma() {
        let diags = vec![RawDiag {
            line: 5,
            rule: Rule::NoWallClock.name(),
            message: String::new(),
        }];
        let allows = [(Rule::NoWallClock, 4), (Rule::NoEnvRead, 4)];
        let (kept, suppressed, hits) = apply_suppressions(diags, &allows);
        assert!(kept.is_empty());
        assert_eq!(suppressed, [("no-wall-clock", 1)]);
        assert_eq!(hits, [true, false]);
    }

    #[test]
    fn dead_pragmas_are_flagged_and_excusable() {
        // Pragma 0 hit; pragma 1 dead; pragma 2 dead but excused by 3,
        // which becomes live by excusing it.
        let allows = [
            (Rule::NoWallClock, 3),
            (Rule::NoEnvRead, 9),
            (Rule::NoRandomStateMap, 20),
            (Rule::DeadPragma, 19),
        ];
        let mut hits = vec![true, false, false, false];
        let (dead, excused) = dead_pragma_pass(&allows, &mut hits);
        assert_eq!(excused, 1);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].line, 9);
        assert_eq!(dead[0].rule, "dead-pragma");
        assert!(hits[3], "the excusing dead-pragma allow is live");
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let src = "\
// SAFETY: the allocator never unwinds.
unsafe impl GlobalAlloc for A {
    unsafe fn alloc(&self) -> *mut u8 {
        unsafe { sys_alloc() }
    }
}
fn f() {
    unsafe { raw() } // SAFETY: trailing form also counts
}
";
        let l = lex(src);
        let d = check_unsafe_safety(&l);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert_eq!(d[0].rule, "unsafe-requires-safety");
    }

    #[test]
    fn unsafe_safety_walks_multi_line_comment_runs() {
        let src = "\
// SAFETY: the buffer is exclusively owned
// and the layout round-trips through the allocator.
unsafe { dealloc(p) }
";
        let l = lex(src);
        assert!(check_unsafe_safety(&l).is_empty());
    }

    #[test]
    fn panic_surface_sites_in_hot_crates_only() {
        let src = "\
fn f(v: &[u8], o: Option<u8>) -> u8 {
    let a = o.unwrap();
    let b = o.expect(\"set\");
    if v.is_empty() { panic!(\"empty\"); }
    v[0]
}
#[cfg(test)]
mod tests {
    fn t(o: Option<u8>) { o.unwrap(); }
}
";
        let l = lex(src);
        let hot = check_panic_surface(
            &l,
            &cfg_test_regions(&l.toks),
            "crates/core/src/device.rs",
            FileClass::LibrarySrc,
        );
        let lines: Vec<u32> = hot.iter().map(|d| d.line).collect();
        assert_eq!(lines, [2, 3, 4, 5], "{hot:?}");
        assert!(
            check_panic_surface(
                &l,
                &cfg_test_regions(&l.toks),
                "crates/kvbench/src/keys.rs",
                FileClass::LibrarySrc
            )
            .is_empty(),
            "kvbench is not a hot-path crate"
        );
        assert!(
            check_panic_surface(
                &l,
                &cfg_test_regions(&l.toks),
                "crates/core/tests/x.rs",
                FileClass::Tests
            )
            .is_empty(),
            "tests are exempt"
        );
    }

    #[test]
    fn panic_surface_ignores_non_indexing_brackets() {
        let src = "\
#[derive(Debug)]
struct S { buf: [u8; 4] }
fn f(s: &S, i: usize) -> u8 {
    let _arr = [1, 2, 3];
    let [a, _b] = [i, i];
    let _ = a;
    s.buf[i]
}
";
        let l = lex(src);
        let d = check_panic_surface(
            &l,
            &cfg_test_regions(&l.toks),
            "crates/core/src/device.rs",
            FileClass::LibrarySrc,
        );
        let lines: Vec<u32> = d.iter().map(|x| x.line).collect();
        assert_eq!(lines, [7], "{d:?}");
    }

    #[test]
    fn rng_domains_capture_pure_and_mixed_forms() {
        let src = "\
fn seeds(seed: u64, id: u64) -> (u64, u64) {
    let a = mix64(seed ^ mix64(0x52_4554_5259));
    let b = mix64(0x5EED ^ id);
    (a, b)
}
#[cfg(test)]
mod tests {
    fn t() { let _ = mix64(0x52_4554_5259); }
}
";
        let l = lex(src);
        let d = collect_rng_domains(&l, &cfg_test_regions(&l.toks), FileClass::LibrarySrc);
        let got: Vec<(u32, u64)> = d.iter().map(|c| (c.line, c.value)).collect();
        assert_eq!(got, [(2, 0x52_4554_5259), (3, 0x5EED)], "{d:?}");
        assert!(collect_rng_domains(&l, &cfg_test_regions(&l.toks), FileClass::Tests).is_empty());
    }
}
