//! The analyzer families: concurrency, determinism, observability.
//!
//! Every rule works on the lexed token stream ([`crate::lexer`]), so
//! matches survive rustfmt line-wrapping and never fire inside string
//! literals or comments. Cross-file state (the `#[deprecated]` item
//! set, the lock-order graph) is collected in a first pass over the
//! whole scan set, then per-file rules run in a second pass.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};

use crate::diagnostics::{Diagnostic, Rule};
use crate::lexer::{LexFile, Token, TokenKind};

/// One file prepared for analysis.
pub struct FileContext {
    /// Path relative to the scanned root (used in diagnostics).
    pub rel_path: PathBuf,
    /// Owning crate (`serve`, `obs`, ... or `zeus` for the root crate).
    pub crate_name: String,
    /// The lexed source.
    pub lex: LexFile,
    /// Is this file a SimClock determinism domain?
    pub simclock_domain: bool,
    /// `allow(<rule>)` suppressions by line.
    allows: HashMap<u32, AllowSet>,
}

#[derive(Default)]
struct AllowSet {
    rules: HashSet<Rule>,
}

impl FileContext {
    /// Build a context: derive the crate, apply file directives.
    pub fn new(rel_path: PathBuf, lex: LexFile) -> FileContext {
        let crate_name = crate_of(&rel_path);
        let mut simclock_domain = matches!(crate_name.as_str(), "sim" | "rl")
            || rel_path == Path::new("crates/core/src/training.rs");
        let mut allows: HashMap<u32, AllowSet> = HashMap::new();
        for d in &lex.directives {
            if d.body.starts_with("domain(simclock)") {
                simclock_domain = true;
            }
            if let Some(rest) = d.body.strip_prefix("allow(") {
                let names = rest.split(')').next().unwrap_or("");
                let mut lines = vec![d.line];
                if d.own_line {
                    lines.push(d.line + 1);
                }
                for name in names.split(',') {
                    if let Some(rule) = Rule::by_name(name.trim()) {
                        for &line in &lines {
                            allows.entry(line).or_default().rules.insert(rule);
                        }
                    }
                }
            }
        }
        FileContext {
            rel_path,
            crate_name,
            lex,
            simclock_domain,
            allows,
        }
    }

    /// Is `rule` suppressed at `line`?
    pub fn allowed(&self, line: u32, rule: Rule) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|set| set.rules.contains(&rule))
    }

    fn diag(&self, rule: Rule, line: u32, message: String, out: &mut Vec<Diagnostic>) {
        if !self.allowed(line, rule) {
            out.push(Diagnostic {
                rule,
                file: self.rel_path.clone(),
                line,
                message,
            });
        }
    }
}

/// The crate a workspace-relative path belongs to.
pub fn crate_of(rel: &Path) -> String {
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match parts.next().as_deref() {
        Some("crates") => parts.next().map(|s| s.into_owned()),
        _ => None,
    }
    .unwrap_or_else(|| "zeus".to_string())
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct(c)
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind.ident() == Some(s)
}

/// Index of the `)` matching the `(` at `open` (paren depth only), or
/// `None` if unbalanced.
fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------
// ZL-C001 raw-lock-unwrap
// ---------------------------------------------------------------------

/// Files where raw std locking is the point, not a bug.
fn raw_lock_exempt(rel: &Path) -> bool {
    rel == Path::new("crates/obs/src/sync.rs") || rel.starts_with("crates/shims")
}

/// Flag `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()`
/// (and the `.expect(..)` spellings) outside `zeus_obs::sync`.
pub fn raw_lock_unwrap(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if raw_lock_exempt(&ctx.rel_path) {
        return;
    }
    let t = &ctx.lex.tokens;
    for i in 0..t.len().saturating_sub(6) {
        let acquire = match t[i + 1].kind.ident() {
            Some(m @ ("lock" | "read" | "write")) => m,
            _ => continue,
        };
        let panics = match t[i + 5].kind.ident() {
            Some(p @ ("unwrap" | "expect")) => p,
            _ => continue,
        };
        if is_punct(&t[i], '.')
            && is_punct(&t[i + 2], '(')
            && is_punct(&t[i + 3], ')')
            && is_punct(&t[i + 4], '.')
            && is_punct(&t[i + 6], '(')
        {
            let helper = match acquire {
                "lock" => "lock_recover",
                "read" => "read_recover",
                _ => "write_recover",
            };
            ctx.diag(
                Rule::RawLockUnwrap,
                t[i + 1].line,
                format!(
                    ".{acquire}().{panics}(..) panics on a poisoned lock and wedges the plane; \
                     use zeus_obs::sync::{helper} instead"
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------
// ZL-C002 untracked-spawn
// ---------------------------------------------------------------------

/// Flag `std::thread::spawn` / `thread::spawn` whose `JoinHandle` is
/// dropped on the floor: a statement-position call not chained into
/// `.join()` and not bound to a named variable. Scoped spawns
/// (`scope.spawn`) join automatically and are not matched.
pub fn untracked_spawn(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ctx.rel_path.starts_with("crates/shims") {
        return;
    }
    let t = &ctx.lex.tokens;
    for k in 3..t.len().saturating_sub(1) {
        if !(is_ident(&t[k], "spawn")
            && is_punct(&t[k - 1], ':')
            && is_punct(&t[k - 2], ':')
            && is_ident(&t[k - 3], "thread")
            && is_punct(&t[k + 1], '('))
        {
            continue;
        }
        // Path start: `thread::spawn` or `std::thread::spawn`.
        let mut start = k - 3;
        if start >= 3
            && is_punct(&t[start - 1], ':')
            && is_punct(&t[start - 2], ':')
            && is_ident(&t[start - 3], "std")
        {
            start -= 3;
        }
        let Some(close) = matching_paren(t, k + 1) else {
            continue;
        };
        // Chained `.join()` right on the call tracks the handle.
        if t.get(close + 1).is_some_and(|n| is_punct(n, '.'))
            && t.get(close + 2).is_some_and(|n| is_ident(n, "join"))
        {
            continue;
        }
        // The handle is tracked when the call is an expression whose
        // value goes somewhere: a named binding, an argument, a tail
        // expression. It is untracked when it stands as a statement
        // (or is bound to `_`) and ends in `;`.
        let statement_position = match start.checked_sub(1).map(|p| &t[p]) {
            None => true,
            Some(prev) if is_punct(prev, ';') || is_punct(prev, '{') || is_punct(prev, '}') => true,
            Some(prev) if is_punct(prev, '=') => {
                start >= 2
                    && is_ident(&t[start - 2], "_")
                    && (start < 3 || !is_punct(&t[start - 3], ':'))
            }
            Some(_) => false,
        };
        if statement_position && t.get(close + 1).is_some_and(|n| is_punct(n, ';')) {
            ctx.diag(
                Rule::UntrackedSpawn,
                t[start].line,
                "std::thread::spawn without a tracked JoinHandle: bind the handle and join it \
                 (or use a scoped spawn) so panics and shutdown are observed"
                    .to_string(),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------
// ZL-D001 wallclock
// ---------------------------------------------------------------------

/// Flag `Instant::now()` / `SystemTime::now()` inside SimClock domains.
pub fn wallclock(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !ctx.simclock_domain {
        return;
    }
    let t = &ctx.lex.tokens;
    for i in 0..t.len().saturating_sub(5) {
        let clock = match t[i].kind.ident() {
            Some(c @ ("Instant" | "SystemTime")) => c,
            _ => continue,
        };
        if is_punct(&t[i + 1], ':')
            && is_punct(&t[i + 2], ':')
            && is_ident(&t[i + 3], "now")
            && is_punct(&t[i + 4], '(')
            && is_punct(&t[i + 5], ')')
        {
            ctx.diag(
                Rule::Wallclock,
                t[i].line,
                format!(
                    "{clock}::now() in a SimClock domain: hot paths must use the simulated \
                     clock so serial/parallel equivalence holds (wall-clock telemetry needs \
                     an explicit `zeus-lint: allow(wallclock)` with a reason)"
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------
// ZL-D002 unseeded-rng
// ---------------------------------------------------------------------

/// Flag entropy-seeded RNG construction (`thread_rng`, `from_entropy`).
pub fn unseeded_rng(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ctx.rel_path.starts_with("crates/shims") {
        return;
    }
    let t = &ctx.lex.tokens;
    for i in 0..t.len().saturating_sub(1) {
        let name = match t[i].kind.ident() {
            Some(n @ ("thread_rng" | "from_entropy")) => n,
            _ => continue,
        };
        if is_punct(&t[i + 1], '(') {
            ctx.diag(
                Rule::UnseededRng,
                t[i].line,
                format!(
                    "{name}() draws OS entropy and breaks run-to-run reproducibility; \
                     construct RNGs from an explicit seed (SeedableRng::seed_from_u64)"
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------
// ZL-O001 metric-key
// ---------------------------------------------------------------------

/// Flag string-literal metric keys not present in the central
/// `zeus_obs::keys` registry (either as exact keys or as instances /
/// `format!` templates of a registered pattern).
pub fn metric_key(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    // The registry's own unit tests mint toy keys on private registries.
    if ctx.rel_path == Path::new("crates/obs/src/registry.rs")
        || ctx.rel_path.starts_with("crates/shims")
    {
        return;
    }
    let t = &ctx.lex.tokens;
    for i in 0..t.len().saturating_sub(2) {
        if !is_punct(&t[i], '.') {
            continue;
        }
        if !matches!(
            t[i + 1].kind.ident(),
            Some("counter" | "gauge" | "histogram")
        ) {
            continue;
        }
        if !is_punct(&t[i + 2], '(') {
            continue;
        }
        let Some(close) = matching_paren(t, i + 2) else {
            continue;
        };
        let Some(key_token) = t[i + 3..close]
            .iter()
            .find(|tok| matches!(tok.kind, TokenKind::Str(_)))
        else {
            continue; // dynamic key (a variable or constant) — fine
        };
        let TokenKind::Str(key) = &key_token.kind else {
            unreachable!("filtered to Str above");
        };
        if zeus_obs::keys::is_registered(key) {
            continue;
        }
        let ns = key.split('.').next().unwrap_or("");
        let why = if zeus_obs::keys::namespaces().contains(&ns) {
            "is not registered in zeus_obs::keys — add a constant there (or use an existing one)"
        } else {
            "is outside the documented serve.*/cache.*/train.*/pool.*/fleet.* namespaces"
        };
        ctx.diag(
            Rule::MetricKey,
            key_token.line,
            format!("metric key \"{key}\" {why}"),
            out,
        );
    }
}

// ---------------------------------------------------------------------
// ZL-O002 deprecated-item
// ---------------------------------------------------------------------

/// A `#[deprecated]` item declared somewhere in the scan set.
#[derive(Debug, Clone)]
pub struct DeprecatedItem {
    /// The item's name.
    pub name: String,
    /// File declaring it.
    pub file: PathBuf,
    /// Line of the item name in the declaration.
    pub line: u32,
}

/// Item keywords an attribute can precede.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// Pass 1: collect names of items declared `#[deprecated]`.
pub fn collect_deprecated(ctx: &FileContext, into: &mut Vec<DeprecatedItem>) {
    let t = &ctx.lex.tokens;
    for i in 0..t.len().saturating_sub(2) {
        if !(is_punct(&t[i], '#') && is_punct(&t[i + 1], '[') && is_ident(&t[i + 2], "deprecated"))
        {
            continue;
        }
        // Skip to the attribute's closing `]`, then over any further
        // attributes and visibility, to the item keyword + name.
        let mut j = i + 2;
        let mut depth = 1usize;
        while j < t.len() && depth > 0 {
            j += 1;
            match t.get(j).map(|tok| &tok.kind) {
                Some(TokenKind::Punct('[')) => depth += 1,
                Some(TokenKind::Punct(']')) => depth -= 1,
                _ => {}
            }
        }
        j += 1;
        while j < t.len() {
            if is_punct(&t[j], '#') && t.get(j + 1).is_some_and(|n| is_punct(n, '[')) {
                let mut d = 1usize;
                j += 2;
                while j < t.len() && d > 0 {
                    match t[j].kind {
                        TokenKind::Punct('[') => d += 1,
                        TokenKind::Punct(']') => d -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                continue;
            }
            match t[j].kind.ident() {
                Some("pub") => {
                    j += 1;
                    if t.get(j).is_some_and(|n| is_punct(n, '(')) {
                        j = matching_paren(t, j).map_or(t.len(), |c| c + 1);
                    }
                }
                Some("unsafe") | Some("async") | Some("extern") => j += 1,
                Some(kw) if ITEM_KEYWORDS.contains(&kw) => {
                    if let Some(name_tok) = t.get(j + 1) {
                        if let Some(name) = name_tok.kind.ident() {
                            into.push(DeprecatedItem {
                                name: name.to_string(),
                                file: ctx.rel_path.clone(),
                                line: name_tok.line,
                            });
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
    }
}

/// Pass 2: flag uses of deprecated items (excluding their declaration).
pub fn deprecated_use(ctx: &FileContext, items: &[DeprecatedItem], out: &mut Vec<Diagnostic>) {
    if items.is_empty() {
        return;
    }
    let by_name: HashMap<&str, &DeprecatedItem> =
        items.iter().map(|d| (d.name.as_str(), d)).collect();
    let t = &ctx.lex.tokens;
    for (i, tok) in t.iter().enumerate() {
        let Some(name) = tok.kind.ident() else {
            continue;
        };
        let Some(item) = by_name.get(name) else {
            continue;
        };
        if item.file == ctx.rel_path && item.line == tok.line {
            continue; // the declaration itself
        }
        // A fresh (non-deprecated) item may shadow the name; skip
        // declaration positions.
        if i > 0
            && t[i - 1]
                .kind
                .ident()
                .is_some_and(|kw| ITEM_KEYWORDS.contains(&kw) || kw == "let")
        {
            continue;
        }
        ctx.diag(
            Rule::DeprecatedItem,
            tok.line,
            format!(
                "use of #[deprecated] workspace item `{name}` (declared at {}:{})",
                item.file.display(),
                item.line
            ),
            out,
        );
    }
}

// ---------------------------------------------------------------------
// ZL-C003 lock-order-cycle
// ---------------------------------------------------------------------

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Crate-qualified lock name (`serve::inner`).
    pub lock: String,
    /// File of the acquisition.
    pub file: PathBuf,
    /// Line of the acquisition.
    pub line: u32,
}

/// The lock-order graph: `a -> b` means some function acquires `b`
/// (textually) after `a`. Cycles are potential deadlocks.
#[derive(Debug, Default)]
pub struct LockGraph {
    edges: BTreeMap<String, BTreeMap<String, (PathBuf, u32)>>,
}

/// Extract per-function acquisition sequences and fold them into the
/// graph. The "held across" approximation: every acquisition is assumed
/// held for the rest of its function, so each ordered pair becomes an
/// edge. Self-edges (re-acquiring the same named lock, e.g. a read
/// upgrade after the guard is dropped) are excluded — they are common
/// and legitimate when the first guard's scope has ended.
pub fn collect_lock_orders(ctx: &FileContext, graph: &mut LockGraph) {
    if ctx.rel_path.starts_with("crates/shims")
        || ctx.rel_path == Path::new("crates/obs/src/sync.rs")
    {
        return;
    }
    let t = &ctx.lex.tokens;
    for i in 0..t.len().saturating_sub(1) {
        if !is_ident(&t[i], "fn") {
            continue;
        }
        if t[i + 1].kind.ident().is_none() {
            continue;
        }
        // Find the body `{` (or `;` for a bodyless declaration).
        let mut j = i + 2;
        let mut body = None;
        while j < t.len() {
            match t[j].kind {
                TokenKind::Punct('{') => {
                    body = Some(j);
                    break;
                }
                TokenKind::Punct(';') => break,
                _ => j += 1,
            }
        }
        let Some(open) = body else { continue };
        let mut depth = 0usize;
        let mut end = open;
        for (k, tok) in t.iter().enumerate().skip(open) {
            match tok.kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        let acquisitions = acquisitions_in(ctx, &t[open..end]);
        for a in 0..acquisitions.len() {
            for b in acquisitions.iter().skip(a + 1) {
                let first = &acquisitions[a];
                if first.lock == b.lock {
                    continue;
                }
                graph
                    .edges
                    .entry(first.lock.clone())
                    .or_default()
                    .entry(b.lock.clone())
                    .or_insert_with(|| (b.file.clone(), b.line));
            }
        }
    }
}

/// Lock acquisitions in a token slice, in order.
fn acquisitions_in(ctx: &FileContext, t: &[Token]) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        // `<recv>.lock()` / `.read()` / `.write()` on a std lock.
        if i + 3 < t.len()
            && is_punct(&t[i], '.')
            && matches!(t[i + 1].kind.ident(), Some("lock" | "read" | "write"))
            && is_punct(&t[i + 2], '(')
            && is_punct(&t[i + 3], ')')
        {
            if let Some(name) = receiver_name(t, i) {
                out.push(Acquisition {
                    lock: format!("{}::{}", ctx.crate_name, name),
                    file: ctx.rel_path.clone(),
                    line: t[i + 1].line,
                });
            }
        }
        // `lock_recover(&path)` and friends.
        if i + 1 < t.len()
            && matches!(
                t[i].kind.ident(),
                Some("lock_recover" | "read_recover" | "write_recover")
            )
            && is_punct(&t[i + 1], '(')
        {
            if let Some(close) = matching_paren(t, i + 1) {
                let name = t[i + 2..close]
                    .iter()
                    .take_while(|tok| !is_punct(tok, ','))
                    .filter_map(|tok| tok.kind.ident())
                    .last();
                if let Some(name) = name {
                    out.push(Acquisition {
                        lock: format!("{}::{}", ctx.crate_name, name),
                        file: ctx.rel_path.clone(),
                        line: t[i].line,
                    });
                }
            }
        }
    }
    out
}

/// The identifier naming the receiver of the method call at `dot`
/// (walking back over one index or call suffix).
fn receiver_name(t: &[Token], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    loop {
        match &t[j].kind {
            TokenKind::Ident(name) if name != "self" => return Some(name.clone()),
            TokenKind::Punct(']') | TokenKind::Punct(')') => {
                let (open, shut) = if is_punct(&t[j], ']') {
                    ('[', ']')
                } else {
                    ('(', ')')
                };
                let mut depth = 1usize;
                while depth > 0 {
                    j = j.checked_sub(1)?;
                    if is_punct(&t[j], shut) {
                        depth += 1;
                    } else if is_punct(&t[j], open) {
                        depth -= 1;
                    }
                }
                j = j.checked_sub(1)?;
            }
            _ => return None,
        }
    }
}

impl LockGraph {
    /// Find lock-order cycles and report one diagnostic per cycle
    /// component. Deterministic: edges are visited in sorted order.
    pub fn cycles(&self, out: &mut Vec<Diagnostic>) {
        let mut reported: BTreeSet<String> = BTreeSet::new();
        // Sort candidate edges by site so the reported line is stable.
        let mut edges: Vec<(&String, &String, &(PathBuf, u32))> = self
            .edges
            .iter()
            .flat_map(|(a, tos)| tos.iter().map(move |(b, site)| (a, b, site)))
            .collect();
        edges.sort_by(|x, y| (&x.2 .0, x.2 .1, x.0, x.1).cmp(&(&y.2 .0, y.2 .1, y.0, y.1)));
        for (a, b, (file, line)) in edges {
            if reported.contains(a) || reported.contains(b) {
                continue;
            }
            if let Some(path) = self.path(b, a) {
                // a -> b (this edge) plus b -> ... -> a: a cycle. The
                // path already ends back at `a`, closing the loop.
                let mut cycle = vec![a.clone()];
                cycle.extend(path);
                for node in &cycle {
                    reported.insert(node.clone());
                }
                out.push(Diagnostic {
                    rule: Rule::LockOrderCycle,
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "lock-order cycle: {} — functions acquire these locks in \
                         conflicting orders, a static deadlock hazard; pick one global \
                         order and stick to it",
                        cycle.join(" -> ")
                    ),
                });
            }
        }
    }

    /// BFS path from `from` to `to` (inclusive of both ends), if any.
    fn path(&self, from: &str, to: &str) -> Option<Vec<String>> {
        let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen: BTreeSet<&str> = BTreeSet::from([from]);
        while let Some(node) = queue.pop_front() {
            if node == to {
                let mut path = vec![node.to_string()];
                let mut cur = node;
                while let Some(&p) = prev.get(cur) {
                    path.push(p.to_string());
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            if let Some(nexts) = self.edges.get(node) {
                for next in nexts.keys() {
                    if seen.insert(next) {
                        prev.insert(next, node);
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }

    /// Number of distinct edges (for tests / reporting).
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(path: &str, src: &str) -> FileContext {
        FileContext::new(PathBuf::from(path), lex(src))
    }

    fn run_single(path: &str, src: &str) -> Vec<Diagnostic> {
        let c = ctx(path, src);
        let mut out = Vec::new();
        raw_lock_unwrap(&c, &mut out);
        untracked_spawn(&c, &mut out);
        wallclock(&c, &mut out);
        unseeded_rng(&c, &mut out);
        metric_key(&c, &mut out);
        out
    }

    #[test]
    fn raw_lock_matches_across_line_breaks() {
        let src = "fn f(m: &std::sync::Mutex<u8>) {\n    let _g = m\n        .lock()\n        .unwrap();\n}\n";
        let d = run_single("crates/x/src/a.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::RawLockUnwrap);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn lock_expect_is_also_flagged_but_recover_is_not() {
        let bad = "fn f() { x.lock().expect(\"poisoned\"); }";
        assert_eq!(run_single("crates/x/src/a.rs", bad).len(), 1);
        let good = "fn f() { let _g = lock_recover(&x); y.lock(); }";
        assert!(run_single("crates/x/src/a.rs", good).is_empty());
    }

    #[test]
    fn sync_module_and_shims_are_exempt() {
        let src = "fn f() { x.lock().unwrap(); }";
        assert!(run_single("crates/obs/src/sync.rs", src).is_empty());
        assert!(run_single("crates/shims/parking_lot/src/lib.rs", src).is_empty());
    }

    #[test]
    fn spawn_tracking_variants() {
        let untracked = "fn f() { std::thread::spawn(|| work()); }";
        assert_eq!(run_single("src/a.rs", untracked).len(), 1);
        let wildcard = "fn f() { let _ = thread::spawn(|| work()); }";
        assert_eq!(run_single("src/a.rs", wildcard).len(), 1);
        let joined = "fn f() { let _ = std::thread::spawn(|| work()).join(); }";
        assert!(run_single("src/a.rs", joined).is_empty());
        let bound = "fn f() { let h = std::thread::spawn(|| work()); h.join().unwrap(); }";
        assert!(run_single("src/a.rs", bound).is_empty());
        let pushed = "fn f(v: &mut Vec<J>) { v.push(std::thread::spawn(|| work())); }";
        assert!(run_single("src/a.rs", pushed).is_empty());
        let scoped = "fn f(s: &S) { s.spawn(|| work()); }";
        assert!(run_single("src/a.rs", scoped).is_empty());
    }

    #[test]
    fn wallclock_only_fires_in_domains() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(run_single("crates/serve/src/a.rs", src).is_empty());
        assert_eq!(run_single("crates/rl/src/a.rs", src).len(), 1);
        assert_eq!(run_single("crates/sim/src/a.rs", src).len(), 1);
        assert_eq!(run_single("crates/core/src/training.rs", src).len(), 1);
        let marked = format!("// zeus-lint: domain(simclock)\n{src}");
        assert_eq!(run_single("crates/video/src/a.rs", &marked).len(), 1);
    }

    #[test]
    fn allow_suppresses_on_same_and_next_line() {
        let same = "fn f() { let t = Instant::now(); } // zeus-lint: allow(wallclock): bench\n";
        assert!(run_single("crates/rl/src/a.rs", same).is_empty());
        let above =
            "fn f() {\n    // zeus-lint: allow(wallclock): bench\n    let t = Instant::now();\n}\n";
        assert!(run_single("crates/rl/src/a.rs", above).is_empty());
        let wrong_rule =
            "fn f() {\n    // zeus-lint: allow(metric-key)\n    let t = Instant::now();\n}\n";
        assert_eq!(run_single("crates/rl/src/a.rs", wrong_rule).len(), 1);
    }

    #[test]
    fn metric_keys_check_the_registry() {
        let ok = "fn f(r: &R) { r.counter(\"serve.submitted\").inc(); }";
        assert!(run_single("crates/serve/src/a.rs", ok).is_empty());
        let pattern = "fn f(r: &R) { r.gauge(&format!(\"pool.device.{i}.busy_secs\")).set(0.0); }";
        assert!(run_single("crates/serve/src/a.rs", pattern).is_empty());
        let unregistered = "fn f(r: &R) { r.counter(\"serve.made_up\").inc(); }";
        let d = run_single("crates/serve/src/a.rs", unregistered);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("not registered"));
        let rogue = "fn f(r: &R) { r.counter(\"rogue.key\").inc(); }";
        let d = run_single("crates/serve/src/a.rs", rogue);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("namespaces"));
        let dynamic = "fn f(r: &R, k: &str) { r.counter(k).inc(); }";
        assert!(run_single("crates/serve/src/a.rs", dynamic).is_empty());
    }

    #[test]
    fn deprecated_declaration_vs_use() {
        let src =
            "#[deprecated(note = \"x\")]\npub fn old_thing() {}\nfn caller() { old_thing(); }\n";
        let c = ctx("crates/x/src/a.rs", src);
        let mut items = Vec::new();
        collect_deprecated(&c, &mut items);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "old_thing");
        let mut out = Vec::new();
        deprecated_use(&c, &items, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn lock_graph_finds_reversed_orders() {
        let src = "\
impl S {
    fn ab(&self) {
        let _a = lock_recover(&self.alpha);
        let _b = lock_recover(&self.beta);
    }
    fn ba(&self) {
        let _b = lock_recover(&self.beta);
        let _a = lock_recover(&self.alpha);
    }
}
";
        let c = ctx("crates/x/src/a.rs", src);
        let mut graph = LockGraph::default();
        collect_lock_orders(&c, &mut graph);
        assert_eq!(graph.edge_count(), 2);
        let mut out = Vec::new();
        graph.cycles(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::LockOrderCycle);
        assert!(out[0].message.contains("x::alpha"));
    }

    #[test]
    fn lock_graph_ignores_self_edges_and_consistent_orders() {
        let src = "\
fn read_then_write(&self) {
    let _r = read_recover(&self.cache);
    let _w = write_recover(&self.cache);
}
fn one(&self) { let _a = lock_recover(&self.alpha); let _b = lock_recover(&self.beta); }
fn two(&self) { let _a = lock_recover(&self.alpha); let _b = lock_recover(&self.beta); }
";
        let c = ctx("crates/x/src/a.rs", src);
        let mut graph = LockGraph::default();
        collect_lock_orders(&c, &mut graph);
        let mut out = Vec::new();
        graph.cycles(&mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
