//! The action-query language (§1) and its extended ZQL dialect.
//!
//! Zeus queries look like:
//!
//! ```sql
//! SELECT segment_ids FROM UDF(video)
//! WHERE action_class = 'left-turn' AND accuracy >= 80%
//! ```
//!
//! Multi-class queries (§6.5) union classes:
//!
//! ```sql
//! ... WHERE action_class IN ('cross-right', 'cross-left') AND accuracy >= 0.85
//! ```
//!
//! # ZQL grammar
//!
//! The extended dialect accepted by [`parse_zql`] (keywords are
//! case-insensitive; clauses after `WHERE` may appear in any order,
//! except that `WINDOW`, `ORDER BY` and `LIMIT` follow the predicates):
//!
//! ```text
//! query       := SELECT segment_ids FROM source WHERE predicates
//!                [window] [order] [limit]
//! source      := UDF(video)                       -- the session default
//!              | dataset_name                     -- a registered corpus
//! predicates  := class_pred { AND class_pred | AND NOT class_pred
//!                           | AND accuracy_pred | AND budget_pred }
//! class_pred  := action_class = 'name'
//!              | action_class IN ('name' {, 'name'})
//! accuracy_pred := accuracy >= number['%']        -- target α ∈ (0, 1)
//! budget_pred := latency_budget <= number ms      -- per-query budget
//! window      := WINDOW [t0, t1]                  -- frame range, t0 < t1
//! order       := ORDER BY confidence [DESC|ASC]   -- answer-set ordering
//! limit       := LIMIT n                          -- n ≥ 1 segments
//! ```
//!
//! Semantics:
//!
//! * `FROM <dataset_name>` routes the query to a named corpus registered
//!   with the session's dataset registry (`FROM bdd100k`,
//!   `FROM my_corpus`); `FROM UDF(video)` keeps the paper's original
//!   spelling and targets the session's default corpus. Names are
//!   lowercase identifiers over `[a-z0-9_-]` (normalized at parse).
//! * `AND NOT action_class ...` excludes segments overlapping the named
//!   class(es) from the answer set (boolean class predicates).
//! * `accuracy` is the paper's user-specified target α: `80%` and `0.8`
//!   are the same value; `accuracy >= 100%` (or any value outside the
//!   open interval `(0, 1)`) is rejected with [`ParseError::BadAccuracy`].
//! * `latency_budget <= Xms` bounds the query's latency: the planner
//!   converts it into a throughput floor during static-configuration
//!   selection, and the serving layer maps tight budgets to higher
//!   admission priorities.
//! * `WINDOW [t0, t1]` restricts the answer to segments intersecting the
//!   frame range `[t0, t1)` of every video.
//! * `ORDER BY confidence` sorts the answer set by segment confidence
//!   (descending unless `ASC`); `LIMIT n` keeps the first `n` segments.
//!
//! Every query parses into a [`QueryIr`], the intermediate representation
//! consumed by both the planner ([`crate::planner::QueryPlanner`]) and the
//! serving layer (`zeus_serve::ZeusServer::submit_ir`). `QueryIr::to_sql`
//! renders back to text such that `parse_zql(ir.to_sql()) == Ok(ir)`.

use zeus_video::ActionClass;

/// A parsed action-localization query (the classic §1 core: classes and
/// an accuracy target).
#[derive(Debug, Clone, PartialEq)]
pub struct ActionQuery {
    /// Target classes (one normally; several for §6.5 union queries).
    pub classes: Vec<ActionClass>,
    /// User-specified accuracy target α ∈ (0, 1).
    pub target_accuracy: f64,
}

impl ActionQuery {
    /// Build a single-class query.
    ///
    /// Returns [`ParseError::BadAccuracy`] when the target is outside the
    /// open interval `(0, 1)`.
    pub fn new(class: ActionClass, target_accuracy: f64) -> Result<Self, ParseError> {
        Self::multi(vec![class], target_accuracy)
    }

    /// Build a multi-class (union) query.
    ///
    /// Returns [`ParseError::MissingClass`] on an empty class list and
    /// [`ParseError::BadAccuracy`] when the target is outside `(0, 1)`.
    pub fn multi(classes: Vec<ActionClass>, target_accuracy: f64) -> Result<Self, ParseError> {
        if classes.is_empty() {
            return Err(ParseError::MissingClass);
        }
        if !(target_accuracy > 0.0 && target_accuracy < 1.0) {
            return Err(ParseError::BadAccuracy(format!("{target_accuracy}")));
        }
        Ok(ActionQuery {
            classes,
            target_accuracy,
        })
    }

    /// Render back to SQL-ish text (display form, integer percent).
    pub fn to_sql(&self) -> String {
        format!(
            "SELECT segment_ids FROM UDF(video) WHERE {} AND accuracy >= {:.0}%",
            class_predicate(&self.classes),
            self.target_accuracy * 100.0
        )
    }
}

fn class_predicate(classes: &[ActionClass]) -> String {
    if classes.len() == 1 {
        format!("action_class = '{}'", classes[0].query_name())
    } else {
        let list = classes
            .iter()
            .map(|c| format!("'{}'", c.query_name()))
            .collect::<Vec<_>>()
            .join(", ");
        format!("action_class IN ({list})")
    }
}

/// Answer-set ordering requested by `ORDER BY confidence`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderBy {
    /// Highest-confidence segments first (the default direction).
    ConfidenceDesc,
    /// Lowest-confidence segments first.
    ConfidenceAsc,
}

/// The compiled intermediate representation of an extended ZQL query:
/// what the planner plans and the server serves.
///
/// The classic core ([`QueryIr::base`]) determines the trained plan and
/// the cache identity; the extensions (`exclude`, `window`, `limit`,
/// `latency_budget_ms`, `order`) are relational refinements applied to
/// the answer set plus planning/admission hints.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryIr {
    /// The classic query core: union classes + accuracy target.
    pub base: ActionQuery,
    /// `FROM <dataset>` routing: the registered corpus this query
    /// targets. `None` (the `FROM UDF(video)` spelling) targets the
    /// session's default corpus.
    pub source: Option<String>,
    /// Classes excluded by `AND NOT action_class ...` predicates.
    pub exclude: Vec<ActionClass>,
    /// `WINDOW [t0, t1]` frame range (half-open `[t0, t1)`).
    pub window: Option<(usize, usize)>,
    /// `LIMIT n` answer-set cap.
    pub limit: Option<usize>,
    /// `latency_budget <= Xms` per-query latency budget in milliseconds.
    pub latency_budget_ms: Option<f64>,
    /// `ORDER BY confidence` answer-set ordering.
    pub order: Option<OrderBy>,
    /// `EXPLAIN ANALYZE` prefix: run the query and report per-stage
    /// timings alongside the answer. Not part of the plan/cache
    /// identity — an explained query shares its plan and cached result
    /// with the plain spelling.
    pub explain: bool,
}

impl QueryIr {
    /// Wrap a classic query with no extensions.
    pub fn from_query(base: ActionQuery) -> Self {
        QueryIr {
            base,
            source: None,
            exclude: Vec::new(),
            window: None,
            limit: None,
            latency_budget_ms: None,
            order: None,
            explain: false,
        }
    }

    /// True when the query carries no extended clauses (a classic §1
    /// query).
    pub fn is_classic(&self) -> bool {
        self.source.is_none()
            && self.exclude.is_empty()
            && self.window.is_none()
            && self.limit.is_none()
            && self.latency_budget_ms.is_none()
            && self.order.is_none()
    }

    /// Validate cross-clause invariants. [`parse_zql`] calls this; callers
    /// constructing a `QueryIr` by hand should too.
    pub fn validate(&self) -> Result<(), ParseError> {
        if self.base.classes.is_empty() {
            return Err(ParseError::MissingClass);
        }
        if !(self.base.target_accuracy > 0.0 && self.base.target_accuracy < 1.0) {
            return Err(ParseError::BadAccuracy(format!(
                "{}",
                self.base.target_accuracy
            )));
        }
        if let Some(name) = &self.source {
            if !is_dataset_name(name) {
                return Err(ParseError::BadSource(name.clone()));
            }
        }
        if let Some(conflict) = self.base.classes.iter().find(|c| self.exclude.contains(c)) {
            return Err(ParseError::ConflictingClasses(
                conflict.query_name().to_string(),
            ));
        }
        if let Some((t0, t1)) = self.window {
            if t0 >= t1 {
                return Err(ParseError::BadWindow(format!("[{t0}, {t1}]")));
            }
        }
        if self.limit == Some(0) {
            return Err(ParseError::BadLimit("0".into()));
        }
        if let Some(ms) = self.latency_budget_ms {
            if !(ms > 0.0 && ms.is_finite()) {
                return Err(ParseError::BadLatencyBudget(format!("{ms}")));
            }
        }
        Ok(())
    }

    /// Render back to the extended dialect. The accuracy target and the
    /// latency budget are printed at full precision so that
    /// `parse_zql(ir.to_sql()) == Ok(ir)` round-trips exactly.
    pub fn to_sql(&self) -> String {
        let mut sql = format!(
            "{}SELECT segment_ids FROM {} WHERE {}",
            if self.explain { "EXPLAIN ANALYZE " } else { "" },
            self.source.as_deref().unwrap_or("UDF(video)"),
            class_predicate(&self.base.classes)
        );
        for class in &self.exclude {
            sql.push_str(&format!(" AND NOT action_class = '{}'", class.query_name()));
        }
        sql.push_str(&format!(" AND accuracy >= {}", self.base.target_accuracy));
        if let Some(ms) = self.latency_budget_ms {
            sql.push_str(&format!(" AND latency_budget <= {ms}ms"));
        }
        if let Some((t0, t1)) = self.window {
            sql.push_str(&format!(" WINDOW [{t0}, {t1}]"));
        }
        match self.order {
            Some(OrderBy::ConfidenceDesc) => sql.push_str(" ORDER BY confidence DESC"),
            Some(OrderBy::ConfidenceAsc) => sql.push_str(" ORDER BY confidence ASC"),
            None => {}
        }
        if let Some(n) = self.limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        sql
    }
}

/// Errors from [`parse_zql`] and the query constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The query skeleton (SELECT ... FROM ... WHERE ...) is absent.
    NotAnActionQuery(String),
    /// The `FROM` operand is neither `UDF(video)` nor a valid dataset
    /// name (`[a-z0-9_-]+` after lowercasing).
    BadSource(String),
    /// `action_class` predicate missing or malformed.
    MissingClass,
    /// An action class name was not recognised.
    UnknownClass(String),
    /// `accuracy` predicate missing or malformed.
    MissingAccuracy,
    /// Accuracy outside the open interval (0, 1).
    BadAccuracy(String),
    /// A class appears both included and excluded (`AND NOT`).
    ConflictingClasses(String),
    /// `WINDOW [t0, t1]` malformed or empty (t0 ≥ t1).
    BadWindow(String),
    /// `LIMIT n` malformed or zero.
    BadLimit(String),
    /// `latency_budget <= Xms` malformed or non-positive.
    BadLatencyBudget(String),
    /// `ORDER BY` names something other than `confidence`.
    BadOrderBy(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::NotAnActionQuery(s) => write!(f, "not an action query: {s}"),
            ParseError::BadSource(s) => {
                write!(
                    f,
                    "bad FROM operand '{s}': expected UDF(video) or a dataset name"
                )
            }
            ParseError::MissingClass => write!(f, "missing action_class predicate"),
            ParseError::UnknownClass(c) => write!(f, "unknown action class '{c}'"),
            ParseError::MissingAccuracy => write!(f, "missing accuracy predicate"),
            ParseError::BadAccuracy(a) => write!(f, "accuracy out of range: {a}"),
            ParseError::ConflictingClasses(c) => {
                write!(f, "class '{c}' both selected and excluded (AND NOT)")
            }
            ParseError::BadWindow(w) => write!(f, "bad WINDOW clause: {w}"),
            ParseError::BadLimit(l) => write!(f, "bad LIMIT clause: {l}"),
            ParseError::BadLatencyBudget(b) => write!(f, "bad latency_budget: {b}"),
            ParseError::BadOrderBy(o) => write!(f, "bad ORDER BY clause: {o}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Split `sql` at the first occurrence of a keyword (already-lowercased
/// haystack), returning (before, after-keyword).
fn split_keyword<'a>(sql: &'a str, lower: &str, keyword: &str) -> Option<(&'a str, &'a str)> {
    lower
        .find(keyword)
        .map(|pos| (&sql[..pos], &sql[pos + keyword.len()..]))
}

/// Parse a `usize` prefix of `s` (after trimming), returning the value
/// and the rest.
fn parse_usize_prefix(s: &str) -> Option<(usize, &str)> {
    let s = s.trim_start();
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    if end == 0 {
        return None;
    }
    s[..end].parse().ok().map(|v| (v, &s[end..]))
}

/// Parse the extended ZQL dialect into a validated [`QueryIr`].
///
/// See the module docs for the grammar. Accepts the classic §1 dialect as
/// the degenerate case (every extension clause optional).
pub fn parse_zql(sql: &str) -> Result<QueryIr, ParseError> {
    let (sql, explain) = strip_explain(sql);
    let lower = sql.to_ascii_lowercase();
    if !(lower.contains("select") && lower.contains("from") && lower.contains("where")) {
        return Err(ParseError::NotAnActionQuery(sql.trim().to_string()));
    }

    // --- FROM routing: `UDF(video)` targets the session default;
    // anything else must be a registered dataset name. ---
    let not_a_query = || ParseError::NotAnActionQuery(sql.trim().to_string());
    // Unreachable `ok_or_else`s given the skeleton check above, but keep
    // typed errors rather than index panics.
    let from_pos = find_word(&lower, "from").ok_or_else(not_a_query)?;
    let after = &lower[from_pos + "from".len()..];
    let where_rel = find_word(after, "where").ok_or_else(not_a_query)?;
    let source = {
        let operand = after[..where_rel].trim();
        // Only the call form `udf(...)` is the default-corpus spelling;
        // a *name* starting with "udf" (e.g. `udf_logs`) is a regular
        // registered dataset.
        if operand.starts_with("udf(") || operand.starts_with("udf ") {
            None
        } else if is_dataset_name(operand) {
            Some(operand.to_string())
        } else {
            return Err(ParseError::BadSource(operand.to_string()));
        }
    };
    // Every remaining clause lives after WHERE; scanning only from there
    // keeps keyword-bearing dataset names (`time_window`, `speed_limit`,
    // `accuracy_test`, ...) out of the predicate/clause parsers.
    let where_pos = from_pos + "from".len() + where_rel;
    let sql = &sql[where_pos..];
    let lower = lower[where_pos..].to_string();

    // --- Trailing clauses: LIMIT, ORDER BY, WINDOW (peeled right to
    // left so predicate parsing never sees them). ---
    let (sql, lower, limit) = match split_keyword(sql, &lower, "limit") {
        Some((before, after)) => {
            let (n, rest) =
                parse_usize_prefix(after).ok_or(ParseError::BadLimit(after.trim().to_string()))?;
            if !rest.trim().is_empty() {
                return Err(ParseError::BadLimit(after.trim().to_string()));
            }
            (before, before.to_ascii_lowercase(), Some(n))
        }
        None => (sql, lower, None),
    };

    let (sql, lower, order) = match split_keyword(sql, &lower, "order by") {
        Some((before, after)) => {
            let spec = after.trim();
            let spec_l = spec.to_ascii_lowercase();
            let order = if spec_l == "confidence" || spec_l == "confidence desc" {
                OrderBy::ConfidenceDesc
            } else if spec_l == "confidence asc" {
                OrderBy::ConfidenceAsc
            } else {
                return Err(ParseError::BadOrderBy(spec.to_string()));
            };
            (before, before.to_ascii_lowercase(), Some(order))
        }
        None => (sql, lower, None),
    };

    let (sql, lower, window) = match split_keyword(sql, &lower, "window") {
        Some((before, after)) => {
            let spec = after.trim();
            let bad = || ParseError::BadWindow(spec.to_string());
            let inner = spec
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(bad)?;
            let (t0_s, t1_s) = inner.split_once(',').ok_or_else(bad)?;
            let t0: usize = t0_s.trim().parse().map_err(|_| bad())?;
            let t1: usize = t1_s.trim().parse().map_err(|_| bad())?;
            (before, before.to_ascii_lowercase(), Some((t0, t1)))
        }
        None => (sql, lower, None),
    };

    // --- Class predicates: every `action_class`, split into included
    // and excluded (`AND NOT`) sets. ---
    let mut classes = Vec::new();
    let mut exclude = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = lower[search..].find("action_class") {
        let pos = search + rel;
        // Excluded when the predicate is introduced by a standalone
        // `NOT` token (a word merely *ending* in "not" is not negation).
        let before = lower[..pos].trim_end();
        let negated = before.ends_with("not")
            && before[..before.len() - "not".len()]
                .chars()
                .next_back()
                .is_none_or(char::is_whitespace);
        let rest = &sql[pos + "action_class".len()..];
        let rest_l = &lower[pos + "action_class".len()..];
        let (names, consumed) = parse_class_operand(rest, rest_l)?;
        let sink = if negated { &mut exclude } else { &mut classes };
        for name in names {
            let class = ActionClass::from_query_name(&name)
                .ok_or_else(|| ParseError::UnknownClass(name.clone()))?;
            if !sink.contains(&class) {
                sink.push(class);
            }
        }
        search = pos + "action_class".len() + consumed;
    }
    if classes.is_empty() {
        return Err(ParseError::MissingClass);
    }

    // --- accuracy predicate ---
    let acc_pos = lower.find("accuracy").ok_or(ParseError::MissingAccuracy)?;
    let after = &sql[acc_pos + "accuracy".len()..];
    let after = after.trim_start();
    let after = after
        .strip_prefix(">=")
        .or_else(|| after.strip_prefix('='))
        .or_else(|| after.strip_prefix('>'))
        .ok_or(ParseError::MissingAccuracy)?
        .trim_start();
    let num_end = after
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(after.len());
    let num_str = &after[..num_end];
    let mut value: f64 = num_str
        .parse()
        .map_err(|_| ParseError::BadAccuracy(num_str.to_string()))?;
    if after[num_end..].trim_start().starts_with('%') || value > 1.0 {
        value /= 100.0;
    }
    if !(value > 0.0 && value < 1.0) {
        return Err(ParseError::BadAccuracy(format!("{value}")));
    }

    // --- latency budget ---
    let latency_budget_ms = match lower.find("latency_budget") {
        Some(pos) => {
            let after = &sql[pos + "latency_budget".len()..];
            let after = after.trim_start();
            let bad = || ParseError::BadLatencyBudget(after.trim().to_string());
            let after = after
                .strip_prefix("<=")
                .or_else(|| after.strip_prefix('<'))
                .or_else(|| after.strip_prefix('='))
                .ok_or_else(bad)?
                .trim_start();
            let num_end = after
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(after.len());
            let ms: f64 = after[..num_end].parse().map_err(|_| bad())?;
            if !after[num_end..].trim_start().starts_with("ms") {
                return Err(bad());
            }
            if !(ms > 0.0 && ms.is_finite()) {
                return Err(ParseError::BadLatencyBudget(format!("{ms}")));
            }
            Some(ms)
        }
        None => None,
    };

    let ir = QueryIr {
        base: ActionQuery::multi(classes, value)?,
        source,
        exclude,
        window,
        limit,
        latency_budget_ms,
        order,
        explain,
    };
    ir.validate()?;
    Ok(ir)
}

/// Strip a leading `EXPLAIN ANALYZE` prefix (case-insensitive,
/// whole-word), returning the remaining query text and whether the
/// prefix was present.
fn strip_explain(sql: &str) -> (&str, bool) {
    let trimmed = sql.trim_start();
    let lower = trimmed.to_ascii_lowercase();
    if let Some(rest) = lower.strip_prefix("explain") {
        let rest = rest.trim_start();
        if rest.starts_with("analyze") {
            let consumed = (trimmed.len() - rest.len()) + "analyze".len();
            let after = &trimmed[consumed..];
            if after.starts_with(char::is_whitespace) {
                return (after, true);
            }
        }
    }
    (sql, false)
}

/// Is `name` a valid (already-lowercased) dataset identifier?
fn is_dataset_name(name: &str) -> bool {
    // The name grammar is owned by `zeus_video::source::normalize_name`;
    // a routable name must additionally already *be* its normalized form
    // (the parser lowercases, and `to_sql` must round-trip).
    zeus_video::source::normalize_name(name).is_ok_and(|normalized| normalized == name)
}

/// Find a keyword as a standalone word (not a substring of an
/// identifier) in an already-lowercased haystack.
fn find_word(lower: &str, word: &str) -> Option<usize> {
    let mut search = 0;
    while let Some(rel) = lower[search..].find(word) {
        let pos = search + rel;
        let before_ok = lower[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_');
        let after_ok = lower[pos + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return Some(pos);
        }
        search = pos + word.len();
    }
    None
}

/// Parse the operand of one `action_class` predicate (`= 'name'` or
/// `IN ('a', 'b')`). Returns the class names and how many bytes of
/// `rest` were consumed.
fn parse_class_operand(rest: &str, rest_l: &str) -> Result<(Vec<String>, usize), ParseError> {
    if let Some(inpos) = rest_l.trim_start().strip_prefix("in") {
        let skipped = rest_l.len() - rest_l.trim_start().len();
        let open = inpos.find('(').ok_or(ParseError::MissingClass)?;
        let close = inpos[open..].find(')').ok_or(ParseError::MissingClass)? + open;
        let inner = &rest[skipped + 2 + open + 1..skipped + 2 + close];
        let mut names = Vec::new();
        for part in inner.split(',') {
            let name = part.trim().trim_matches('\'').trim_matches('"');
            if name.is_empty() {
                return Err(ParseError::MissingClass);
            }
            names.push(name.to_string());
        }
        if names.is_empty() {
            return Err(ParseError::MissingClass);
        }
        Ok((names, skipped + 2 + close + 1))
    } else {
        let eq = rest.find('=').ok_or(ParseError::MissingClass)?;
        let after = rest[eq + 1..].trim_start();
        let skipped = rest[eq + 1..].len() - after.len();
        // The operand must open with an ASCII quote (anything else —
        // including typographic quotes pasted from formatted text — is a
        // typed parse error, never a slicing panic).
        let quote = match after.chars().next() {
            Some(q @ ('\'' | '"')) => q,
            _ => return Err(ParseError::MissingClass),
        };
        let quote_end = after[1..].find(quote).ok_or(ParseError::MissingClass)?;
        let name = &after[1..1 + quote_end];
        Ok((vec![name.to_string()], eq + 1 + skipped + 1 + quote_end + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(sql: &str) -> QueryIr {
        parse_zql(sql).unwrap()
    }

    #[test]
    fn parses_the_papers_example() {
        // §1's example query (left turn at 80%).
        let ir = q("SELECT segment_ids FROM UDF(video) \
             WHERE action_class = 'left-turn' AND accuracy >= 80%");
        assert_eq!(ir.base.classes, vec![ActionClass::LeftTurn]);
        assert!((ir.base.target_accuracy - 0.80).abs() < 1e-9);
        assert!(ir.is_classic());
    }

    #[test]
    fn parses_fractional_accuracy() {
        let ir = q("SELECT segment_ids FROM UDF(video) \
             WHERE action_class = 'pole-vault' AND accuracy >= 0.75");
        assert_eq!(ir.base.classes, vec![ActionClass::PoleVault]);
        assert!((ir.base.target_accuracy - 0.75).abs() < 1e-9);
    }

    #[test]
    fn parses_multi_class_in_list() {
        let ir = q("SELECT segment_ids FROM UDF(video) \
             WHERE action_class IN ('cross-right', 'cross-left') AND accuracy >= 85%");
        assert_eq!(
            ir.base.classes,
            vec![ActionClass::CrossRight, ActionClass::CrossLeft]
        );
    }

    #[test]
    fn parses_the_full_extended_dialect() {
        let ir = q("SELECT segment_ids FROM UDF(video) \
             WHERE action_class IN ('cross-right', 'cross-left') \
             AND NOT action_class = 'left-turn' \
             AND accuracy >= 0.85 AND latency_budget <= 250ms \
             WINDOW [120, 480] ORDER BY confidence DESC LIMIT 10");
        assert_eq!(
            ir.base.classes,
            vec![ActionClass::CrossRight, ActionClass::CrossLeft]
        );
        assert_eq!(ir.exclude, vec![ActionClass::LeftTurn]);
        assert_eq!(ir.window, Some((120, 480)));
        assert_eq!(ir.limit, Some(10));
        assert_eq!(ir.latency_budget_ms, Some(250.0));
        assert_eq!(ir.order, Some(OrderBy::ConfidenceDesc));
    }

    #[test]
    fn extended_ir_roundtrips_through_to_sql() {
        let ir = QueryIr {
            base: ActionQuery::multi(vec![ActionClass::CrossRight], 0.846).unwrap(),
            source: Some("bdd100k".into()),
            exclude: vec![ActionClass::CrossLeft],
            window: Some((0, 300)),
            limit: Some(5),
            latency_budget_ms: Some(512.5),
            order: Some(OrderBy::ConfidenceAsc),
            explain: true,
        };
        assert_eq!(parse_zql(&ir.to_sql()), Ok(ir));
    }

    #[test]
    fn from_dataset_routes_and_roundtrips() {
        let ir = q("SELECT segment_ids FROM bdd100k \
             WHERE action_class = 'cross-right' AND accuracy >= 85%");
        assert_eq!(ir.source.as_deref(), Some("bdd100k"));
        assert!(!ir.is_classic(), "FROM <dataset> is an extended clause");
        assert_eq!(parse_zql(&ir.to_sql()), Ok(ir));
        // Names are lowercased at parse.
        let upper = q("SELECT segment_ids FROM THUMOS14 \
             WHERE action_class = 'pole-vault' AND accuracy >= 75%");
        assert_eq!(upper.source.as_deref(), Some("thumos14"));
        // UDF(video) stays the default-corpus spelling.
        let classic = q("SELECT segment_ids FROM UDF(video) \
             WHERE action_class = 'cross-right' AND accuracy >= 85%");
        assert_eq!(classic.source, None);
        // A *name* beginning with "udf" is a regular dataset, not the
        // default-corpus spelling — only the call form `udf(...)` is.
        let udfish = q("SELECT segment_ids FROM udf_logs \
             WHERE action_class = 'cross-right' AND accuracy >= 85%");
        assert_eq!(udfish.source.as_deref(), Some("udf_logs"));
        assert_eq!(parse_zql(&udfish.to_sql()), Ok(udfish));
    }

    #[test]
    fn keyword_bearing_dataset_names_parse_and_roundtrip() {
        // Clause keywords inside the FROM operand must not confuse the
        // predicate/clause parsers (they scan from WHERE onward only).
        for name in ["time_window", "speed_limit", "accuracy_test", "order_v2"] {
            let ir = q(&format!(
                "SELECT segment_ids FROM {name} \
                 WHERE action_class = 'cross-right' AND accuracy >= 85% LIMIT 3"
            ));
            assert_eq!(ir.source.as_deref(), Some(name));
            assert_eq!(ir.limit, Some(3));
            assert_eq!(parse_zql(&ir.to_sql()), Ok(ir));
        }
    }

    #[test]
    fn bad_from_operands_are_typed_errors() {
        for from in ["two words", "däta", "videos.parquet"] {
            let sql = format!(
                "SELECT segment_ids FROM {from} \
                 WHERE action_class = 'cross-right' AND accuracy >= 85%"
            );
            assert!(
                matches!(parse_zql(&sql), Err(ParseError::BadSource(_))),
                "FROM {from} must be rejected"
            );
        }
    }

    #[test]
    fn classic_query_roundtrips_through_to_sql() {
        let base =
            ActionQuery::multi(vec![ActionClass::CrossRight, ActionClass::LeftTurn], 0.85).unwrap();
        let ir = QueryIr::from_query(base.clone());
        assert_eq!(parse_zql(&ir.to_sql()), Ok(ir));
        // The display form (integer percent) parses back too.
        let parsed = parse_zql(&base.to_sql()).unwrap();
        assert_eq!(parsed.base, base);
    }

    #[test]
    fn rejects_unknown_class() {
        let err = parse_zql(
            "SELECT segment_ids FROM UDF(video) WHERE action_class = 'backflip' AND accuracy >= 80%",
        )
        .unwrap_err();
        assert_eq!(err, ParseError::UnknownClass("backflip".to_string()));
    }

    #[test]
    fn rejects_missing_pieces() {
        assert!(matches!(
            parse_zql("SELECT * FROM t"),
            Err(ParseError::NotAnActionQuery(_))
        ));
        assert!(matches!(
            parse_zql("SELECT segment_ids FROM UDF(video) WHERE accuracy >= 80%"),
            Err(ParseError::MissingClass)
        ));
        assert!(matches!(
            parse_zql("SELECT segment_ids FROM UDF(video) WHERE action_class = 'left-turn'"),
            Err(ParseError::MissingAccuracy)
        ));
    }

    #[test]
    fn rejects_out_of_range_accuracy() {
        for acc in ["150%", "100%", "1.0", "0", "0%"] {
            let sql = format!(
                "SELECT segment_ids FROM UDF(video) WHERE action_class = 'left-turn' AND accuracy >= {acc}"
            );
            assert!(
                matches!(parse_zql(&sql), Err(ParseError::BadAccuracy(_))),
                "accuracy {acc} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_bad_extended_clauses() {
        let base = "SELECT segment_ids FROM UDF(video) \
                    WHERE action_class = 'left-turn' AND accuracy >= 80%";
        assert!(matches!(
            parse_zql(&format!("{base} LIMIT 0")),
            Err(ParseError::BadLimit(_))
        ));
        assert!(matches!(
            parse_zql(&format!("{base} LIMIT many")),
            Err(ParseError::BadLimit(_))
        ));
        assert!(matches!(
            parse_zql(&format!("{base} WINDOW [300, 100]")),
            Err(ParseError::BadWindow(_))
        ));
        assert!(matches!(
            parse_zql(&format!("{base} WINDOW (1, 2)")),
            Err(ParseError::BadWindow(_))
        ));
        assert!(matches!(
            parse_zql(&format!("{base} ORDER BY recency")),
            Err(ParseError::BadOrderBy(_))
        ));
        let budget = "SELECT segment_ids FROM UDF(video) WHERE action_class = 'left-turn' \
                      AND accuracy >= 80% AND latency_budget <= 10s";
        assert!(matches!(
            parse_zql(budget),
            Err(ParseError::BadLatencyBudget(_))
        ));
    }

    #[test]
    fn typographic_quotes_are_a_parse_error_not_a_panic() {
        // Curly quotes pasted from formatted text are multi-byte; the
        // parser must return a typed error, never panic on a slice.
        let err = parse_zql(
            "SELECT segment_ids FROM UDF(video) \
             WHERE action_class = \u{2019}cross-right\u{2019} AND accuracy >= 85%",
        )
        .unwrap_err();
        assert_eq!(err, ParseError::MissingClass);
    }

    #[test]
    fn words_ending_in_not_do_not_negate() {
        // "cannot" ends in "not" but is not the NOT keyword.
        let ir = q("SELECT segment_ids FROM UDF(video) \
             WHERE cannot action_class = 'cross-right' AND accuracy >= 85%");
        assert_eq!(ir.base.classes, vec![ActionClass::CrossRight]);
        assert!(ir.exclude.is_empty());
    }

    #[test]
    fn rejects_conflicting_class_predicates() {
        let err = parse_zql(
            "SELECT segment_ids FROM UDF(video) WHERE action_class = 'left-turn' \
             AND NOT action_class = 'left-turn' AND accuracy >= 80%",
        )
        .unwrap_err();
        assert_eq!(err, ParseError::ConflictingClasses("left-turn".into()));
    }

    #[test]
    fn constructor_validates_without_panicking() {
        assert!(matches!(
            ActionQuery::new(ActionClass::LeftTurn, 1.5),
            Err(ParseError::BadAccuracy(_))
        ));
        assert!(matches!(
            ActionQuery::new(ActionClass::LeftTurn, 0.0),
            Err(ParseError::BadAccuracy(_))
        ));
        assert!(matches!(
            ActionQuery::multi(vec![], 0.8),
            Err(ParseError::MissingClass)
        ));
        assert!(ActionQuery::new(ActionClass::LeftTurn, 0.8).is_ok());
    }

    #[test]
    fn classic_dialect_base_is_exposed_on_the_ir() {
        let ir = parse_zql(
            "SELECT segment_ids FROM UDF(video) \
             WHERE action_class = 'left-turn' AND accuracy >= 80% LIMIT 3",
        )
        .unwrap();
        assert_eq!(ir.base.classes, vec![ActionClass::LeftTurn]);
        assert_eq!(ir.limit, Some(3));
    }
}
