//! Declarative workload scenarios: classify batches mixed with
//! insert/remove bursts.
//!
//! The churn benches used to hand-roll interleaved
//! insert/classify/remove loops; [`ScenarioScript`] turns that into a
//! tiny reusable language. A script is parsed once, validated
//! statically, and then bound to concrete traffic and rules as a
//! streaming [`TraceSource`] ([`ScenarioSource`]) that any scenario
//! runner can drive.
//!
//! # Grammar
//!
//! Statements are separated by whitespace, newlines or `;`; `#` starts a
//! comment that runs to end of line.
//!
//! ```text
//! scenario := stmt*
//! stmt     := "classify" COUNT      # emit COUNT synthetic headers
//!           | "insert" COUNT        # emit COUNT rule installs from the pool
//!           | "remove" COUNT        # undo the COUNT oldest not-yet-removed inserts
//!           | "repeat" COUNT "{" scenario "}"
//! ```
//!
//! `remove` refers to this scenario's own earlier `insert`s in FIFO
//! order; a script that would ever remove more than it has inserted is
//! rejected at parse time ([`ScenarioError::RemoveUnderflow`]), so a
//! bound source never emits an unsatisfiable
//! [`TraceEvent::Remove`].
//!
//! # Example
//!
//! ```
//! use spc_classbench::{
//!     FilterKind, RuleSetGenerator, ScenarioScript, TraceEvent, TraceGenerator, TraceSource,
//! };
//!
//! let base = RuleSetGenerator::new(FilterKind::Acl, 100).seed(1).generate();
//! let pool = RuleSetGenerator::new(FilterKind::Fw, 32).seed(2).generate();
//! let script = ScenarioScript::parse(
//!     "repeat 3 { insert 4; classify 100; remove 2 }  # bursty churn",
//! )
//! .unwrap();
//! assert_eq!(script.total_headers(), 300);
//! assert_eq!(script.total_inserts(), 12);
//! let mut source = script
//!     .source(&TraceGenerator::new().seed(7), &base, pool.rules())
//!     .unwrap();
//! let mut inserts = 0;
//! while let Some(event) = source.next_event().unwrap() {
//!     if let TraceEvent::Insert(_) = event {
//!         inserts += 1;
//!     }
//! }
//! assert_eq!(inserts, 12);
//! ```

use crate::source::{TraceError, TraceEvent, TraceSource, DEFAULT_CHUNK};
use crate::trace::{Sampler, TraceGenerator};
use spc_types::{Rule, RuleSet};
use std::fmt;

/// One scenario statement.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Stmt {
    Classify(u64),
    Insert(u64),
    Remove(u64),
    Repeat(u64, Vec<Stmt>),
}

/// Error from parsing or binding a [`ScenarioScript`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The script text did not match the grammar.
    Parse {
        /// What was wrong, with the offending token where applicable.
        reason: String,
    },
    /// Somewhere in the script, more rules would have been removed than
    /// inserted up to that point — the removes have nothing to refer to.
    RemoveUnderflow,
    /// The script inserts rules but the bound pool is empty.
    EmptyPool,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse { reason } => write!(f, "bad scenario script: {reason}"),
            ScenarioError::RemoveUnderflow => write!(
                f,
                "scenario removes more rules than it has inserted at that point \
                 (removes refer to the scenario's own earlier inserts)"
            ),
            ScenarioError::EmptyPool => {
                write!(f, "scenario inserts rules but the rule pool is empty")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A parsed, validated workload scenario. Bind it to concrete traffic
/// and rules with [`ScenarioScript::source`]. The grammar —
/// `classify N` / `insert N` / `remove N` / `repeat N { ... }`,
/// separated by whitespace, newlines or `;`, with `#` comments — is
/// documented in full in `docs/workloads.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioScript {
    program: Vec<Stmt>,
}

/// Net effect of a statement block on the insert/remove balance: the
/// total delta and the minimum the running balance reaches relative to
/// the block's start. All arithmetic saturates — nested `repeat`s can
/// multiply counts past any fixed width, and a saturated balance keeps
/// its sign, which is all the underflow check needs.
fn balance_effect(stmts: &[Stmt]) -> (i128, i128) {
    let (mut balance, mut min) = (0i128, 0i128);
    for stmt in stmts {
        match stmt {
            Stmt::Classify(_) => {}
            Stmt::Insert(n) => balance = balance.saturating_add(i128::from(*n)),
            Stmt::Remove(n) => {
                balance = balance.saturating_sub(i128::from(*n));
                min = min.min(balance);
            }
            Stmt::Repeat(k, body) => {
                let (delta, body_min) = balance_effect(body);
                let k = i128::from(*k);
                if k > 0 {
                    // The worst iteration starts from the lowest running
                    // balance: the first when the body is net-positive,
                    // the last when it is net-negative.
                    let worst_start = if delta >= 0 {
                        0
                    } else {
                        (k - 1).saturating_mul(delta)
                    };
                    min = min.min(balance.saturating_add(worst_start).saturating_add(body_min));
                    balance = balance.saturating_add(k.saturating_mul(delta));
                }
            }
        }
    }
    (balance, min)
}

/// Sums one kind of count across the block, repeats multiplied through
/// (saturating, like [`balance_effect`]).
fn total(stmts: &[Stmt], pick: fn(&Stmt) -> u64) -> u128 {
    stmts.iter().fold(0u128, |acc, s| {
        acc.saturating_add(match s {
            Stmt::Repeat(k, body) => u128::from(*k).saturating_mul(total(body, pick)),
            other => u128::from(pick(other)),
        })
    })
}

impl ScenarioScript {
    /// Parses and validates a script.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] for text outside the grammar and
    /// [`ScenarioError::RemoveUnderflow`] for a script whose removes
    /// ever outrun its inserts.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut tokens: Vec<&str> = Vec::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("");
            for raw in line.split([';', ' ', '\t']) {
                // Braces bind tight in written scripts ("...remove 2 }");
                // split them into their own tokens.
                let mut rest = raw;
                while let Some(i) = rest.find(['{', '}']) {
                    if i > 0 {
                        tokens.push(&rest[..i]);
                    }
                    tokens.push(&rest[i..=i]);
                    rest = &rest[i + 1..];
                }
                if !rest.is_empty() {
                    tokens.push(rest);
                }
            }
        }
        let (program, consumed) = Self::parse_block(&tokens, 0)?;
        if consumed != tokens.len() {
            return Err(ScenarioError::Parse {
                reason: format!("unexpected {:?} outside any block", tokens[consumed]),
            });
        }
        let (_, min) = balance_effect(&program);
        if min < 0 {
            return Err(ScenarioError::RemoveUnderflow);
        }
        Ok(ScenarioScript { program })
    }

    /// Parses statements from `tokens[i..]` until a `}` or end of input;
    /// returns the block and the index just past it (past the `}` for
    /// nested blocks, which the caller checks via the `repeat` path).
    fn parse_block(tokens: &[&str], mut i: usize) -> Result<(Vec<Stmt>, usize), ScenarioError> {
        let mut stmts = Vec::new();
        let count = |tokens: &[&str], i: usize, kw: &str| -> Result<u64, ScenarioError> {
            let tok = tokens.get(i).ok_or_else(|| ScenarioError::Parse {
                reason: format!("{kw} needs a count"),
            })?;
            tok.parse().map_err(|_| ScenarioError::Parse {
                reason: format!("{kw} needs a count, got {tok:?}"),
            })
        };
        while i < tokens.len() {
            match tokens[i] {
                "}" => break,
                "classify" => {
                    stmts.push(Stmt::Classify(count(tokens, i + 1, "classify")?));
                    i += 2;
                }
                "insert" => {
                    stmts.push(Stmt::Insert(count(tokens, i + 1, "insert")?));
                    i += 2;
                }
                "remove" => {
                    stmts.push(Stmt::Remove(count(tokens, i + 1, "remove")?));
                    i += 2;
                }
                "repeat" => {
                    let n = count(tokens, i + 1, "repeat")?;
                    if tokens.get(i + 2) != Some(&"{") {
                        return Err(ScenarioError::Parse {
                            reason: "repeat needs a { ... } block".to_string(),
                        });
                    }
                    let (body, after) = Self::parse_block(tokens, i + 3)?;
                    if tokens.get(after) != Some(&"}") {
                        return Err(ScenarioError::Parse {
                            reason: "unclosed { in repeat block".to_string(),
                        });
                    }
                    stmts.push(Stmt::Repeat(n, body));
                    i = after + 1;
                }
                other => {
                    return Err(ScenarioError::Parse {
                        reason: format!("unknown statement {other:?}"),
                    })
                }
            }
        }
        Ok((stmts, i))
    }

    /// Headers the scenario will classify, repeats multiplied through
    /// (saturating at `u64::MAX`).
    pub fn total_headers(&self) -> u64 {
        total(&self.program, |s| match s {
            Stmt::Classify(n) => *n,
            _ => 0,
        })
        .min(u128::from(u64::MAX)) as u64
    }

    /// Rules the scenario will insert.
    pub fn total_inserts(&self) -> u64 {
        total(&self.program, |s| match s {
            Stmt::Insert(n) => *n,
            _ => 0,
        })
        .min(u128::from(u64::MAX)) as u64
    }

    /// Binds the script to concrete inputs as a streaming
    /// [`ScenarioSource`]: classify traffic is sampled by `traffic` over
    /// `rules` (the base rule set), inserts draw from `pool` in order
    /// (cycling when exhausted).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyPool`] if the script inserts rules but
    /// `pool` is empty.
    ///
    /// # Panics
    ///
    /// Panics if the script classifies traffic, `rules` is empty and
    /// `traffic`'s match fraction is above zero — the same contract as
    /// [`TraceGenerator::generate`].
    pub fn source<'a>(
        &'a self,
        traffic: &TraceGenerator,
        rules: &'a RuleSet,
        pool: &'a [Rule],
    ) -> Result<ScenarioSource<'a>, ScenarioError> {
        if self.total_inserts() > 0 && pool.is_empty() {
            return Err(ScenarioError::EmptyPool);
        }
        if self.total_headers() > 0 {
            assert!(
                !rules.is_empty() || traffic.match_fraction_value() == 0.0,
                "cannot sample matching traffic from an empty rule set"
            );
        }
        Ok(ScenarioSource {
            frames: vec![Frame {
                stmts: &self.program,
                next: 0,
                reps_left: 1,
            }],
            pending: Pending::None,
            sampler: traffic.sampler(),
            rules,
            pool,
            pool_next: 0,
            inserts_emitted: 0,
            removes_emitted: 0,
            chunk: DEFAULT_CHUNK,
        })
    }
}

/// One level of the scenario cursor: a block being executed, possibly
/// for several repetitions.
#[derive(Debug, Clone)]
struct Frame<'a> {
    stmts: &'a [Stmt],
    next: usize,
    reps_left: u64,
}

/// The statement currently being drained into events.
#[derive(Debug, Clone, Copy)]
enum Pending {
    None,
    Classify(u64),
    Insert(u64),
    Remove(u64),
}

/// A [`ScenarioScript`] bound to traffic, rules and a pool — the
/// streaming [`TraceSource`] that interleaves header chunks with
/// insert/remove events. Created by [`ScenarioScript::source`].
#[derive(Debug, Clone)]
pub struct ScenarioSource<'a> {
    frames: Vec<Frame<'a>>,
    pending: Pending,
    sampler: Sampler,
    rules: &'a RuleSet,
    pool: &'a [Rule],
    pool_next: usize,
    inserts_emitted: usize,
    removes_emitted: usize,
    chunk: usize,
}

impl ScenarioSource<'_> {
    /// Sets the headers-per-event chunk size (clamped to at least 1).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Advances the cursor past repeats to the next draining statement,
    /// or `None` when the program has run out.
    fn next_pending(&mut self) -> Option<Pending> {
        loop {
            let frame = self.frames.last_mut()?;
            if frame.next == frame.stmts.len() {
                frame.reps_left -= 1;
                if frame.reps_left == 0 {
                    self.frames.pop();
                } else {
                    frame.next = 0;
                }
                continue;
            }
            let stmts = frame.stmts;
            let stmt = &stmts[frame.next];
            frame.next += 1;
            match stmt {
                Stmt::Classify(n) => return Some(Pending::Classify(*n)),
                Stmt::Insert(n) => return Some(Pending::Insert(*n)),
                Stmt::Remove(n) => return Some(Pending::Remove(*n)),
                Stmt::Repeat(0, _) => continue,
                Stmt::Repeat(k, body) => {
                    self.frames.push(Frame {
                        stmts: body,
                        next: 0,
                        reps_left: *k,
                    });
                    continue;
                }
            }
        }
    }
}

impl TraceSource for ScenarioSource<'_> {
    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        loop {
            match self.pending {
                Pending::None => {
                    self.pending = match self.next_pending() {
                        None => return Ok(None),
                        Some(p) => p,
                    };
                }
                Pending::Classify(0) | Pending::Insert(0) | Pending::Remove(0) => {
                    self.pending = Pending::None;
                }
                Pending::Classify(n) => {
                    let take = u64::try_from(self.chunk).unwrap_or(u64::MAX).min(n);
                    let mut chunk = Vec::with_capacity(take as usize);
                    for _ in 0..take {
                        chunk.push(self.sampler.next_header(self.rules));
                    }
                    self.pending = Pending::Classify(n - take);
                    return Ok(Some(TraceEvent::Headers(chunk)));
                }
                Pending::Insert(n) => {
                    let rule = self.pool[self.pool_next % self.pool.len()];
                    self.pool_next += 1;
                    self.inserts_emitted += 1;
                    self.pending = Pending::Insert(n - 1);
                    return Ok(Some(TraceEvent::Insert(rule)));
                }
                Pending::Remove(n) => {
                    debug_assert!(
                        self.removes_emitted < self.inserts_emitted,
                        "parse-time validation keeps removes behind inserts"
                    );
                    let insert = self.removes_emitted;
                    self.removes_emitted += 1;
                    self.pending = Pending::Remove(n - 1);
                    return Ok(Some(TraceEvent::Remove { insert }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FilterKind, RuleSetGenerator};

    fn base_and_pool() -> (RuleSet, RuleSet) {
        (
            RuleSetGenerator::new(FilterKind::Acl, 80)
                .seed(1)
                .generate(),
            RuleSetGenerator::new(FilterKind::Fw, 24).seed(2).generate(),
        )
    }

    fn drain(mut src: ScenarioSource<'_>) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        while let Some(ev) = src.next_event().unwrap() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn parse_totals_and_event_stream_agree() {
        let (base, pool) = base_and_pool();
        let script =
            ScenarioScript::parse("classify 10; repeat 2 { insert 3; classify 5; remove 1 }")
                .unwrap();
        assert_eq!(script.total_headers(), 20);
        assert_eq!(script.total_inserts(), 6);
        let src = script
            .source(&TraceGenerator::new().seed(3), &base, pool.rules())
            .unwrap()
            .with_chunk(4);
        let events = drain(src);
        let headers: usize = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Headers(h) => Some(h.len()),
                _ => None,
            })
            .sum();
        let inserts = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Insert(_)))
            .count();
        let removes: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Remove { insert } => Some(*insert),
                _ => None,
            })
            .collect();
        assert_eq!(headers, 20);
        assert_eq!(inserts, 6);
        assert_eq!(removes, vec![0, 1], "FIFO over the scenario's own inserts");
    }

    #[test]
    fn classify_traffic_matches_the_plain_generator() {
        let (base, pool) = base_and_pool();
        let gen = TraceGenerator::new().seed(11).locality(0.3);
        let script = ScenarioScript::parse("classify 64; classify 36").unwrap();
        let events = drain(script.source(&gen, &base, pool.rules()).unwrap());
        let got: Vec<_> = events
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Headers(h) => Some(h),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(got, gen.generate(&base, 100), "one sampler stream");
    }

    #[test]
    fn nested_repeats_expand() {
        let (base, pool) = base_and_pool();
        let script = ScenarioScript::parse("repeat 2 { repeat 3 { insert 1 } remove 3 }").unwrap();
        assert_eq!(script.total_inserts(), 6);
        let events = drain(
            script
                .source(&TraceGenerator::new(), &base, pool.rules())
                .unwrap(),
        );
        assert_eq!(events.len(), 12);
        // Pool rules cycle in order.
        assert_eq!(events[0], TraceEvent::Insert(pool.rules()[0]), "pool order");
    }

    #[test]
    fn comments_separators_and_zero_repeat() {
        let script = ScenarioScript::parse(
            "# warm-up\nclassify 5\nrepeat 0 { insert 100 }\nclassify 5 # tail",
        )
        .unwrap();
        assert_eq!(script.total_headers(), 10);
        assert_eq!(script.total_inserts(), 0);
        let empty = ScenarioScript::parse("  # nothing \n").unwrap();
        assert_eq!(empty.total_headers(), 0);
        let (base, pool) = base_and_pool();
        assert!(drain(
            empty
                .source(&TraceGenerator::new(), &base, pool.rules())
                .unwrap()
        )
        .is_empty());
    }

    #[test]
    fn parse_errors_are_typed() {
        for (text, needle) in [
            ("classify ten", "count"),
            ("classify", "count"),
            ("frobnicate 3", "unknown statement"),
            ("repeat 2 insert 1", "block"),
            ("repeat 2 { insert 1", "unclosed"),
            ("insert 1 }", "outside any block"),
        ] {
            let e = ScenarioScript::parse(text).unwrap_err();
            match &e {
                ScenarioError::Parse { reason } => {
                    assert!(reason.contains(needle), "{text:?}: {reason}");
                }
                other => panic!("{text:?}: expected parse error, got {other:?}"),
            }
            assert!(e.to_string().contains("bad scenario script"));
        }
    }

    #[test]
    fn remove_underflow_is_rejected_statically() {
        for text in [
            "remove 1",
            "insert 1; remove 2",
            "repeat 2 { insert 1; remove 2 }",
            // Net-negative body: fine on iteration 1, underflows later.
            "insert 4; repeat 3 { remove 2 }",
        ] {
            assert_eq!(
                ScenarioScript::parse(text).unwrap_err(),
                ScenarioError::RemoveUnderflow,
                "{text:?}"
            );
        }
        // Balanced interleavings are fine, including across repeats.
        for text in [
            "insert 2; remove 2",
            "repeat 4 { insert 2; remove 1 }; remove 4",
            "insert 4; repeat 2 { remove 2 }",
        ] {
            assert!(ScenarioScript::parse(text).is_ok(), "{text:?}");
        }
    }

    #[test]
    fn astronomical_repeat_counts_validate_without_overflow() {
        // Nested repeats multiply far past i128/u128; validation must
        // saturate, not panic or wrap into a wrong verdict.
        let huge = u64::MAX;
        let script = ScenarioScript::parse(&format!(
            "repeat {huge} {{ repeat {huge} {{ insert {huge}; classify {huge} }} }}"
        ))
        .unwrap();
        assert_eq!(script.total_inserts(), u64::MAX, "saturated");
        assert_eq!(script.total_headers(), u64::MAX, "saturated");
        // And a genuinely underflowing script at that scale is still
        // caught.
        assert_eq!(
            ScenarioScript::parse(&format!(
                "repeat {huge} {{ repeat {huge} {{ insert {huge} }} }} remove 1; remove {huge}"
            ))
            .map(|_| ()),
            Ok(()),
            "saturated positive balance still covers removes"
        );
        assert_eq!(
            ScenarioScript::parse(&format!("repeat {huge} {{ insert 1; remove 2 }}")).unwrap_err(),
            ScenarioError::RemoveUnderflow
        );
    }

    #[test]
    fn empty_pool_is_rejected_at_bind_time() {
        let (base, _) = base_and_pool();
        let script = ScenarioScript::parse("insert 1").unwrap();
        assert_eq!(
            script
                .source(&TraceGenerator::new(), &base, &[])
                .unwrap_err(),
            ScenarioError::EmptyPool
        );
        // A classify-only script does not need a pool.
        let script = ScenarioScript::parse("classify 3").unwrap();
        assert!(script.source(&TraceGenerator::new(), &base, &[]).is_ok());
    }

    #[test]
    #[should_panic(expected = "empty rule set")]
    fn classify_over_empty_rules_panics_like_generate() {
        let script = ScenarioScript::parse("classify 1").unwrap();
        let _ = script.source(&TraceGenerator::new(), &RuleSet::new(), &[]);
    }
}
