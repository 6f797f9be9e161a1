//! Trace-driven simulation support.
//!
//! The paper's Section 2.3 study drives Ramulator from Pin-captured traces.
//! This module provides the equivalent front end: a plain-text trace format
//! (`cycle address R|W`, one request per line), a parser/serializer, and a
//! [`TraceSource`] that replays a trace into the memory system either at
//! its recorded timing or as fast as a request window allows.
//!
//! # Example
//!
//! ```
//! use pccs_dram::trace::{parse_trace, TraceSource, ReplayMode};
//! use pccs_dram::request::SourceId;
//! use pccs_dram::{DramConfig, DramSystem, PolicyKind};
//!
//! let text = "0 0x0 R\n4 0x40 R\n8 0x80 W\n";
//! let records = parse_trace(text)?;
//! let mut sys = DramSystem::new(DramConfig::cmp_study(), PolicyKind::FrFcfs);
//! sys.add_generator(TraceSource::new(SourceId(0), records, ReplayMode::Timed));
//! let out = sys.run(1_000);
//! assert_eq!(out.completed[&SourceId(0)], 3);
//! # Ok::<(), pccs_dram::trace::TraceParseError>(())
//! ```

use crate::config::DramConfig;
use crate::controller::Completion;
use crate::request::{MemoryRequest, ReqKind, SourceId};
use crate::traffic::TrafficSource;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Earliest cycle the request may be issued.
    pub cycle: u64,
    /// Physical byte address.
    pub addr: u64,
    /// Read or write.
    pub kind: ReqKind,
}

/// How a [`TraceSource`] paces its records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplayMode {
    /// Respect each record's cycle stamp (open-loop, timing-faithful).
    Timed,
    /// Ignore stamps; issue as fast as the window allows (closed-loop,
    /// bandwidth-probing).
    AsFast {
        /// Maximum outstanding requests.
        window: usize,
    },
}

/// A trace parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl Error for TraceParseError {}

/// Parses the plain-text trace format: one `cycle address R|W` triple per
/// line; addresses accept decimal or `0x` hex; blank lines and lines
/// starting with `#` are skipped.
///
/// # Errors
///
/// Returns a [`TraceParseError`] naming the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
    let mut records = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let t = raw.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let err = |reason: &str| TraceParseError {
            line,
            reason: reason.to_owned(),
        };
        let cycle: u64 = parts
            .next()
            .ok_or_else(|| err("missing cycle"))?
            .parse()
            .map_err(|_| err("bad cycle"))?;
        let addr_str = parts.next().ok_or_else(|| err("missing address"))?;
        let addr = if let Some(hex) = addr_str.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).map_err(|_| err("bad hex address"))?
        } else {
            addr_str.parse().map_err(|_| err("bad address"))?
        };
        let kind = match parts.next().ok_or_else(|| err("missing kind"))? {
            "R" | "r" => ReqKind::Read,
            "W" | "w" => ReqKind::Write,
            other => {
                return Err(TraceParseError {
                    line,
                    reason: format!("unknown kind '{other}'"),
                })
            }
        };
        if parts.next().is_some() {
            return Err(err("trailing tokens"));
        }
        records.push(TraceRecord { cycle, addr, kind });
    }
    Ok(records)
}

/// Serializes records into the text format accepted by [`parse_trace`].
pub fn format_trace(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let k = match r.kind {
            ReqKind::Read => 'R',
            ReqKind::Write => 'W',
        };
        out.push_str(&format!("{} 0x{:x} {}\n", r.cycle, r.addr, k));
    }
    out
}

/// Replays a trace as a [`TrafficSource`].
#[derive(Debug)]
pub struct TraceSource {
    source: SourceId,
    records: VecDeque<TraceRecord>,
    mode: ReplayMode,
    line_bytes: u32,
    outstanding: usize,
    issued: u64,
    completed: u64,
    retry: Option<MemoryRequest>,
}

impl TraceSource {
    /// Creates a replayer over `records` (must be sorted by cycle for
    /// [`ReplayMode::Timed`]; enforced here).
    ///
    /// # Panics
    ///
    /// Panics in timed mode when the records are not sorted by cycle.
    pub fn new(source: SourceId, records: Vec<TraceRecord>, mode: ReplayMode) -> Self {
        if matches!(mode, ReplayMode::Timed) {
            assert!(
                records.windows(2).all(|w| w[1].cycle >= w[0].cycle),
                "timed replay requires cycle-sorted records"
            );
        }
        Self {
            source,
            records: records.into(),
            mode,
            line_bytes: 64,
            outstanding: 0,
            issued: 0,
            completed: 0,
            retry: None,
        }
    }

    /// Records still waiting to be issued.
    pub fn remaining(&self) -> usize {
        self.records.len()
    }
}

impl TrafficSource for TraceSource {
    fn source_id(&self) -> SourceId {
        self.source
    }

    fn bind(&mut self, config: &DramConfig) {
        self.line_bytes = config.line_bytes;
    }

    fn poll(&mut self, cycle: u64) -> Option<MemoryRequest> {
        if let Some(req) = self.retry.take() {
            return Some(req);
        }
        let ready = match (self.records.front(), self.mode) {
            (Some(r), ReplayMode::Timed) => r.cycle <= cycle,
            (Some(_), ReplayMode::AsFast { window }) => self.outstanding < window,
            (None, _) => false,
        };
        if !ready {
            return None;
        }
        let r = self.records.pop_front()?;
        let id = self.issued;
        self.issued += 1;
        self.outstanding += 1;
        let mut req = MemoryRequest::read(id, self.source, r.addr, cycle);
        req.kind = r.kind;
        req.bytes = self.line_bytes;
        Some(req)
    }

    fn on_reject(&mut self, req: MemoryRequest) {
        self.retry = Some(req);
    }

    fn on_complete(&mut self, _completion: &Completion) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.completed += 1;
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::sim::DramSystem;

    #[test]
    fn parse_round_trips() {
        let records = vec![
            TraceRecord {
                cycle: 0,
                addr: 0x40,
                kind: ReqKind::Read,
            },
            TraceRecord {
                cycle: 7,
                addr: 4096,
                kind: ReqKind::Write,
            },
        ];
        let text = format_trace(&records);
        assert_eq!(parse_trace(&text).unwrap(), records);
    }

    #[test]
    fn parser_accepts_comments_and_decimal() {
        let text = "# header\n\n10 128 R\n";
        let r = parse_trace(text).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].addr, 128);
    }

    #[test]
    fn parser_reports_line_numbers() {
        let err = parse_trace("0 0x0 R\nbogus\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn parser_rejects_bad_kind_and_trailing() {
        assert!(parse_trace("0 0x0 X\n").is_err());
        assert!(parse_trace("0 0x0 R extra\n").is_err());
    }

    #[test]
    fn timed_replay_completes_all_records() {
        let records: Vec<TraceRecord> = (0..32)
            .map(|i| TraceRecord {
                cycle: i * 4,
                addr: i * 64,
                kind: ReqKind::Read,
            })
            .collect();
        let mut sys = DramSystem::new(DramConfig::cmp_study(), PolicyKind::FrFcfs);
        sys.add_generator(TraceSource::new(SourceId(0), records, ReplayMode::Timed));
        let out = sys.run(5_000);
        assert_eq!(out.completed[&SourceId(0)], 32);
    }

    #[test]
    fn as_fast_replay_respects_window() {
        let records: Vec<TraceRecord> = (0..64)
            .map(|i| TraceRecord {
                cycle: 0,
                addr: i * 64,
                kind: ReqKind::Read,
            })
            .collect();
        let mut src = TraceSource::new(SourceId(0), records, ReplayMode::AsFast { window: 4 });
        src.bind(&DramConfig::cmp_study());
        let mut got = 0;
        while src.poll(0).is_some() {
            got += 1;
        }
        assert_eq!(got, 4);
        assert_eq!(src.remaining(), 60);
    }

    #[test]
    #[should_panic(expected = "cycle-sorted")]
    fn timed_mode_rejects_unsorted() {
        let records = vec![
            TraceRecord {
                cycle: 10,
                addr: 0,
                kind: ReqKind::Read,
            },
            TraceRecord {
                cycle: 5,
                addr: 64,
                kind: ReqKind::Read,
            },
        ];
        TraceSource::new(SourceId(0), records, ReplayMode::Timed);
    }
}
