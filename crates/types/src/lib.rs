//! Core network types for SDN packet classification.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: IPv4 [`Prefix`]es, [`PortRange`]s, [`ProtoSpec`]s, 5-tuple
//! [`Rule`]s with priorities and OpenFlow-style [`Action`]s, [`RuleSet`]s,
//! packet [`Header`]s, and the *dimension* decomposition used by the
//! label-based architecture of Guerra Pérez et al. (SOCC 2014): each 32-bit
//! IP field is split into two 16-bit segments, giving seven lookup
//! dimensions ([`Dim`]) per rule.
//!
//! # Example
//!
//! ```
//! use spc_types::{Rule, RuleSet, Header, Action, Prefix, PortRange, ProtoSpec, Priority};
//!
//! # fn main() -> Result<(), spc_types::TypeError> {
//! let rule = Rule::builder(Priority(0))
//!     .src_ip(Prefix::parse("192.168.0.0/16")?)
//!     .dst_port(PortRange::exact(443))
//!     .proto(ProtoSpec::Exact(6))
//!     .action(Action::Forward(1))
//!     .build();
//!
//! let hdr = Header::new([192, 168, 3, 4].into(), [10, 0, 0, 1].into(), 5555, 443, 6);
//! assert!(rule.matches(&hdr));
//! # Ok(())
//! # }
//! ```

mod action;
mod dim;
mod error;
mod fmt_classbench;
mod header;
mod prefix;
mod proto;
mod range;
mod rule;
mod ruleset;

pub use action::Action;
pub use dim::{Dim, DimValue, ALL_DIMS, IP_SEG_DIMS};
pub use error::TypeError;
pub use fmt_classbench::{parse_ruleset, write_ruleset};
pub use header::Header;
pub use prefix::{Ipv4, Prefix, SegPrefix};
pub use proto::ProtoSpec;
pub use range::PortRange;
pub use rule::{Priority, Rule, RuleBuilder, RuleId};
pub use ruleset::{FieldUniques, RuleSet};
