//! Behaviour-faithful re-implementations of the Bluetooth fuzzers the paper
//! compares against (§IV, Table VII, Figs. 8–11).
//!
//! These are not line-by-line ports of the original tools (two of which are
//! proprietary); they reproduce the *strategies* the paper describes and
//! attributes the comparison results to:
//!
//! * [`defensics::DefensicsFuzzer`] — template-driven, mostly well-formed
//!   test cases, one test packet per state, very low throughput.
//! * [`bfuzz::BFuzzFuzzer`] — replays previously-vulnerable seed packets and
//!   mutates almost every field (including dependent length fields), so most
//!   of its traffic is rejected as "command not understood".
//! * [`bss::BssFuzzer`] — Bluetooth Stack Smasher: mutates a single field of
//!   old (Bluetooth 2.1 era) command templates from the closed state, never
//!   producing packets the receiver counts as malformed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfuzz;
pub mod bss;
pub mod defensics;

pub use bfuzz::BFuzzFuzzer;
pub use bss::BssFuzzer;
pub use defensics::DefensicsFuzzer;

use btcore::{Identifier, SimClock};
use hci::medium::LinkHandle;
use l2cap::command::Command;
use l2cap::packet::parse_signaling;
use std::time::Duration;

/// Shared transmit helper of the three baselines: charge the tool's
/// per-test-case think time, frame the command and send it.
///
/// Every baseline only ever inspects Connection Responses in the answers
/// (to learn the allocated DCID), so only those are decoded — the rest of
/// the response path stays allocation-free.
pub(crate) fn send_command(
    clock: &SimClock,
    think_time: Duration,
    link: &mut LinkHandle,
    id: u8,
    command: &Command,
) -> Vec<Command> {
    clock.advance(think_time);
    link.send_frame(&l2cap::packet::signaling_frame(
        Identifier(id.max(1)),
        command,
    ))
    .iter()
    .filter_map(|f| parse_signaling(f).ok())
    .filter(|p| p.code == l2cap::code::CommandCode::ConnectionResponse.value())
    .map(|p| p.command())
    .collect()
}
