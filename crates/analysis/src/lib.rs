//! Static model checker for the L2CAP protocol model.
//!
//! The fuzzer's effectiveness rests on claims the rest of the workspace
//! merely asserts: that the `REACHABLE_FROM_INITIATOR` masks in
//! `l2cap::state` list exactly the states an initiator-driven
//! [`StateMachine`](l2cap::StateMachine) can rest in, that the state
//! guide's hand-written command sequences actually reach the states they
//! claim to, and that every seeded vulnerability's trigger state is
//! reachable on every transport its device profile serves.  This crate
//! *proves* those claims by exhaustive search instead of trusting them:
//!
//! * [`model`] — breadth-first exploration of `spec_transition` for both
//!   link types, with the deployed `StateMachine` as the stepping
//!   primitive, yielding the true reachable set and a minimal replayable
//!   [`Witness`] per reachable state.
//! * [`plan`] — derivation of guide-executable [`FuzzPlan`]s from the
//!   witnesses, so the fuzzer's state guide is generated from the model
//!   rather than maintained by hand.
//! * [`checks`] — mask parity, witness replay, plan validation, dead
//!   transition rows, and BR/EDR-vs-LE asymmetries, diffed against a pinned
//!   [`Allowlist`].
//! * [`vulns`] — a reachability certificate for every `(profile,
//!   vulnerability, link)` triple the campaign can serve.
//! * [`lints`] — source-level invariant lints (panicking operations and
//!   non-literal indexing in hot-path crates).
//! * [`report`] — the aggregate [`AnalysisReport`] with text and JSON
//!   renderings, exposed by the `l2fuzz-analyze` binary and gating CI.

#![forbid(unsafe_code)]

pub mod checks;
pub mod lints;
pub mod model;
pub mod plan;
pub mod report;
pub mod vulns;

pub use checks::{check_model, ActionClass, Allowlist, Asymmetry, DeadRow, ModelCheck, Violation};
pub use lints::{run_lints, LintFinding, LintReport, HOT_PATH_CRATES};
pub use model::{witness, witnesses, Exploration, Input, LinkModel, Witness};
pub use plan::{fuzz_plan, fuzz_plans, validate_plan, FuzzPlan, PlanKind, GUIDE_SENDABLE};
pub use report::{AnalysisReport, PlanIndexEntry};
pub use vulns::{certify_vulnerabilities, CertificateEntry, VulnCertificate};
