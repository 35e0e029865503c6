//! # enframe-translate — from user programs to event programs
//!
//! Implements §3.5 of the paper: user programs written in the Python
//! fragment are *annotated with events*, turning every program variable
//! into a random variable whose possible outcomes are conditioned on
//! events.
//!
//! The translator is an **abstract executor**: it runs the user program
//! with translation-time values ([`Slot`]) in which all loop bounds and
//! array shapes are concrete (the language guarantees this) while data
//! touched by uncertainty is symbolic. Every assignment of a symbolic
//! value emits an immutable event declaration, named by the user variable
//! and indexed by that variable's next flat version number (0, 1, 2, …)
//! — in place of the paper's block-counter `getLabel` labels, which are
//! not used.
//!
//! Translation fixes two small inconsistencies in the paper's §3.5
//! translation table. Taken literally, each would let a filtered-out
//! element change the aggregate, breaking the correctness contract below:
//!
//! * `reduce_and([E for i in r if C])` becomes `∧ᵢ (¬Cᵢ ∨ Eᵢ)` (the paper's
//!   `∧ᵢ Cᵢ ∧ Eᵢ` would force all filters true);
//! * `reduce_mult` with a filter becomes `Πᵢ (¬Cᵢ ⊗ 1 + Cᵢ ∧ Eᵢ)` so that
//!   filtered-out factors act as the multiplicative identity rather than
//!   absorbing the product into `u`.
//!
//! Unfiltered aggregates translate exactly as in the paper
//! (`reduce_sum → Σ`, `reduce_count → Σ C ⊗ 1`, …).
//!
//! ## The correctness contract
//!
//! For every complete valuation ν of the random variables:
//! *interpreting* the user program on the world selected by ν (absent
//! objects read as `u`) produces the same values as *evaluating* the
//! translated event program under ν. This is property-tested in
//! `tests/translation_equivalence.rs` at the workspace root.

pub mod env;
pub mod targets;
pub mod translate;

pub use env::{world_env, ProbEnv, ProbMatrix, ProbObjects, ProbValue};
pub use translate::{translate, Slot, TranslateError, Translated};
