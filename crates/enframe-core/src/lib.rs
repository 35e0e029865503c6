//! # enframe-core — the ENFrame event language
//!
//! This crate implements the *event language* of the ENFrame platform
//! (van Schaik, Olteanu, Fink: "ENFrame: A Platform for Processing
//! Probabilistic Data", EDBT 2014, §3): a fine-grained provenance language
//! that traces the computation of user programs over probabilistic data and
//! gives every program variable a well-defined probabilistic semantics.
//!
//! The main concepts are:
//!
//! * [`Value`] — scalars and feature vectors extended with the *undefined*
//!   element `u` (`ū` for vectors) and the algebraic laws of §3.2
//!   (`u + x = x`, `u · x = u`, `0⁻¹ = u`, …).
//! * [`Event`] — Boolean event expressions: propositional formulas over
//!   Boolean random variables, named events, and comparison *atoms* between
//!   conditional values.
//! * [`CVal`] — conditional values (*c-values*): expressions of the form
//!   `Φ ⊗ v` that take the value `v` when the event `Φ` is true and `u`
//!   otherwise, closed under `+`, `·`, `⁻¹`, exponentiation, `dist`, and
//!   guarding (`Φ ∧ c`).
//! * [`Program`] — *event programs*: immutable named event/c-value
//!   declarations, each returning a typed handle ([`EventId`] /
//!   [`CValId`]) that later terms [reference](Program::eref); the table
//!   [grounds](Program::ground) into a [`GroundProgram`] without a copy.
//! * [`VarTable`] / [`space`] — the probability space induced by the input
//!   random variables (Definition 1 of the paper), brute-force world
//!   enumeration, and exact distributions of event/c-value targets. These
//!   are the *reference semantics* against which the optimized engines in
//!   `enframe-prob` are validated.
//!
//! ## Quick example
//!
//! ```
//! use enframe_core::{Program, VarTable, Var, space};
//!
//! // Φ(o0) = x1 ∨ x3 with P(x1)=0.5, P(x3)=0.5 — probability 0.75.
//! let mut p = Program::new();
//! let x1 = Var(0);
//! let x3 = Var(1);
//! let o0 = p.declare_event("phi_o0", Program::or([Program::var(x1), Program::var(x3)]));
//! // Φ(o0) ∧ ¬x1, through a reference to the declaration.
//! let only_x3 = p.declare_event("only_x3", Program::and([Program::eref(o0), Program::nvar(x1)]));
//! p.add_target(o0);
//! p.add_target(only_x3);
//! let ground = p.ground().unwrap();
//! let vt = VarTable::uniform(2, 0.5);
//! let probs = space::target_probabilities(&ground, &vt);
//! assert!((probs[0] - 0.75).abs() < 1e-12);
//! assert!((probs[1] - 0.25).abs() < 1e-12);
//! ```

pub mod budget;
pub mod error;
pub mod event;
pub mod failpoint;
pub mod fingerprint;
pub mod fxhash;
pub mod ground;
pub mod pool;
pub mod program;
pub mod space;
pub mod symbol;
pub mod value;
pub mod var;
pub mod workers;

pub use budget::{Budget, BudgetScope, Exceeded, Resource};
pub use error::CoreError;
pub use event::{CVal, CmpOp, Event};
pub use ground::{Def, DefId, GroundProgram, Ident};
pub use program::{CValId, EventId, Program};
pub use symbol::{Interner, Symbol};
pub use value::Value;
pub use var::{Valuation, Var, VarTable};
