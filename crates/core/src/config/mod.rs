//! Buffer configuration: Algorithm 1 and the resulting [`BufferPlan`].

pub mod algorithm1;
pub mod plan;
pub mod sources;

pub use algorithm1::{Algorithm1, RangeDecision, SplitCost};
pub use plan::{BufferPlan, HybridMode, PlanStrategy, Segment, SourceRef, StaticBufferSpec};
pub use sources::{SourceSlot, SourceTable};
