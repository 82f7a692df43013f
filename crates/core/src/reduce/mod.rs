//! Reduce primitives: operators, the degree model, and the dynamic reduce tree.

pub mod degree;
pub mod op;
pub mod tree;

pub use degree::DegreeModel;
pub use op::{DType, ReduceOp, ReduceSpec};
pub use tree::{ReduceInput, ReduceTreePlan, SlotShape, SlotView, TreeShape};
