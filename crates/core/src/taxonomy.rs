//! The two taxonomies the paper is built on.
//!
//! 1. [`NsCategory`] — the five neuro-symbolic *system* categories from
//!    Henry Kautz's taxonomy as used in Tab. I of the paper.
//! 2. [`OpCategory`] — the six *operator* categories of Sec. IV-B into which
//!    every profiled kernel is classified.
//! 3. [`Phase`] — whether an operator belongs to the neural or the symbolic
//!    component of a workload (the partition behind Fig. 2a).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The five neuro-symbolic system categories of Tab. I.
///
/// Each of the seven representative workloads belongs to exactly one
/// category; the category predicts its kernel mix and data-dependency shape
/// (Sec. II: *"Each neuro-symbolic category reflects different kernel
/// operators and data dependencies."*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NsCategory {
    /// `Symbolic[Neuro]` — an end-to-end symbolic system that uses neural
    /// models internally as a subroutine (e.g. AlphaGo's MCTS + NN).
    SymbolicNeuro,
    /// `Neuro|Symbolic` — a pipelined system integrating neural and symbolic
    /// components, each specializing in complementary tasks (e.g. NVSA,
    /// VSAIT, PrAE).
    NeuroPipeSymbolic,
    /// `Neuro:Symbolic → Neuro` — symbolic knowledge compiled into the
    /// structure of a neural model (e.g. LNN).
    NeuroSymbolicToNeuro,
    /// `Neuro_Symbolic` — symbolic first-order logic mapped onto embeddings
    /// serving as soft constraints/regularizers (e.g. LTN).
    NeuroSubSymbolic,
    /// `Neuro[Symbolic]` — an end-to-end neural system that uses symbolic
    /// models internally as a subroutine (e.g. NLM, ZeroC).
    NeuroBracketSymbolic,
}

impl NsCategory {
    /// All five categories, in the order Tab. I lists them.
    pub const ALL: [NsCategory; 5] = [
        NsCategory::SymbolicNeuro,
        NsCategory::NeuroPipeSymbolic,
        NsCategory::NeuroSymbolicToNeuro,
        NsCategory::NeuroSubSymbolic,
        NsCategory::NeuroBracketSymbolic,
    ];

    /// The notation used in the paper (and in Kautz's original lecture).
    pub fn notation(self) -> &'static str {
        match self {
            NsCategory::SymbolicNeuro => "Symbolic[Neuro]",
            NsCategory::NeuroPipeSymbolic => "Neuro|Symbolic",
            NsCategory::NeuroSymbolicToNeuro => "Neuro:Symbolic->Neuro",
            NsCategory::NeuroSubSymbolic => "Neuro_Symbolic",
            NsCategory::NeuroBracketSymbolic => "Neuro[Symbolic]",
        }
    }

    /// One-line description matching the "Category Description" column of
    /// Tab. I.
    pub fn description(self) -> &'static str {
        match self {
            NsCategory::SymbolicNeuro => {
                "end-to-end symbolic system that uses neural models internally as a subroutine"
            }
            NsCategory::NeuroPipeSymbolic => {
                "pipelined system that integrates neural and symbolic components where each \
                 component specializes in complementary tasks"
            }
            NsCategory::NeuroSymbolicToNeuro => {
                "end-to-end neural system that compiles symbolic knowledge externally"
            }
            NsCategory::NeuroSubSymbolic => {
                "pipelined system that maps symbolic first-order logic onto embeddings serving \
                 as soft constraints or regularizers for the neural model"
            }
            NsCategory::NeuroBracketSymbolic => {
                "end-to-end neural system that uses symbolic models internally as a subroutine"
            }
        }
    }
}

impl fmt::Display for NsCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.notation())
    }
}

/// The six operator categories of Sec. IV-B.
///
/// Every instrumented kernel in the workspace reports exactly one category;
/// Fig. 3a is the per-(workload, phase) histogram over these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpCategory {
    /// Kernel/input overlay-and-accumulate operations (CNN convolutions).
    /// High operational intensity.
    Convolution,
    /// General matrix multiplication, dense or sparse (GEMM, SpMM, SDDMM).
    MatMul,
    /// Element-wise tensor arithmetic, activations, normalizations,
    /// relational comparisons — the dominant symbolic kernel class.
    VectorElementwise,
    /// Reshapes, transposes, reordering, masked selection, coalescing.
    DataTransform,
    /// Memory-to-compute / host-to-device transfers, tensor duplication and
    /// assignment.
    DataMovement,
    /// Fuzzy first-order logic, logical rules, graph/search operations that
    /// do not fit the tensor categories.
    Other,
}

impl OpCategory {
    /// All six categories, in the order the paper's Fig. 3a legend uses.
    pub const ALL: [OpCategory; 6] = [
        OpCategory::Convolution,
        OpCategory::MatMul,
        OpCategory::VectorElementwise,
        OpCategory::DataTransform,
        OpCategory::DataMovement,
        OpCategory::Other,
    ];

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            OpCategory::Convolution => "conv",
            OpCategory::MatMul => "matmul",
            OpCategory::VectorElementwise => "vec/elem",
            OpCategory::DataTransform => "transform",
            OpCategory::DataMovement => "movement",
            OpCategory::Other => "other",
        }
    }
}

impl fmt::Display for OpCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether an operator belongs to the neural or symbolic component of a
/// workload.
///
/// The neural/symbolic partition is the paper's primary lens: Fig. 2
/// (latency share), Fig. 3 (per-phase operator mix, memory, roofline) and
/// Takeaways 1–5 are all phrased in terms of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// The neural component (perception frontends, MLPs, ConvNets).
    Neural,
    /// The symbolic component (vector-symbolic algebra, logic, search).
    Symbolic,
}

impl Phase {
    /// Both phases, neural first (the order the paper's plots stack them).
    pub const ALL: [Phase; 2] = [Phase::Neural, Phase::Symbolic];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Neural => f.write_str("neural"),
            Phase::Symbolic => f.write_str("symbolic"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_category_notation_is_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in NsCategory::ALL {
            assert!(seen.insert(c.notation()), "duplicate notation {}", c);
        }
    }

    #[test]
    fn ns_category_descriptions_nonempty() {
        for c in NsCategory::ALL {
            assert!(!c.description().is_empty());
        }
    }

    #[test]
    fn op_category_labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in OpCategory::ALL {
            assert!(seen.insert(c.label()), "duplicate label {}", c);
        }
    }

    #[test]
    fn serde_round_trip() {
        for c in OpCategory::ALL {
            let s = serde_json::to_string(&c).unwrap();
            let back: OpCategory = serde_json::from_str(&s).unwrap();
            assert_eq!(back, c);
        }
        for p in Phase::ALL {
            let s = serde_json::to_string(&p).unwrap();
            let back: Phase = serde_json::from_str(&s).unwrap();
            assert_eq!(back, p);
        }
        for n in NsCategory::ALL {
            let s = serde_json::to_string(&n).unwrap();
            let back: NsCategory = serde_json::from_str(&s).unwrap();
            assert_eq!(back, n);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Phase::Neural.to_string(), "neural");
        assert_eq!(OpCategory::MatMul.to_string(), "matmul");
        assert_eq!(NsCategory::NeuroPipeSymbolic.to_string(), "Neuro|Symbolic");
    }
}
