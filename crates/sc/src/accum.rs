//! The SC → fixed-point accumulation split (paper §III-B, Fig. 5).
//!
//! Where the boundary between stochastic OR-accumulation and exact binary
//! counting sits in the accumulation tree is a substrate-level property:
//! the engine uses it to pick accumulator groups, and the architecture
//! model uses it to size the partial-binary counters of each MAC row.
//! Hosting it here keeps `geo-core` (numerics) and `geo-arch` (area,
//! energy, ISA) on a shared vocabulary without depending on each other.

/// Where the SC→fixed-point boundary sits in the accumulation tree
/// (paper §III-B, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Accumulation {
    /// Fully stochastic: OR over the whole `(Cin, H, W)` kernel
    /// (ACOUSTIC-style).
    Or,
    /// Partial binary along W: OR over `(Cin, H)`, parallel counter over W
    /// (GEO's default — near-PBHW accuracy at a fraction of the adders).
    Pbw,
    /// Partial binary along H and W: OR over `Cin`, counter over `(H, W)`.
    Pbhw,
    /// Fully fixed-point: every product converted and added exactly.
    Fxp,
    /// One layer of approximate parallel counting, then exact counting.
    Apc,
}

impl Accumulation {
    /// All modes, cheapest-hardware first.
    pub const ALL: [Accumulation; 5] = [
        Accumulation::Or,
        Accumulation::Pbw,
        Accumulation::Pbhw,
        Accumulation::Fxp,
        Accumulation::Apc,
    ];

    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Accumulation::Or => "SC",
            Accumulation::Pbw => "PBW",
            Accumulation::Pbhw => "PBHW",
            Accumulation::Fxp => "FXP",
            Accumulation::Apc => "APC",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_short_and_unique() {
        let labels: std::collections::HashSet<&str> =
            Accumulation::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), Accumulation::ALL.len());
        for a in Accumulation::ALL {
            assert!(!a.label().is_empty() && a.label().len() <= 4);
        }
    }
}
