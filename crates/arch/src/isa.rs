//! The GEO instruction set.
//!
//! GEO is fully programmable with its own ISA and instruction memory
//! (§III-A); the enhancements reuse the ACOUSTIC ISA with minor
//! modifications, most notably the 2-cycle read-add-write vector
//! instruction for near-memory partial-sum accumulation (§III-C) and
//! near-memory batch normalization.

/// Operand addressing of one `GEN` pass: which slice of a layer's output
/// volume the pass produces, and which SNG bank drives it.
///
/// A layer's output volume is `cout × outputs` (output channels × flattened
/// spatial positions). The compiler walks it in
/// `cout_groups × col_passes × pos_groups` order; each `GEN` covers the
/// half-open channel range `cout_begin..cout_end` and position range
/// `pos_begin..pos_end` for kernel column pass `col_pass` (of
/// `col_passes`). Only the final column pass of a tile completes its
/// outputs — earlier passes leave partial sums for near-memory
/// accumulation (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tile {
    /// Layer index in the compiled network.
    pub layer: u32,
    /// Row-SNG bank (= output-channel group) driving this pass.
    pub sng_group: u32,
    /// First output channel covered (inclusive).
    pub cout_begin: u32,
    /// One past the last output channel covered.
    pub cout_end: u32,
    /// First flattened output position covered (inclusive).
    pub pos_begin: u32,
    /// One past the last flattened output position covered.
    pub pos_end: u32,
    /// Kernel column pass this `GEN` computes (0-based).
    pub col_pass: u32,
    /// Total column passes the layer's kernel volume needs.
    pub col_passes: u32,
}

impl Tile {
    /// Output channels covered.
    pub fn cout_span(&self) -> u64 {
        u64::from(self.cout_end.saturating_sub(self.cout_begin))
    }

    /// Output positions covered.
    pub fn pos_span(&self) -> u64 {
        u64::from(self.pos_end.saturating_sub(self.pos_begin))
    }

    /// Output elements this pass contributes to (`cout_span × pos_span`).
    pub fn area(&self) -> u64 {
        self.cout_span() * self.pos_span()
    }

    /// Whether this is the last column pass, i.e. the pass that completes
    /// the tile's outputs.
    pub fn completes_outputs(&self) -> bool {
        self.col_pass + 1 == self.col_passes
    }
}

/// One GEO instruction, parameterized by its data volume and — for compute
/// passes — the output tile it addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Load weights from external memory into a weight-memory bank
    /// (ping-pong: overlaps with compute).
    LoadWeightsExternal {
        /// Bytes moved.
        bytes: u64,
    },
    /// Load weight operands from weight memory into the weight SNG buffers.
    LoadWeights {
        /// Bytes moved.
        bytes: u64,
    },
    /// Load activation operands from activation memory into the activation
    /// SNG buffers.
    LoadActivations {
        /// Bytes moved.
        bytes: u64,
    },
    /// One stream-generation + MAC compute pass over an output tile.
    Generate {
        /// Stream cycles (already ×2 for split-unipolar).
        cycles: u64,
        /// MAC units active this pass (for energy accounting).
        active_macs: u64,
        /// Output slice this pass addresses.
        tile: Tile,
    },
    /// Near-memory read-add-write vector accumulate: 2 cycles per element
    /// group (§III-C).
    NearMemAccumulate {
        /// Partial-sum elements accumulated.
        elements: u64,
        /// Layer whose partial sums are accumulated.
        layer: u32,
    },
    /// Near-memory batch normalization over output elements.
    NearMemBatchNorm {
        /// Elements normalized.
        elements: u64,
        /// Layer being normalized.
        layer: u32,
    },
    /// Write outputs (post pooling/ReLU) back to activation memory.
    WriteActivations {
        /// Bytes written.
        bytes: u64,
    },
    /// Synchronization barrier between layers.
    Sync,
}

impl Instr {
    /// Short mnemonic, for program listings.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::LoadWeightsExternal { .. } => "LDW.EXT",
            Instr::LoadWeights { .. } => "LDW",
            Instr::LoadActivations { .. } => "LDA",
            Instr::Generate { .. } => "GEN",
            Instr::NearMemAccumulate { .. } => "NMACC",
            Instr::NearMemBatchNorm { .. } => "NMBN",
            Instr::WriteActivations { .. } => "STA",
            Instr::Sync => "SYNC",
        }
    }
}

/// A compiled program: instruction stream plus per-layer markers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Network name.
    pub name: String,
    /// The instruction stream.
    pub instrs: Vec<Instr>,
    /// Indices into `instrs` where each layer starts.
    pub layer_starts: Vec<usize>,
}

impl Program {
    /// An empty program.
    pub fn new(name: &str) -> Self {
        Program {
            name: name.to_string(),
            instrs: Vec::new(),
            layer_starts: Vec::new(),
        }
    }

    /// Marks the start of a new layer.
    pub fn begin_layer(&mut self) {
        self.layer_starts.push(self.instrs.len());
    }

    /// Appends an instruction.
    pub fn push(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    /// Number of compute (GEN) passes.
    pub fn generate_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::Generate { .. }))
            .count()
    }

    /// Number of layers marked via [`Program::begin_layer`].
    pub fn layer_count(&self) -> usize {
        self.layer_starts.len()
    }

    /// The instruction slice of layer `li`, or `None` if `li` is out of
    /// range.
    pub fn layer_instrs(&self, li: usize) -> Option<&[Instr]> {
        let start = *self.layer_starts.get(li)?;
        let end = self
            .layer_starts
            .get(li + 1)
            .copied()
            .unwrap_or(self.instrs.len());
        self.instrs.get(start..end)
    }

    /// All `GEN` tiles in stream order.
    pub fn tiles(&self) -> impl Iterator<Item = &Tile> {
        self.instrs.iter().filter_map(|i| match i {
            Instr::Generate { tile, .. } => Some(tile),
            _ => None,
        })
    }

    /// Total bytes moved by each memory class:
    /// `(external, weight, activation, writeback)`.
    pub fn traffic(&self) -> (u64, u64, u64, u64) {
        let mut ext = 0;
        let mut wgt = 0;
        let mut act = 0;
        let mut wb = 0;
        for i in &self.instrs {
            match i {
                Instr::LoadWeightsExternal { bytes } => ext += bytes,
                Instr::LoadWeights { bytes } => wgt += bytes,
                Instr::LoadActivations { bytes } => act += bytes,
                Instr::WriteActivations { bytes } => wb += bytes,
                _ => {}
            }
        }
        (ext, wgt, act, wb)
    }

    /// Human-readable listing (one line per instruction).
    pub fn listing(&self) -> String {
        self.instrs
            .iter()
            .map(|i| format!("{:<8} {:?}", i.mnemonic(), i))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unit tile for tests that only care about the stream fields.
    fn tile() -> Tile {
        Tile {
            layer: 0,
            sng_group: 0,
            cout_begin: 0,
            cout_end: 1,
            pos_begin: 0,
            pos_end: 1,
            col_pass: 0,
            col_passes: 1,
        }
    }

    #[test]
    fn program_accumulates_instructions_and_layers() {
        let mut p = Program::new("test");
        p.begin_layer();
        p.push(Instr::LoadWeights { bytes: 100 });
        p.push(Instr::LoadActivations { bytes: 50 });
        p.push(Instr::Generate {
            cycles: 64,
            active_macs: 1000,
            tile: tile(),
        });
        p.begin_layer();
        p.push(Instr::WriteActivations { bytes: 25 });
        p.push(Instr::Sync);
        assert_eq!(p.instrs.len(), 5);
        assert_eq!(p.layer_starts, vec![0, 3]);
        assert_eq!(p.generate_count(), 1);
        assert_eq!(p.traffic(), (0, 100, 50, 25));
    }

    #[test]
    fn layer_instrs_follow_begin_layer_boundaries() {
        let mut p = Program::new("slices");
        p.begin_layer();
        p.push(Instr::LoadWeights { bytes: 1 });
        p.push(Instr::Sync);
        p.begin_layer();
        p.push(Instr::WriteActivations { bytes: 1 });
        assert_eq!(p.layer_count(), 2);
        assert_eq!(p.layer_instrs(0).unwrap().len(), 2);
        assert_eq!(p.layer_instrs(1).unwrap().len(), 1);
        assert!(p.layer_instrs(2).is_none());
        let total: usize = (0..p.layer_count())
            .map(|li| p.layer_instrs(li).unwrap().len())
            .sum();
        assert_eq!(total, p.instrs.len());
    }

    #[test]
    fn tile_geometry_helpers() {
        let t = Tile {
            layer: 2,
            sng_group: 1,
            cout_begin: 32,
            cout_end: 64,
            pos_begin: 128,
            pos_end: 256,
            col_pass: 1,
            col_passes: 2,
        };
        assert_eq!(t.cout_span(), 32);
        assert_eq!(t.pos_span(), 128);
        assert_eq!(t.area(), 32 * 128);
        assert!(t.completes_outputs());
        let first = Tile { col_pass: 0, ..t };
        assert!(!first.completes_outputs());
    }

    #[test]
    fn mnemonics_are_unique() {
        let all = [
            Instr::LoadWeightsExternal { bytes: 1 },
            Instr::LoadWeights { bytes: 1 },
            Instr::LoadActivations { bytes: 1 },
            Instr::Generate {
                cycles: 1,
                active_macs: 1,
                tile: tile(),
            },
            Instr::NearMemAccumulate {
                elements: 1,
                layer: 0,
            },
            Instr::NearMemBatchNorm {
                elements: 1,
                layer: 0,
            },
            Instr::WriteActivations { bytes: 1 },
            Instr::Sync,
        ];
        let set: std::collections::HashSet<&str> = all.iter().map(|i| i.mnemonic()).collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn listing_mentions_every_instruction() {
        let mut p = Program::new("l");
        p.push(Instr::Generate {
            cycles: 8,
            active_macs: 2,
            tile: tile(),
        });
        p.push(Instr::Sync);
        let text = p.listing();
        assert!(text.contains("GEN"));
        assert!(text.contains("SYNC"));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn tiles_iterates_generates_in_stream_order() {
        let mut p = Program::new("t");
        p.push(Instr::Sync);
        p.push(Instr::Generate {
            cycles: 8,
            active_macs: 2,
            tile: tile(),
        });
        p.push(Instr::Generate {
            cycles: 8,
            active_macs: 2,
            tile: Tile {
                pos_begin: 1,
                pos_end: 2,
                ..tile()
            },
        });
        let tiles: Vec<_> = p.tiles().collect();
        assert_eq!(tiles.len(), 2);
        assert_eq!(tiles[0].pos_begin, 0);
        assert_eq!(tiles[1].pos_begin, 1);
    }
}
