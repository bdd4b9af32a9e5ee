//! Kernels, launches and the builder that wires them together.

use crate::inst::{AddrPattern, Inst, Op, MAX_REGIONS, REGION_BYTES};
use crate::program::{Cond, Node, TripCount};
use crate::types::{BasicBlockId, LaunchId, WARP_SIZE};
use serde::{Deserialize, Serialize};

/// A GPGPU kernel: a thread program plus its static resource footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Human-readable name (benchmark abbreviation from Table VI).
    pub name: String,
    /// Kernel-wide seed feeding every deterministic decision.
    pub seed: u64,
    /// Threads per thread block (CUDA `blockDim`).
    pub threads_per_block: u32,
    /// Registers per thread — limits SM occupancy.
    pub regs_per_thread: u32,
    /// Shared memory per block in bytes — limits SM occupancy.
    pub smem_per_block: u32,
    /// The structured thread program.
    pub program: Node,
    /// Number of basic blocks (BBV dimensionality).
    pub num_basic_blocks: u16,
}

impl Kernel {
    /// Warps per thread block (rounded up).
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block.div_ceil(WARP_SIZE)
    }

    /// Structural sanity checks; see [`ValidateError`] for the rules.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.threads_per_block == 0 {
            return Err(ValidateError::EmptyBlock);
        }
        if self.program.count_static_insts() == 0 {
            return Err(ValidateError::EmptyProgram);
        }
        // Basic-block ids must be unique and within num_basic_blocks.
        let mut seen = vec![false; self.num_basic_blocks as usize];
        let mut err = None;
        self.program.visit(&mut |n| {
            if let Node::Block { id, insts } = n {
                match seen.get_mut(id.0 as usize) {
                    None => err = Some(ValidateError::BlockIdOutOfRange(*id)),
                    Some(s) if *s => err = Some(ValidateError::DuplicateBlockId(*id)),
                    Some(s) => *s = true,
                }
                // Every address must stay inside its own region (see
                // `region_base`).
                for pattern in insts.iter().filter_map(|i| i.op.addr_pattern()) {
                    let (AddrPattern::Coalesced { region, .. }
                    | AddrPattern::Strided { region, .. }
                    | AddrPattern::Random { region, .. }
                    | AddrPattern::Broadcast { region }) = *pattern;
                    if region >= MAX_REGIONS {
                        err = Some(ValidateError::RegionOutOfRange(region));
                    }
                    if let AddrPattern::Random { bytes, .. } = *pattern {
                        if bytes > REGION_BYTES {
                            err = Some(ValidateError::GatherSpanTooLarge(bytes));
                        }
                    }
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        // Barriers must be block-uniform: every enclosing If/Loop must make
        // the same decision for all threads of the block, or some threads
        // would wait forever at the barrier.
        Self::check_barrier_uniformity(&self.program, true)?;
        Ok(())
    }

    fn check_barrier_uniformity(node: &Node, block_uniform: bool) -> Result<(), ValidateError> {
        match node {
            Node::Block { insts, .. } => {
                if !block_uniform && insts.iter().any(|i| matches!(i.op, Op::Barrier)) {
                    return Err(ValidateError::DivergentBarrier);
                }
                Ok(())
            }
            Node::Seq(ns) => {
                for n in ns {
                    Self::check_barrier_uniformity(n, block_uniform)?;
                }
                Ok(())
            }
            Node::If { cond, then_, else_ } => {
                let uniform = block_uniform
                    && matches!(cond, Cond::Always | Cond::Never | Cond::BlockProb { .. });
                Self::check_barrier_uniformity(then_, uniform)?;
                if let Some(e) = else_ {
                    Self::check_barrier_uniformity(e, uniform)?;
                }
                Ok(())
            }
            Node::Loop { trips, body } => {
                let uniform = block_uniform
                    && matches!(
                        trips,
                        TripCount::Const(_)
                            | TripCount::PerBlock { .. }
                            | TripCount::PerBlockPhase { .. }
                    );
                Self::check_barrier_uniformity(body, uniform)
            }
        }
    }
}

/// Why a kernel failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateError {
    /// `threads_per_block == 0`.
    EmptyBlock,
    /// The program contains no instructions.
    EmptyProgram,
    /// A basic-block id exceeds `num_basic_blocks`.
    BlockIdOutOfRange(BasicBlockId),
    /// Two `Block` nodes share an id.
    DuplicateBlockId(BasicBlockId),
    /// A barrier sits under thread-divergent control flow (deadlock on
    /// real hardware).
    DivergentBarrier,
    /// A memory-region id at or past `MAX_REGIONS` (2^30): its base would
    /// not fit in a `u64` address and would alias a lower region.
    RegionOutOfRange(u32),
    /// A `Random` gather spanning more than `REGION_BYTES` (16 GiB): it
    /// would reach into the next region.
    GatherSpanTooLarge(u64),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::EmptyBlock => write!(f, "threads_per_block must be > 0"),
            ValidateError::EmptyProgram => write!(f, "program has no instructions"),
            ValidateError::BlockIdOutOfRange(id) => {
                write!(f, "basic block id {} out of range", id.0)
            }
            ValidateError::DuplicateBlockId(id) => {
                write!(f, "duplicate basic block id {}", id.0)
            }
            ValidateError::DivergentBarrier => {
                write!(f, "barrier under thread-divergent control flow")
            }
            ValidateError::RegionOutOfRange(region) => {
                write!(
                    f,
                    "memory region id {region} out of range (max {MAX_REGIONS})"
                )
            }
            ValidateError::GatherSpanTooLarge(bytes) => {
                write!(
                    f,
                    "gather span of {bytes} bytes exceeds a region ({REGION_BYTES})"
                )
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// One launch of a kernel: how many thread blocks, and how much work each
/// does relative to the kernel's nominal trip counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaunchSpec {
    /// Position in the benchmark's launch sequence.
    pub launch_id: LaunchId,
    /// Grid size: number of thread blocks.
    pub num_blocks: u32,
    /// Work multiplier applied to every trip count (frontier size etc.).
    pub work_scale: f64,
}

/// A benchmark: one kernel plus its ordered sequence of launches.
///
/// (The paper selects, per application, the kernel with the longest running
/// time — Section V-A — so one kernel per benchmark is faithful.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRun {
    /// The kernel.
    pub kernel: Kernel,
    /// Launches in dispatch order.
    pub launches: Vec<LaunchSpec>,
}

impl KernelRun {
    /// Total thread blocks across all launches (the Table VI column).
    pub fn total_blocks(&self) -> u64 {
        self.launches.iter().map(|l| l.num_blocks as u64).sum()
    }

    /// Number of launches (the Table VI column).
    pub fn num_launches(&self) -> usize {
        self.launches.len()
    }
}

/// Incremental builder that hands out unique basic-block and site ids.
///
/// ```
/// use tbpoint_ir::{KernelBuilder, Op, AddrPattern, Cond, TripCount};
///
/// let mut b = KernelBuilder::new("demo", 42, 128);
/// let body = b.block(&[
///     Op::IAlu,
///     Op::LdGlobal(AddrPattern::Coalesced { region: 0, stride: 4 }),
/// ]);
/// let program = b.loop_(TripCount::Const(10), body);
/// let kernel = b.finish(program);
/// assert_eq!(kernel.num_basic_blocks, 1);
/// kernel.validate().unwrap();
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    seed: u64,
    threads_per_block: u32,
    regs_per_thread: u32,
    smem_per_block: u32,
    next_bb: u16,
    next_site: u32,
}

impl KernelBuilder {
    /// Start building a kernel.
    pub fn new(name: &str, seed: u64, threads_per_block: u32) -> Self {
        Self {
            name: name.to_string(),
            seed,
            threads_per_block,
            regs_per_thread: 16,
            smem_per_block: 0,
            next_bb: 0,
            next_site: 0,
        }
    }

    /// Set registers per thread (occupancy limiter). Default 16.
    pub fn regs(&mut self, r: u32) -> &mut Self {
        self.regs_per_thread = r;
        self
    }

    /// Set shared memory per block in bytes (occupancy limiter). Default 0.
    pub fn smem(&mut self, bytes: u32) -> &mut Self {
        self.smem_per_block = bytes;
        self
    }

    /// A fresh static site id, for `Cond`/`TripCount`/`Dist` decorrelation.
    pub fn fresh_site(&mut self) -> u32 {
        let s = self.next_site;
        self.next_site += 1;
        s
    }

    /// A straight-line basic block from the given ops; assigns the block id
    /// and per-instruction site ids.
    pub fn block(&mut self, ops: &[Op]) -> Node {
        let id = BasicBlockId(self.next_bb);
        self.next_bb += 1;
        let insts = ops
            .iter()
            .map(|&op| {
                let site = self.fresh_site();
                Inst { op, site }
            })
            .collect();
        Node::Block { id, insts }
    }

    /// Sequential composition.
    pub fn seq(&mut self, nodes: Vec<Node>) -> Node {
        Node::Seq(nodes)
    }

    /// Two-way branch.
    pub fn if_(&mut self, cond: Cond, then_: Node, else_: Option<Node>) -> Node {
        Node::If {
            cond,
            then_: Box::new(then_),
            else_: else_.map(Box::new),
        }
    }

    /// Counted loop.
    pub fn loop_(&mut self, trips: TripCount, body: Node) -> Node {
        Node::Loop {
            trips,
            body: Box::new(body),
        }
    }

    /// Finish: package the program into a [`Kernel`].
    pub fn finish(&self, program: Node) -> Kernel {
        Kernel {
            name: self.name.clone(),
            seed: self.seed,
            threads_per_block: self.threads_per_block,
            regs_per_thread: self.regs_per_thread,
            smem_per_block: self.smem_per_block,
            num_basic_blocks: self.next_bb,
            program,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::AddrPattern;
    use crate::program::Dist;

    fn simple_kernel() -> Kernel {
        let mut b = KernelBuilder::new("t", 1, 64);
        let body = b.block(&[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Coalesced {
                region: 0,
                stride: 4,
            }),
        ]);
        let program = b.loop_(TripCount::Const(5), body);
        b.finish(program)
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = KernelBuilder::new("t", 1, 64);
        let b0 = b.block(&[Op::IAlu]);
        let b1 = b.block(&[Op::FAlu, Op::Sfu]);
        let program = b.seq(vec![b0, b1]);
        let k = b.finish(program);
        assert_eq!(k.num_basic_blocks, 2);
        // Site ids must be unique across instructions.
        let mut sites = vec![];
        k.program.visit(&mut |n| {
            if let Node::Block { insts, .. } = n {
                sites.extend(insts.iter().map(|i| i.site));
            }
        });
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), 3);
        k.validate().unwrap();
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let mut k = simple_kernel();
        assert_eq!(k.warps_per_block(), 2);
        k.threads_per_block = 33;
        assert_eq!(k.warps_per_block(), 2);
        k.threads_per_block = 32;
        assert_eq!(k.warps_per_block(), 1);
    }

    #[test]
    fn validate_rejects_empty_program() {
        let b = KernelBuilder::new("t", 1, 32);
        let k = b.finish(Node::Seq(vec![]));
        assert_eq!(k.validate(), Err(ValidateError::EmptyProgram));
    }

    #[test]
    fn validate_rejects_zero_threads() {
        let mut b = KernelBuilder::new("t", 1, 0);
        let n = b.block(&[Op::IAlu]);
        let k = b.finish(n);
        assert_eq!(k.validate(), Err(ValidateError::EmptyBlock));
    }

    #[test]
    fn validate_rejects_divergent_barrier() {
        let mut b = KernelBuilder::new("t", 1, 64);
        let site = b.fresh_site();
        let bar = b.block(&[Op::Barrier]);
        let program = b.if_(Cond::ThreadProb { p: 0.5, site }, bar, None);
        let k = b.finish(program);
        assert_eq!(k.validate(), Err(ValidateError::DivergentBarrier));
    }

    #[test]
    fn validate_rejects_barrier_in_divergent_loop() {
        let mut b = KernelBuilder::new("t", 1, 64);
        let site = b.fresh_site();
        let bar = b.block(&[Op::Barrier]);
        let program = b.loop_(
            TripCount::PerThread {
                base: 1,
                spread: 3,
                dist: Dist::Uniform,
                site,
            },
            bar,
        );
        let k = b.finish(program);
        assert_eq!(k.validate(), Err(ValidateError::DivergentBarrier));
    }

    #[test]
    fn validate_accepts_block_uniform_barrier() {
        let mut b = KernelBuilder::new("t", 1, 64);
        let site = b.fresh_site();
        let bar = b.block(&[Op::Barrier]);
        let program = b.loop_(
            TripCount::PerBlock {
                base: 1,
                spread: 3,
                dist: Dist::Uniform,
                site,
            },
            bar,
        );
        let k = b.finish(program);
        assert_eq!(k.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_duplicate_block_ids() {
        let mut b = KernelBuilder::new("t", 1, 32);
        let n0 = b.block(&[Op::IAlu]);
        let mut n1 = n0.clone();
        if let Node::Block { insts, .. } = &mut n1 {
            insts[0].site = 99;
        }
        let program = b.seq(vec![n0, n1]);
        let k = b.finish(program);
        assert!(matches!(
            k.validate(),
            Err(ValidateError::DuplicateBlockId(_))
        ));
    }

    fn gather_kernel(region: u32, bytes: u64) -> Kernel {
        let mut b = KernelBuilder::new("t", 1, 32);
        let n = b.block(&[Op::LdGlobal(AddrPattern::Random { region, bytes })]);
        b.finish(n)
    }

    #[test]
    fn validate_bounds_region_ids() {
        assert_eq!(gather_kernel(MAX_REGIONS - 1, 1 << 20).validate(), Ok(()));
        assert_eq!(
            gather_kernel(MAX_REGIONS, 1 << 20).validate(),
            Err(ValidateError::RegionOutOfRange(MAX_REGIONS))
        );
        // Not only gathers: the aliasing is in `region_base`.
        let mut b = KernelBuilder::new("t", 1, 32);
        let n = b.block(&[Op::StGlobal(AddrPattern::Broadcast { region: u32::MAX })]);
        assert_eq!(
            b.finish(n).validate(),
            Err(ValidateError::RegionOutOfRange(u32::MAX))
        );
    }

    #[test]
    fn validate_bounds_gather_spans() {
        assert_eq!(gather_kernel(3, REGION_BYTES).validate(), Ok(()));
        assert_eq!(
            gather_kernel(3, REGION_BYTES + 1).validate(),
            Err(ValidateError::GatherSpanTooLarge(REGION_BYTES + 1))
        );
    }

    #[test]
    fn kernel_run_totals() {
        let k = simple_kernel();
        let run = KernelRun {
            kernel: k,
            launches: vec![
                LaunchSpec {
                    launch_id: LaunchId(0),
                    num_blocks: 10,
                    work_scale: 1.0,
                },
                LaunchSpec {
                    launch_id: LaunchId(1),
                    num_blocks: 30,
                    work_scale: 2.0,
                },
            ],
        };
        assert_eq!(run.total_blocks(), 40);
        assert_eq!(run.num_launches(), 2);
    }

    #[test]
    fn kernel_serde_roundtrip() {
        let k = simple_kernel();
        let json = serde_json::to_string(&k).unwrap();
        let back: Kernel = serde_json::from_str(&json).unwrap();
        assert_eq!(k, back);
    }
}
