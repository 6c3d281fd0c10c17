//! The benchmark's inputs: the six paper workloads at a reduced input size,
//! the machine they run on, and every seed derived from `--seed`.
//!
//! The paper-scale (`x1`) inputs take about 72 s for one three-level study of
//! the six workloads on one core, too long for a timed run to repeat. The
//! benchmark therefore divides each `x1` footprint by [`SHRINK`] and divides
//! the modelled L2, LLC and timing chunks by the same factor, so the
//! footprint-to-cache ratio (and with it the model's behaviour) stays that of
//! `x1`. The quick profile uses the repository's tiny test inputs instead.

use crate::host::Stopwatch;
use dismem_sim::{CacheParams, MachineConfig};
use dismem_workloads::{
    Bfs, BfsParams, Hpl, HplParams, Hypre, HypreParams, InputScale, NekRs, NekRsParams, SuperLu,
    SuperLuParams, Workload, WorkloadKind, XsBench, XsBenchParams,
};

/// Factor by which the `x1` footprints and the modelled caches are divided.
pub const SHRINK: u64 = 16;

/// Local-capacity fractions of the paper's `setup_waste` step.
pub const LOCAL_FRACTIONS: [f64; 3] = [0.75, 0.5, 0.25];

/// Input profile: the benchmark's reduced `x1`, or tiny inputs for the
/// self-test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// `x1` divided by [`SHRINK`].
    Mini,
    /// The repository's tiny unit-test inputs.
    Quick,
}

/// SplitMix64 step: derives independent seeds from the run seed and a
/// per-purpose stream number.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The machine every simulation of the study and tiering workloads runs on.
pub fn machine(profile: Profile) -> MachineConfig {
    let base = MachineConfig::scaled_testbed();
    match profile {
        Profile::Quick => base,
        Profile::Mini => {
            let cache = CacheParams::scaled_emulation();
            MachineConfig {
                cache: CacheParams {
                    l2_bytes: cache.l2_bytes / SHRINK,
                    llc_bytes: cache.llc_bytes / SHRINK,
                    ..cache
                },
                chunk_bytes: base.chunk_bytes / SHRINK,
                chunk_flops: base.chunk_flops / SHRINK,
                ..base
            }
        }
    }
}

/// Builds the six paper workloads in presentation order, their random inputs
/// seeded from `seed`, and generates the BFS graph eagerly (forced through
/// `Bfs::graph`) so that input generation is part of set-up rather than of
/// the first simulation. Returns the inputs and the graph generation time.
pub fn build_inputs(profile: Profile, seed: u64) -> (Vec<Box<dyn Workload>>, f64) {
    let shrink = SHRINK as f64;
    let x1 = InputScale::X1;
    let mut graph_gen_s = 0.0;
    let mut generate = |bfs: Bfs| -> Box<dyn Workload> {
        let clock = Stopwatch::start();
        let _ = bfs.graph();
        graph_gen_s += clock.secs();
        Box::new(bfs)
    };
    let inputs = WorkloadKind::all()
        .into_iter()
        .enumerate()
        .map(|(stream, kind)| {
            let input_seed = derive_seed(seed, stream as u64);
            match (profile, kind) {
                (Profile::Quick, WorkloadKind::Bfs) => generate(Bfs::new(BfsParams {
                    seed: input_seed,
                    ..BfsParams::tiny()
                })),
                (Profile::Quick, _) => kind.instantiate_tiny(),
                (Profile::Mini, WorkloadKind::Hpl) => Box::new(Hpl::new(HplParams {
                    // Footprint n^2: n / sqrt(SHRINK), rounded to whole blocks.
                    n: (HplParams::bench(x1).n as f64 / shrink.sqrt()) as usize / 32 * 32,
                    block: 32,
                })),
                (Profile::Mini, WorkloadKind::Hypre) => Box::new(Hypre::new(HypreParams {
                    // Footprint n^3.
                    n: (HypreParams::bench(x1).n as f64 / shrink.cbrt()) as usize,
                    ..HypreParams::bench(x1)
                })),
                (Profile::Mini, WorkloadKind::NekRs) => Box::new(NekRs::new(NekRsParams {
                    elements: NekRsParams::bench(x1).elements / SHRINK as usize,
                    seed: input_seed,
                    ..NekRsParams::bench(x1)
                })),
                (Profile::Mini, WorkloadKind::Bfs) => generate(Bfs::new(BfsParams {
                    log_vertices: BfsParams::bench(x1).log_vertices - SHRINK.ilog2(),
                    seed: input_seed,
                    ..BfsParams::bench(x1)
                })),
                (Profile::Mini, WorkloadKind::SuperLu) => Box::new(SuperLu::new(SuperLuParams {
                    num_cols: (SuperLuParams::bench(x1).num_cols as f64 / shrink.sqrt()) as usize,
                    seed: input_seed,
                    ..SuperLuParams::bench(x1)
                })),
                (Profile::Mini, WorkloadKind::XsBench) => Box::new(XsBench::new(XsBenchParams {
                    gridpoints: XsBenchParams::bench(x1).gridpoints / SHRINK as usize,
                    lookups: XsBenchParams::bench(x1).lookups / SHRINK as usize,
                    seed: input_seed,
                    ..XsBenchParams::bench(x1)
                })),
            }
        })
        .collect();
    (inputs, graph_gen_s)
}
