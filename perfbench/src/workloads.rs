//! The four benchmark workloads: their traces (generated from the
//! benchmark seed), their cache shapes and their protocol cells.
//!
//! Every trace is rebuilt here from the public `ulc_trace::patterns`
//! constructors with the same parameters as `ulc_trace::synthetic`, but
//! with each generator seed derived from the benchmark seed (the httpd
//! file set excepted: see [`httpd_files`]). Under
//! [`DEFAULT_SEED`] the derivation is the identity, so the traces equal
//! the ones the figures use; [`synthetic_twin`] returns those for the
//! check in [`crate::run`].

use ulc_core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::{
    simulate, FaultScenario, FaultyPlane, IndLru, LruMqServer, MultiLevelPolicy, SimStats, UniLru,
    UniLruVariant,
};
use ulc_obs::ObsHandle;
use ulc_trace::multi::interleave;
use ulc_trace::patterns::{
    FileSetPattern, LoopingPattern, MixedPattern, Pattern, Phase, UniformPattern,
    WorkingSetDriftPattern, ZipfPattern,
};
use ulc_trace::synthetic::{self as syn};
use ulc_trace::{blocks_for_mib, Trace};

/// The seed under which every trace equals its `ulc_trace::synthetic`
/// twin and the pinned digests apply.
pub const DEFAULT_SEED: u64 = 0;

/// References per trace at full size (the digests are pinned at this
/// size). Five single-client traces or one multi-client trace of this
/// length make one round of a workload.
pub const DEFAULT_REFS: usize = 500_000;

/// Seed of the `multi-faulty` plane. Fixed, so the benchmark seed varies
/// the trace and not the fault pattern on top of it.
pub const FAULT_SEED: u64 = 1789;

/// Maps a generator's built-in seed to the benchmark seed's stream:
/// the identity under [`DEFAULT_SEED`], a fixed odd-multiplier mix
/// otherwise.
pub fn derive(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 6: five traces × {indLRU, uniLRU, ULC}, three levels.
    Single3Level,
    /// Figure 7 db2: eight clients on disjoint block ranges.
    MultiPrivate,
    /// Figure 7 httpd: seven clients sharing one file set.
    MultiShared,
    /// `MultiShared`'s trace and caches over a lossy message plane.
    MultiFaulty,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload::Single3Level,
    Workload::MultiPrivate,
    Workload::MultiShared,
    Workload::MultiFaulty,
];

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Single3Level => "single-3level",
            Workload::MultiPrivate => "multi-private",
            Workload::MultiShared => "multi-shared",
            Workload::MultiFaulty => "multi-faulty",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The traces this workload generates, in generation order.
    pub fn traces(self) -> &'static [TraceKind] {
        match self {
            Workload::Single3Level => &[
                TraceKind::Random,
                TraceKind::Zipf,
                TraceKind::Httpd,
                TraceKind::Dev1,
                TraceKind::Tpcc1,
            ],
            Workload::MultiPrivate => &[TraceKind::Db2],
            Workload::MultiShared | Workload::MultiFaulty => &[TraceKind::HttpdMulti],
        }
    }

    /// The protocol cells, one per (trace, scheme), in run order.
    pub fn cells(self) -> Vec<Cell> {
        let six = [
            Scheme::IndLru,
            Scheme::UniLru(UniLruVariant::MruInsert),
            Scheme::UniLru(UniLruVariant::LruInsert),
            Scheme::UniLru(UniLruVariant::Adaptive),
            Scheme::Mq,
            Scheme::Ulc,
        ];
        match self {
            Workload::Single3Level => (0..5)
                .flat_map(|trace| {
                    [
                        Scheme::IndLru,
                        Scheme::UniLru(UniLruVariant::MruInsert),
                        Scheme::Ulc,
                    ]
                    .map(|scheme| Cell {
                        trace,
                        scheme,
                        faulty: false,
                    })
                })
                .collect(),
            Workload::MultiPrivate | Workload::MultiShared => six
                .map(|scheme| Cell {
                    trace: 0,
                    scheme,
                    faulty: false,
                })
                .to_vec(),
            Workload::MultiFaulty => [
                Scheme::IndLru,
                Scheme::UniLru(UniLruVariant::MruInsert),
                Scheme::Ulc,
            ]
            .map(|scheme| Cell {
                trace: 0,
                scheme,
                faulty: true,
            })
            .to_vec(),
        }
    }
}

/// The cache sizes a trace runs against (the figures' own).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Three levels of `per_level` blocks, one client (Figure 6).
    Single {
        /// Blocks per level.
        per_level: usize,
    },
    /// Private client caches over one shared server (Figure 7).
    Multi {
        /// Number of clients.
        clients: usize,
        /// Blocks per client cache.
        client_blocks: usize,
        /// Server cache blocks.
        server_blocks: usize,
    },
}

impl Shape {
    /// Total blocks the hierarchy can hold (the LRU control's size).
    pub fn aggregate(self) -> usize {
        match self {
            Shape::Single { per_level } => 3 * per_level,
            Shape::Multi {
                clients,
                client_blocks,
                server_blocks,
            } => clients * client_blocks + server_blocks,
        }
    }
}

/// db2 data set scaled 8× down, as `fig7::workloads` does.
fn db2_footprint() -> u64 {
    blocks_for_mib(5_200) / 8
}

/// One named trace of the figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Figure 6 `random`.
    Random,
    /// Figure 6 `zipf`.
    Zipf,
    /// Figure 6 `httpd` (one aggregated stream).
    Httpd,
    /// Figure 6 `dev1`.
    Dev1,
    /// Figure 6 `tpcc1`.
    Tpcc1,
    /// Figure 7 `db2`.
    Db2,
    /// Figure 7 `httpd` (seven client streams).
    HttpdMulti,
}

/// Every trace kind, in the order the `trace.gen_s.*` metrics list them.
pub const ALL_TRACES: [TraceKind; 7] = [
    TraceKind::Random,
    TraceKind::Zipf,
    TraceKind::Httpd,
    TraceKind::Dev1,
    TraceKind::Tpcc1,
    TraceKind::Db2,
    TraceKind::HttpdMulti,
];

impl TraceKind {
    /// The trace's name in cell labels and metric names.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Random => "random",
            TraceKind::Zipf => "zipf",
            TraceKind::Httpd => "httpd",
            TraceKind::Dev1 => "dev1",
            TraceKind::Tpcc1 => "tpcc1",
            TraceKind::Db2 => "db2",
            TraceKind::HttpdMulti => "httpd-multi",
        }
    }

    /// The cache sizes the figure runs this trace against.
    pub fn shape(self) -> Shape {
        match self {
            TraceKind::Tpcc1 => Shape::Single {
                per_level: blocks_for_mib(50) as usize,
            },
            TraceKind::Db2 => Shape::Multi {
                clients: syn::DB2_CLIENTS,
                client_blocks: (blocks_for_mib(256) / 8) as usize,
                server_blocks: 16_384,
            },
            TraceKind::HttpdMulti => Shape::Multi {
                clients: syn::HTTPD_CLIENTS,
                client_blocks: blocks_for_mib(8) as usize,
                server_blocks: 8_192,
            },
            _ => Shape::Single {
                per_level: blocks_for_mib(100) as usize,
            },
        }
    }

    /// Generates `refs` references from the benchmark seed.
    pub fn generate(self, seed: u64, refs: usize) -> Trace {
        let d = |base| derive(base, seed);
        match self {
            TraceKind::Random => {
                UniformPattern::new(syn::RANDOM_LARGE_BLOCKS, d(0x5eed10)).generate(refs)
            }
            TraceKind::Zipf => ZipfPattern::new(syn::ZIPF_LARGE_BLOCKS, 1.0, d(0x5eed11))
                .scrambled(d(0x5eed12))
                .generate(refs),
            // Under the default seed the requests continue the file-set
            // draw's random stream, as in `ulc_trace::synthetic`.
            TraceKind::Httpd if seed == DEFAULT_SEED => httpd_files().generate(refs),
            TraceKind::Httpd => httpd_files().with_request_seed(d(0x5eed13)).generate(refs),
            TraceKind::Dev1 => WorkingSetDriftPattern::new(syn::DEV1_BLOCKS, 16_000, d(0x5eed14))
                .with_depth_decay(0.9999)
                .with_rates(0.001, 0.005)
                .generate(refs),
            TraceKind::Tpcc1 => MixedPattern::new(vec![
                Phase::new(Box::new(LoopingPattern::new(syn::TPCC1_LOOP_BLOCKS)), 9_500),
                Phase::new(
                    Box::new(
                        UniformPattern::new(
                            syn::TPCC1_BLOCKS - syn::TPCC1_LOOP_BLOCKS,
                            d(0x5eed15),
                        )
                        .with_base(syn::TPCC1_LOOP_BLOCKS),
                    ),
                    500,
                ),
            ])
            .generate(refs),
            TraceKind::Db2 => {
                let per_client = db2_footprint() / syn::DB2_CLIENTS as u64;
                let patterns: Vec<Box<dyn Pattern>> = (0..syn::DB2_CLIENTS as u64)
                    .map(|c| {
                        let base = c * per_client;
                        let small = per_client / 5;
                        Box::new(MixedPattern::new(vec![
                            Phase::new(
                                Box::new(LoopingPattern::with_scopes(vec![small]).with_base(base)),
                                2_000,
                            ),
                            Phase::new(
                                Box::new(
                                    LoopingPattern::with_scopes(vec![per_client - small])
                                        .with_base(base + small),
                                ),
                                8_000,
                            ),
                        ])) as Box<dyn Pattern>
                    })
                    .collect();
                interleave(patterns, None, refs, d(0x5eed41))
            }
            TraceKind::HttpdMulti => {
                let patterns: Vec<Box<dyn Pattern>> = (0..syn::HTTPD_CLIENTS as u64)
                    .map(|c| {
                        Box::new(httpd_files().with_request_seed(d(0x5eed20 + c)))
                            as Box<dyn Pattern>
                    })
                    .collect();
                interleave(patterns, None, refs, d(0x5eed21))
            }
        }
    }
}

/// The figures' httpd file set. Its seed stays fixed: the file sizes it
/// draws are heavy-tailed, and with the file set re-drawn per benchmark
/// seed one seed's `multi-shared` round ran 2.3× faster than another's —
/// a different workload, not another input to the same one. The
/// benchmark seed varies the request streams over it instead.
fn httpd_files() -> FileSetPattern {
    FileSetPattern::new(syn::HTTPD_FILES, syn::HTTPD_BLOCKS, 1.0, 0x5eed13)
        .with_popularity_churn(syn::HTTPD_CHURN_INTERVAL)
        .with_recency_bias(syn::HTTPD_RECENCY_BIAS, syn::HTTPD_RECENCY_WINDOW)
}

/// The `ulc_trace::synthetic` trace the figures use for `kind`, which
/// [`TraceKind::generate`] must reproduce under [`DEFAULT_SEED`].
pub fn synthetic_twin(kind: TraceKind, refs: usize) -> Trace {
    match kind {
        TraceKind::Random => syn::random_large(refs),
        TraceKind::Zipf => syn::zipf_large(refs),
        TraceKind::Httpd => syn::httpd_single(refs),
        TraceKind::Dev1 => syn::dev1(refs),
        TraceKind::Tpcc1 => syn::tpcc1(refs),
        TraceKind::Db2 => syn::db2_multi(refs, db2_footprint()),
        TraceKind::HttpdMulti => syn::httpd_multi(refs),
    }
}

/// The protocol family a cell belongs to (one throughput metric each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Independent LRU at every level.
    IndLru,
    /// Unified LRU with demotions (all insertion variants).
    UniLru,
    /// LRU clients over a Multi-Queue server.
    Mq,
    /// The ULC protocol (`UlcSingle` / `UlcMulti`).
    Ulc,
}

/// A scheme as the figures name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// indLRU.
    IndLru,
    /// uniLRU with one insertion variant.
    UniLru(UniLruVariant),
    /// LRU+MQ.
    Mq,
    /// ULC.
    Ulc,
}

impl Scheme {
    /// The scheme's protocol family.
    pub fn protocol(self) -> Protocol {
        match self {
            Scheme::IndLru => Protocol::IndLru,
            Scheme::UniLru(_) => Protocol::UniLru,
            Scheme::Mq => Protocol::Mq,
            Scheme::Ulc => Protocol::Ulc,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Scheme::IndLru => "indLRU",
            Scheme::UniLru(UniLruVariant::MruInsert) => "uniLRU-mru",
            Scheme::UniLru(UniLruVariant::LruInsert) => "uniLRU-lru",
            Scheme::UniLru(UniLruVariant::Adaptive) => "uniLRU-adaptive",
            Scheme::Mq => "MQ",
            Scheme::Ulc => "ULC",
        }
    }
}

/// One (trace, scheme) simulation of a workload.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Index into the workload's [`Workload::traces`].
    pub trace: usize,
    /// The scheme simulated.
    pub scheme: Scheme,
    /// Whether the engines run over `FaultScenario::mild(FAULT_SEED)`
    /// instead of the reliable plane.
    pub faulty: bool,
}

impl Cell {
    /// `trace/scheme`, the key of the pinned digests.
    pub fn label(&self, workload: Workload) -> String {
        format!(
            "{}/{}",
            workload.traces()[self.trace].name(),
            self.scheme.label()
        )
    }

    /// Constructs a fresh engine for this cell over `shape`.
    pub fn build(&self, shape: Shape) -> Engine {
        let plane = || FaultyPlane::new(FaultScenario::mild(FAULT_SEED));
        match (shape, self.scheme) {
            (Shape::Single { per_level }, scheme) => {
                let caps = vec![per_level; 3];
                match scheme {
                    Scheme::IndLru => Engine::Ind(IndLru::single_client(caps)),
                    Scheme::UniLru(_) => Engine::Uni(UniLru::single_client(caps)),
                    Scheme::Mq => panic!("LRU+MQ is a two-level client/server scheme"),
                    Scheme::Ulc => Engine::UlcSingle(UlcSingle::new(UlcConfig::new(caps))),
                }
            }
            (
                Shape::Multi {
                    clients,
                    client_blocks,
                    server_blocks,
                },
                scheme,
            ) => {
                let caps = vec![client_blocks; clients];
                match scheme {
                    Scheme::IndLru => {
                        let e = IndLru::multi_client(caps, vec![server_blocks]);
                        if self.faulty {
                            Engine::IndFaulty(e.with_plane(plane()))
                        } else {
                            Engine::Ind(e)
                        }
                    }
                    Scheme::UniLru(v) => {
                        let e = UniLru::multi_client(caps, vec![server_blocks], v);
                        if self.faulty {
                            Engine::UniFaulty(e.with_plane(plane()))
                        } else {
                            Engine::Uni(e)
                        }
                    }
                    Scheme::Mq => Engine::Mq(LruMqServer::new(caps, server_blocks)),
                    Scheme::Ulc => {
                        let e = ulc_multi(caps, server_blocks);
                        if self.faulty {
                            Engine::UlcFaulty(e.with_plane(plane()))
                        } else {
                            Engine::UlcMulti(e)
                        }
                    }
                }
            }
        }
    }
}

/// `UlcMulti` configured as `fig7::run_cell` configures it.
pub fn ulc_multi(client_capacities: Vec<usize>, server_capacity: usize) -> UlcMulti {
    UlcMulti::new(UlcMultiConfig {
        client_capacities,
        server_capacity,
        claim_rule: Default::default(),
    })
}

/// A constructed engine, kept concrete so the same cell can be driven
/// both through `&mut dyn MultiLevelPolicy` (as the figures do) and
/// through the monomorphic `simulate::<T>`.
#[derive(Debug)]
pub enum Engine {
    /// indLRU on the reliable plane.
    Ind(IndLru),
    /// indLRU on a fault-injecting plane.
    IndFaulty(IndLru<FaultyPlane>),
    /// uniLRU on the reliable plane.
    Uni(UniLru),
    /// uniLRU on a fault-injecting plane.
    UniFaulty(UniLru<FaultyPlane>),
    /// LRU+MQ.
    Mq(LruMqServer),
    /// Single-client ULC.
    UlcSingle(UlcSingle),
    /// Multi-client ULC on the reliable plane.
    UlcMulti(UlcMulti),
    /// Multi-client ULC on a fault-injecting plane.
    UlcFaulty(UlcMulti<FaultyPlane>),
}

/// Runs `$body` with `$e` bound to the concrete engine.
macro_rules! concrete {
    ($engine:expr, $e:ident => $body:expr) => {
        match $engine {
            Engine::Ind($e) => $body,
            Engine::IndFaulty($e) => $body,
            Engine::Uni($e) => $body,
            Engine::UniFaulty($e) => $body,
            Engine::Mq($e) => $body,
            Engine::UlcSingle($e) => $body,
            Engine::UlcMulti($e) => $body,
            Engine::UlcFaulty($e) => $body,
        }
    };
}

impl Engine {
    /// The engine behind the trait object the figures drive.
    pub fn as_dyn(&mut self) -> &mut dyn MultiLevelPolicy {
        concrete!(self, e => e)
    }

    /// `simulate` instantiated at the concrete engine type.
    pub fn simulate_mono(&mut self, trace: &Trace, warmup: usize) -> SimStats {
        concrete!(self, e => simulate(e, trace, warmup))
    }

    /// The engine's observability handle.
    pub fn obs_mut(&mut self) -> &mut ObsHandle {
        use ulc_obs::Observe;
        concrete!(self, e => e.obs_mut())
    }
}
