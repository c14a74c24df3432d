//! Layer- and model-level experiment runners.

use flexagon_core::{
    mapper, Accelerator, AcceleratorConfig, CpuMkl, Dataflow, EngineConfig, ExecutionReport,
    ExecutionRequest, GammaLike, MappingStrategy, SigmaLike, SparchLike, Stationarity,
};
use flexagon_dnn::{DnnModel, LayerMatrices, LayerSpec};
use rayon::prelude::*;
use serde::Serialize;

/// Seed used by every harness binary, so all tables and figures come from
/// the same materialized workload.
pub const DEFAULT_SEED: u64 = 0xF1E_CA60;

/// The five systems of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SystemId {
    /// Intel-MKL-like CPU baseline.
    CpuMkl,
    /// SIGMA-like (Inner Product) accelerator.
    SigmaLike,
    /// SpArch-like (Outer Product) accelerator.
    SparchLike,
    /// GAMMA-like (Gustavson) accelerator.
    GammaLike,
    /// Flexagon with per-layer best dataflow.
    Flexagon,
}

impl SystemId {
    /// All five in the paper's plotting order.
    pub const ALL: [SystemId; 5] = [
        SystemId::CpuMkl,
        SystemId::SigmaLike,
        SystemId::SparchLike,
        SystemId::GammaLike,
        SystemId::Flexagon,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::CpuMkl => "CPU MKL",
            Self::SigmaLike => "SIGMA-like",
            Self::SparchLike => "Sparch-like",
            Self::GammaLike => "GAMMA-like",
            Self::Flexagon => "Flexagon",
        }
    }
}

/// Results of one layer across the three fixed-dataflow accelerators (the
/// CPU estimate rides along). Flexagon's per-layer result is the dataflow
/// selected by the configured [`MappingStrategy`] — the per-layer minimum
/// under the oracle (the paper's configuration), the calibrated cost
/// model's feature-only pick under the heuristic.
#[derive(Debug, Clone, Serialize)]
pub struct LayerResults {
    /// The layer that was run.
    pub spec: LayerSpec,
    /// SIGMA-like (Inner-Product(M)) report.
    pub inner_product: ExecutionReport,
    /// SpArch-like (Outer-Product(M)) report.
    pub outer_product: ExecutionReport,
    /// GAMMA-like (Gustavson(M)) report.
    pub gustavson: ExecutionReport,
    /// CPU baseline report.
    pub cpu: ExecutionReport,
    /// The dataflow Flexagon runs this layer with under the configured
    /// mapping strategy (equals [`LayerResults::best_dataflow`] for
    /// [`MappingStrategy::Oracle`]).
    pub flexagon_dataflow: Dataflow,
}

impl LayerResults {
    /// The dataflow with the fewest cycles — the per-layer winner that
    /// Fig. 1 plots and that Flexagon's oracle configuration selects.
    pub fn best_dataflow(&self) -> Dataflow {
        let mut best = (self.inner_product.total_cycles, Dataflow::InnerProductM);
        if self.outer_product.total_cycles < best.0 {
            best = (self.outer_product.total_cycles, Dataflow::OuterProductM);
        }
        if self.gustavson.total_cycles < best.0 {
            best = (self.gustavson.total_cycles, Dataflow::GustavsonM);
        }
        best.1
    }

    /// The report of the dataflow Flexagon ran under the configured
    /// strategy (= the winning dataflow's report under the oracle).
    pub fn flexagon(&self) -> &ExecutionReport {
        match self.flexagon_dataflow {
            Dataflow::InnerProductM => &self.inner_product,
            Dataflow::OuterProductM => &self.outer_product,
            _ => &self.gustavson,
        }
    }

    /// Report for one of the five systems.
    pub fn of(&self, system: SystemId) -> &ExecutionReport {
        match system {
            SystemId::CpuMkl => &self.cpu,
            SystemId::SigmaLike => &self.inner_product,
            SystemId::SparchLike => &self.outer_product,
            SystemId::GammaLike => &self.gustavson,
            SystemId::Flexagon => self.flexagon(),
        }
    }
}

/// Execution options for the layer/model harnesses: the mapping strategy
/// plus where the parallelism lives.
///
/// The default reproduces the classic harness bit for bit: oracle mapping,
/// the default (unsharded) engine, and layer-level rayon fan-out.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// How Flexagon selects its per-layer dataflow.
    pub strategy: MappingStrategy,
    /// Engine template applied to every accelerator (notably the
    /// intra-layer shard grain and worker knobs).
    pub engine: EngineConfig,
    /// Fan layers and systems across the rayon pool (the classic runner).
    /// When disabled, layers and systems run sequentially and the
    /// intra-layer shard workers own the machine — the configuration the
    /// sharded wall-clock benchmark measures.
    pub layer_parallel: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            strategy: MappingStrategy::Oracle,
            engine: EngineConfig::default(),
            layer_parallel: true,
        }
    }
}

/// Concurrent simulations per layer under the layer-parallel runner: the
/// three fixed-dataflow accelerators fan out through nested `rayon::join`s
/// in [`run_layer_on`]. The CPU baseline's report is arithmetic on the
/// SIGMA-like report and runs no simulation.
pub const LAYER_SIM_FANOUT: usize = 3;

/// The intra-layer shard-worker budget that keeps nested parallelism from
/// oversubscribing: with `parallel_sims` simulations already fanned across
/// `total_threads` (layers × the per-layer system fan-out), each
/// simulation may use at most `total_threads / parallel_sims` shard
/// workers (at least one).
pub fn intra_layer_worker_budget(total_threads: usize, parallel_sims: usize) -> usize {
    (total_threads / parallel_sims.clamp(1, total_threads.max(1))).max(1)
}

/// Runs one layer on the four accelerators plus the CPU baseline under the
/// given [`RunOptions`]: [`run_layer_on`] over the layer's operands,
/// materialized from `seed`.
///
/// # Panics
///
/// As [`run_layer_on`].
pub fn run_layer(spec: &LayerSpec, seed: u64, opts: &RunOptions) -> LayerResults {
    run_layer_on(spec, &spec.materialize(seed), opts)
}

/// Runs one layer, whose operands `mats` the caller has materialized from
/// `spec`, on the four accelerators plus the CPU baseline under the given
/// [`RunOptions`].
///
/// The three fixed-dataflow baselines run their M-stationary variant, as in
/// the paper's per-layer methodology, through [`Accelerator::simulate`]:
/// only their reports are kept, so none of them computes C. Flexagon's
/// number is the strategy's selection among those three measured
/// dataflows: the per-layer best under [`MappingStrategy::Oracle`], the
/// calibrated cost model's feature-only pick under
/// [`MappingStrategy::Heuristic`] (computed from the operands before any
/// result is known), or the pinned class under [`MappingStrategy::Fixed`].
///
/// The CPU baseline's report is [`CpuMkl::report`] of the SIGMA-like
/// report's work profile and nnz(C). nnz(C) is that report's
/// [`ExecutionReport::output_nnz`], the elements its write buffer
/// drained: every dataflow passes each element of C through the write
/// buffer exactly once. Neither number depends on how the operands are
/// ordered or which engine ran, since every engine keeps the structural
/// zeros the CPU's C keeps, so the report equals [`CpuMkl::run`]'s without
/// computing C at all.
///
/// # Panics
///
/// Panics if any simulation fails — harness inputs are always well-formed —
/// or if a `Fixed` strategy names an N-stationary dataflow (this harness
/// measures the M-stationary variants).
pub fn run_layer_on(spec: &LayerSpec, mats: &LayerMatrices, opts: &RunOptions) -> LayerResults {
    let base_cfg = {
        let mut cfg = AcceleratorConfig::table5();
        cfg.engine = opts.engine;
        cfg
    };
    let sim_ip = || {
        SigmaLike::new(base_cfg)
            .simulate(ExecutionRequest::new(&mats.a, &mats.b).dataflow(Dataflow::InnerProductM))
            .expect("inner product run")
            .report
    };
    let sim_op = || {
        SparchLike::new(base_cfg)
            .simulate(ExecutionRequest::new(&mats.a, &mats.b).dataflow(Dataflow::OuterProductM))
            .expect("outer product run")
            .report
    };
    let sim_gu = || {
        GammaLike::new(base_cfg)
            .simulate(ExecutionRequest::new(&mats.a, &mats.b).dataflow(Dataflow::GustavsonM))
            .expect("gustavson run")
            .report
    };
    // The three accelerators are independent simulations of the same
    // operands. Under layer-level parallelism they fan out across cores;
    // each closure is a pure function of the materialized matrices, so the
    // parallel schedule cannot change any report bit. When the intra-layer
    // shard workers own the machine instead, the accelerators run
    // sequentially so the two levels of parallelism never multiply.
    let (ip, op, gu) = if opts.layer_parallel {
        let ((ip, op), gu) = rayon::join(|| rayon::join(sim_ip, sim_op), sim_gu);
        (ip, op, gu)
    } else {
        (sim_ip(), sim_op(), sim_gu())
    };
    let cpu = CpuMkl::with_defaults().report(&ip.work, ip.output_nnz());
    let mut results = LayerResults {
        spec: spec.clone(),
        inner_product: ip,
        outer_product: op,
        gustavson: gu,
        cpu,
        // Placeholder until the strategy resolves below (Oracle needs the
        // three reports it is selecting over).
        flexagon_dataflow: Dataflow::InnerProductM,
    };
    results.flexagon_dataflow = match opts.strategy {
        MappingStrategy::Oracle => results.best_dataflow(),
        MappingStrategy::Heuristic => mapper::heuristic(&base_cfg, &mats.a, &mats.b),
        MappingStrategy::Fixed(df) => {
            assert_eq!(
                df.stationarity(),
                Stationarity::M,
                "the per-layer harness measures M-stationary dataflows, got {df}"
            );
            df
        }
    };
    results
}

/// Aggregated results of a whole model: total cycles per system plus the
/// per-layer winner list.
#[derive(Debug, Clone, Serialize)]
pub struct ModelResults {
    /// Model short code.
    pub short: &'static str,
    /// Model name.
    pub name: &'static str,
    /// Total cycles per system, in [`SystemId::ALL`] order.
    pub total_cycles: [u64; 5],
    /// Dataflow Flexagon ran per layer under the configured strategy —
    /// the per-layer winner (Fig. 1's series) under the oracle.
    pub winners: Vec<Dataflow>,
}

impl ModelResults {
    /// Aggregates a model's per-layer results, in layer order as
    /// [`run_layers`] returns them, into per-system totals and the winner
    /// list. Totals accumulate sequentially, so every output byte matches
    /// the sequential runner's whatever schedule produced the layers.
    ///
    /// `verbose` prints one line per layer to stderr.
    ///
    /// # Panics
    ///
    /// Panics if `layers` does not hold one result per layer of `model`.
    pub fn aggregate(model: &DnnModel, layers: &[LayerResults], verbose: bool) -> Self {
        assert_eq!(layers.len(), model.layers.len(), "one result per layer");
        let mut totals = [0u64; 5];
        let mut winners = Vec::with_capacity(layers.len());
        for (spec, layer) in model.layers.iter().zip(layers) {
            for (i, system) in SystemId::ALL.into_iter().enumerate() {
                totals[i] += layer.of(system).total_cycles;
            }
            winners.push(layer.flexagon_dataflow);
            if verbose {
                eprintln!(
                    "  {}/{}: {} -> {}",
                    model.short, spec.index, spec.name, layer.flexagon_dataflow
                );
            }
        }
        Self {
            short: model.short,
            name: model.name,
            total_cycles: totals,
            winners,
        }
    }

    /// Total cycles for one system.
    pub fn cycles(&self, system: SystemId) -> u64 {
        let idx = SystemId::ALL
            .iter()
            .position(|&s| s == system)
            .expect("system in ALL");
        self.total_cycles[idx]
    }

    /// Speed-up of `system` over the CPU baseline (Fig. 12's y-axis).
    pub fn speedup_vs_cpu(&self, system: SystemId) -> f64 {
        self.cycles(SystemId::CpuMkl) as f64 / self.cycles(system) as f64
    }
}

/// Runs every layer of a model under the default [`RunOptions`] (the
/// oracle strategy, the paper's configuration) and aggregates per-system
/// totals.
///
/// `verbose` prints one progress line per layer to stderr.
pub fn run_model(model: &DnnModel, seed: u64, verbose: bool) -> ModelResults {
    run_model_opts(model, seed, &RunOptions::default(), verbose)
}

/// Runs every layer of a model under the given [`RunOptions`] and
/// aggregates per-system totals: [`ModelResults::aggregate`] over
/// [`run_layers`].
///
/// `verbose` prints one progress line per layer to stderr.
pub fn run_model_opts(
    model: &DnnModel,
    seed: u64,
    opts: &RunOptions,
    verbose: bool,
) -> ModelResults {
    ModelResults::aggregate(model, &run_layers(model, seed, opts), verbose)
}

/// Runs every layer of a model under the given [`RunOptions`], returning
/// the results in layer order.
///
/// Nested-parallelism budget: when layers fan out across the rayon pool,
/// the intra-layer shard workers are clamped to
/// [`intra_layer_worker_budget`] so the two levels never multiply into
/// oversubscription. When `layer_parallel` is off, layers run sequentially
/// and the configured shard workers own the machine.
pub fn run_layers(model: &DnnModel, seed: u64, opts: &RunOptions) -> Vec<LayerResults> {
    let mut opts = *opts;
    if opts.layer_parallel {
        let threads = rayon::current_num_threads();
        // Each concurrently-running layer itself fans out LAYER_SIM_FANOUT
        // simulations, so the divisor is the full simulation concurrency —
        // not just the layer count.
        let parallel_sims = model.layers.len().max(1).saturating_mul(LAYER_SIM_FANOUT);
        opts.engine.shard_workers = opts
            .engine
            .shard_workers
            .min(intra_layer_worker_budget(threads, parallel_sims));
    }
    // Layers are independent given the fixed seed (each materializes its own
    // deterministic operands from `spec` + `seed`), so the whole model fans
    // out across cores; results come back in layer order. (Sharded engines
    // are themselves schedule-independent, so the clamp above affects wall
    // clock only, never a report bit.)
    if opts.layer_parallel {
        model
            .layers
            .par_iter()
            .map(|spec| run_layer(spec, seed, &opts))
            .collect()
    } else {
        model
            .layers
            .iter()
            .map(|spec| run_layer(spec, seed, &opts))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default options with Flexagon selecting under `strategy`.
    fn with(strategy: MappingStrategy) -> RunOptions {
        RunOptions {
            strategy,
            ..RunOptions::default()
        }
    }

    #[test]
    fn run_layer_produces_all_systems() {
        let spec = LayerSpec::new(0, "t", 32, 32, 32, 60.0, 60.0);
        let r = run_layer(&spec, 1, &RunOptions::default());
        for system in SystemId::ALL {
            assert!(r.of(system).total_cycles > 0, "{}", system.name());
        }
        // Flexagon is never slower than any fixed accelerator.
        let f = r.flexagon().total_cycles;
        assert!(f <= r.inner_product.total_cycles);
        assert!(f <= r.outer_product.total_cycles);
        assert!(f <= r.gustavson.total_cycles);
    }

    #[test]
    fn cpu_report_from_counts_matches_cpu_run() {
        // The CPU baseline's report comes from the SIGMA-like run's counts;
        // it must serialize exactly as the report of the CPU's own SpGEMM.
        let specs = [
            LayerSpec::new(0, "square", 32, 32, 32, 60.0, 60.0),
            LayerSpec::new(1, "wide", 8, 40, 200, 30.0, 90.0),
            LayerSpec::new(2, "tall", 120, 64, 3, 95.0, 20.0),
            LayerSpec::new(3, "dense", 16, 16, 16, 0.0, 0.0),
            LayerSpec::new(4, "zero B", 16, 20, 24, 50.0, 100.0),
        ];
        for spec in &specs {
            let mats = spec.materialize(7);
            let want = CpuMkl::with_defaults().run(&mats.a, &mats.b).unwrap();
            let got = run_layer(spec, 7, &RunOptions::default()).cpu;
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&want.report).unwrap(),
                "{}",
                spec.name
            );
            if spec.sp_b == 100.0 {
                assert_eq!((mats.b.nnz(), want.c.nnz()), (0, 0));
            }
        }
    }

    #[test]
    fn heuristic_strategy_selects_without_peeking() {
        let spec = LayerSpec::new(0, "t", 32, 32, 32, 60.0, 60.0);
        let oracle = run_layer(&spec, 1, &with(MappingStrategy::Oracle));
        let heuristic = run_layer(&spec, 1, &with(MappingStrategy::Heuristic));
        // Same simulations either way; only the Flexagon selection differs.
        assert_eq!(
            oracle.inner_product.total_cycles,
            heuristic.inner_product.total_cycles
        );
        assert!(Dataflow::M_STATIONARY.contains(&heuristic.flexagon_dataflow));
        // The heuristic's report is one of the three measured ones.
        let f = heuristic.flexagon().total_cycles;
        assert!(
            f == heuristic.inner_product.total_cycles
                || f == heuristic.outer_product.total_cycles
                || f == heuristic.gustavson.total_cycles
        );
    }

    #[test]
    fn fixed_strategy_pins_the_class() {
        let spec = LayerSpec::new(0, "t", 24, 24, 24, 50.0, 50.0);
        for df in Dataflow::M_STATIONARY {
            let r = run_layer(&spec, 1, &with(MappingStrategy::Fixed(df)));
            assert_eq!(r.flexagon_dataflow, df);
            let expected = match df {
                Dataflow::InnerProductM => r.inner_product.total_cycles,
                Dataflow::OuterProductM => r.outer_product.total_cycles,
                _ => r.gustavson.total_cycles,
            };
            assert_eq!(r.flexagon().total_cycles, expected);
        }
    }

    #[test]
    #[should_panic(expected = "M-stationary")]
    fn fixed_strategy_rejects_n_stationary() {
        let spec = LayerSpec::new(0, "t", 8, 8, 8, 50.0, 50.0);
        run_layer(
            &spec,
            1,
            &with(MappingStrategy::Fixed(Dataflow::GustavsonN)),
        );
    }

    #[test]
    fn worker_budget_divides_threads() {
        assert_eq!(intra_layer_worker_budget(8, 4), 2);
        assert_eq!(intra_layer_worker_budget(4, 8), 1);
        assert_eq!(intra_layer_worker_budget(1, 1), 1);
        assert_eq!(intra_layer_worker_budget(8, 0), 8);
        assert_eq!(intra_layer_worker_budget(0, 3), 1);
        assert_eq!(intra_layer_worker_budget(6, 2), 3);
    }

    #[test]
    fn sharded_model_run_is_schedule_independent() {
        // The same sharded engine must produce identical totals whether the
        // parallelism lives at the layer level or inside the layers.
        let model = DnnModel {
            name: "Tiny",
            short: "T",
            domain: flexagon_dnn::Domain::ComputerVision,
            layers: vec![
                LayerSpec::new(0, "l0", 24, 24, 24, 55.0, 55.0),
                LayerSpec::new(1, "l1", 24, 24, 24, 60.0, 50.0),
            ],
        };
        let engine = flexagon_core::EngineConfig::default().sharded(48, 3);
        let base = RunOptions {
            engine,
            layer_parallel: false,
            ..RunOptions::default()
        };
        let layered = RunOptions {
            layer_parallel: true,
            ..base
        };
        let a = run_model_opts(&model, 1, &base, false);
        let b = run_model_opts(&model, 1, &layered, false);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.winners, b.winners);
    }

    #[test]
    fn default_options_match_classic_runner() {
        // The classic harness: oracle mapping on the unsharded engine, with
        // the systems of a layer run one after another.
        let spec = LayerSpec::new(0, "t", 24, 24, 24, 50.0, 50.0);
        let opts = RunOptions::default();
        assert_eq!(opts.strategy, MappingStrategy::Oracle);
        assert_eq!(opts.engine, EngineConfig::default());
        let classic = run_layer(
            &spec,
            1,
            &RunOptions {
                layer_parallel: false,
                ..opts
            },
        );
        let r = run_layer(&spec, 1, &opts);
        assert_eq!(classic.gustavson.total_cycles, r.gustavson.total_cycles);
        assert_eq!(classic.flexagon_dataflow, r.flexagon_dataflow);
        assert_eq!(r.flexagon_dataflow, r.best_dataflow());
    }

    #[test]
    fn model_aggregation_sums_layers() {
        let model = DnnModel {
            name: "Tiny",
            short: "T",
            domain: flexagon_dnn::Domain::ComputerVision,
            layers: vec![
                LayerSpec::new(0, "l0", 16, 16, 16, 50.0, 50.0),
                LayerSpec::new(1, "l1", 16, 16, 16, 50.0, 50.0),
            ],
        };
        let results = run_model(&model, 1, false);
        assert_eq!(results.winners.len(), 2);
        assert!(results.speedup_vs_cpu(SystemId::Flexagon) > 0.0);
        let l0 = run_layer(&model.layers[0], 1, &RunOptions::default());
        let l1 = run_layer(&model.layers[1], 1, &RunOptions::default());
        assert_eq!(
            results.cycles(SystemId::GammaLike),
            l0.gustavson.total_cycles + l1.gustavson.total_cycles
        );
    }
}
