//! # perfbench — the repository's layered end-to-end benchmark
//!
//! One command runs one workload for a fixed time, checks every output,
//! and prints every metric with its unit and sample count, then one JSON
//! result line. It drives the system only through public functions —
//! `parse_gfa`, `LeanGraph::from_graph`, `PairSampler::sample_block`,
//! `CoordStore::apply_block`, `CpuEngine::run`, `sampled_path_stress`,
//! `write_lay`/`layout_to_tsv` — and through the `/v1` HTTP routes of an
//! in-process `HttpServer` and `Coordinator`.
//!
//! Workloads (inputs are generated from the seed before any timing):
//!
//! * `chr1-hogwild` — the paper's regime: a chromosome-scale graph whose
//!   working set is many times the per-core L2, laid out by the 2-thread
//!   Hogwild engine over a 10-iteration schedule.
//! * `mhc-1t` — the in-cache, bit-deterministic single-thread baseline.
//! * `serve-mix` — a closed loop of upload / submit / events / result
//!   cycles against one server, with cached resubmits mixed in.
//! * `fleet` — the same loop through a coordinator and one worker.
//!
//! A traced run (`--trace 1`) records a span around every call, reports
//! the per-layer metrics, writes the spans to `.bench_out/`, and reports
//! the difference to an untraced pass as tracing overhead.

pub mod check;
pub mod client;
pub mod layout;
pub mod quality;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use layout_core::LayoutConfig;
use report::Report;
use trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["chr1-hogwild", "mhc-1t", "serve-mix", "fleet"];

/// Input size: the benchmark's own, or a tiny one for the package's
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-long inputs that exercise every code path.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// SplitMix64 finalizer: derives independent input seeds per workload.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A layout workload's fixed shape.
struct LayoutShape {
    /// One spec per input graph; the loop lays them out in turn.
    specs: Vec<workloads::PangenomeSpec>,
    config: LayoutConfig,
    min_reps: usize,
    stress_bounds: layout::StressBounds,
}

fn layout_shape(name: &str, seed: u64, scale: Scale) -> Option<LayoutShape> {
    let tiny = scale == Scale::Tiny;
    // Trimmed-stress bounds are about 3x the largest value seen over ten
    // seeds. The paper estimate swings 5x on the sampling seed alone, so
    // its bound is wider still; an unoptimized layout scores orders of
    // magnitude above both.
    // Layout quality varies by ±20% between graphs of one spec, and a
    // layout's time by as much on a shared host, so each run lays out
    // several graph instances in turn (three chromosome-scale, twelve
    // mhc-sized) and reports the mean stress and median times.
    let (spec, graphs, iter_max, threads, min_reps, trimmed, paper) = match name {
        "chr1-hogwild" if tiny => (workloads::chr1_like(0.0005), 1, 4, 2, 1, 0.1, 10.0),
        "chr1-hogwild" => (workloads::chr1_like(0.01), 3, 10, 2, 3, 6e-5, 0.2),
        "mhc-1t" if tiny => (workloads::mhc_like(0.005), 2, 6, 1, 2, 0.1, 10.0),
        "mhc-1t" => (workloads::mhc_like(0.05), 12, 15, 1, 12, 2.5e-4, 2e-3),
        _ => return None,
    };
    let specs = (0..graphs)
        .map(|k| workloads::PangenomeSpec {
            seed: mix(mix(seed, k), spec.seed),
            ..spec.clone()
        })
        .collect();
    Some(LayoutShape {
        specs,
        config: LayoutConfig {
            iter_max,
            threads,
            ..LayoutConfig::default()
        },
        min_reps,
        stress_bounds: layout::StressBounds { trimmed, paper },
    })
}

fn serve_shape(name: &str, scale: Scale) -> Option<serve::ServeWorkload> {
    let fleet = match name {
        "serve-mix" => false,
        "fleet" => true,
        _ => return None,
    };
    Some(serve::ServeWorkload {
        fleet,
        clients: 2,
        pool: if scale == Scale::Tiny { 24 } else { 600 },
        iters: 5,
        // Five iterations leave some small graphs barely converged (up to
        // 9.7 over 1200 family graphs) while a linear start already scores
        // 0.005 on others, so these bounds only screen out garbage; the
        // quality check is parity with the in-process engine.
        stress_bounds: layout::StressBounds {
            trimmed: 50.0,
            paper: 200.0,
        },
    })
}

/// Run one workload and return its report. `Err` for an unknown
/// workload name.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(&args.workload);
    let l2 = stats::cache_kib(2);
    let l3 = stats::cache_kib(3);
    let kib = |k: Option<u64>| k.map_or("unknown".to_string(), |k| format!("{k} KiB"));
    report.context.push(format!(
        "sysfs: L2 {} per core, L3 {} shared; {} CPUs available",
        kib(l2),
        kib(l3),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let tracer = if let Some(shape) = layout_shape(&args.workload, args.seed, args.scale) {
        let texts: Vec<String> = shape
            .specs
            .iter()
            .map(|spec| pangraph::write_gfa(&workloads::generate(spec)))
            .collect();
        let cfg = &shape.config;
        let run = |min_reps: usize, tracer: &Tracer, report: &mut Report| {
            layout::layout_loop(
                &texts,
                cfg,
                shape.stress_bounds,
                min_reps,
                args.seconds,
                tracer,
                report,
            )
        };
        let plain = run(shape.min_reps, &Tracer::new(false), &mut report);
        layout::report_e2e(&plain, &mut report);
        if let Some(lean) = &plain.lean {
            let lean_bytes = lean.footprint_bytes();
            let coords = layout::coord_store_bytes(lean.node_count(), cfg.precision);
            let set = (lean_bytes + coords) as f64;
            let versus = |k: Option<u64>| {
                k.map_or("?".into(), |k| format!("{:.1}", set / (k as f64 * 1024.0)))
            };
            report.context.push(format!(
                "graph: {} nodes, {} steps, {} paths, {:.1} MB GFA; engine: {} threads, {} iterations, {} {}",
                lean.node_count(),
                lean.total_steps(),
                lean.path_count(),
                texts[0].len() as f64 / 1e6,
                cfg.resolved_threads(),
                cfg.iter_max,
                cfg.precision.label(),
                cfg.data_layout.label(),
            ));
            report.context.push(format!(
                "working set (computed): LeanGraph {:.1} MiB + coordinates {:.1} MiB = {:.1} MiB = {}x L2, {}x L3",
                lean_bytes as f64 / 1048576.0,
                coords as f64 / 1048576.0,
                set / 1048576.0,
                versus(l2),
                versus(l3),
            ));
        }
        if args.trace {
            let tracer = Tracer::new(true);
            // One layout suffices for the spans; the run must stay
            // within its time limit on chromosome-scale inputs.
            let traced = run(1, &tracer, &mut report);
            if traced.lean.is_some() {
                layout::report_layers(&traced, cfg, &tracer, &mut report);
            }
            report.layers_not_on_path(&["service", "http", "cluster"]);
            let (a, b) = (stats::median(&traced.ttl_s), stats::median(&plain.ttl_s));
            report.layer("trace.overhead_frac", a / b - 1.0, traced.ttl_s.len());
            Some(tracer)
        } else {
            None
        }
    } else if let Some(w) = serve_shape(&args.workload, args.scale) {
        let copies = if args.trace { 2 } else { 1 };
        let pool = serve::make_pool(w.pool * copies, mix(args.seed, 3));
        serve::run(&w, &pool, args.seconds, args.trace, &mut report)
    } else {
        return Err(format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    };
    if let Some(tracer) = tracer {
        let self_times: Vec<String> = tracer
            .self_times()
            .iter()
            .map(|(layer, s)| format!("{layer} {s:.4} s"))
            .collect();
        report
            .context
            .push(format!("self time by layer: {}", self_times.join(", ")));
        let path = std::path::PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => report.context.push(format!(
                "{} spans written to {}",
                tracer.len(),
                path.display()
            )),
            Err(e) => report.operation(Err(format!("write {}: {e}", path.display()))),
        }
    }
    Ok(report)
}
