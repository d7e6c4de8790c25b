//! The in-process layout path: GFA text → `LeanGraph` → Hogwild engine →
//! `.lay` bytes, timed call by call, plus the isolated layer passes
//! (sampler alone, recorded-term replay through the coordinate kernel,
//! the other thread count) that a traced run adds.

use crate::check;
use crate::quality;
use crate::report::Report;
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use layout_core::{init_linear, CoordStore, CpuEngine, LayoutConfig, PairSampler, Precision};
use layout_core::{Schedule, Term};
use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;
use pgmetrics::SamplingConfig;
use pgrng::Xoshiro256Plus;
use std::time::Instant;

/// The paper's stress estimator as `pgl stress` runs it: 100 samples per
/// node at one seed, so differences come from layouts, not sampling.
const STRESS: SamplingConfig = SamplingConfig {
    samples_per_node: 100,
    seed: 0x5EED_5EED,
};

/// Reference bounds a layout's stress must stay within.
#[derive(Debug, Clone, Copy)]
pub struct StressBounds {
    /// Bound on [`quality::trimmed_stress`], the gated figure.
    pub trimmed: f64,
    /// Loose bound on the paper's untrimmed estimate, whose few largest
    /// terms swing it by several times between layouts.
    pub paper: f64,
}

impl StressBounds {
    /// Evaluate and check `layout`'s trimmed stress and, in traced runs,
    /// the paper estimate; returns the trimmed stress, the paper estimate
    /// with the seconds it took (traced runs), and the check's outcome.
    pub fn check(
        &self,
        layout: &Layout2D,
        lean: &LeanGraph,
        tracer: &Tracer,
        req: u64,
    ) -> (f64, Option<(f64, f64)>, Result<(), String>) {
        let trimmed = quality::trimmed_stress(layout, lean);
        let mut outcome = check::stress_within(trimmed, self.trimmed);
        let paper = tracer.enabled().then(|| {
            let t = Instant::now();
            let paper = tracer.time("metrics.stress", req, None, || {
                pgmetrics::sampled_path_stress(layout, lean, STRESS).mean
            });
            outcome = outcome.clone().and_then(|()| {
                check::stress_within(paper, self.paper).map_err(|e| format!("paper estimator: {e}"))
            });
            (paper, t.elapsed().as_secs_f64())
        });
        (
            trimmed,
            paper,
            outcome.map_err(|e| format!("{e} (trimmed {trimmed})")),
        )
    }
}

/// Timed parse+build repetitions before each layout, beside the one the
/// layout itself starts with: set-up samples spread over the whole run
/// rather than bunched at its start, so they see the same host as the
/// layouts do. One untimed parse+build before the loop warms the
/// process, so the first sample pays no one-off costs the rest do not.
const SETUPS_PER_REP: usize = 3;

/// Sampler draws per iteration in the isolated pass: the whole
/// iteration up to this cap, so the pass stays a few seconds even at
/// chromosome scale while covering every iteration of the schedule.
const SAMPLER_DRAWS_PER_ITER: u64 = 2_000_000;

/// Terms recorded from the sampler pass for the coordinate replay.
const RECORDED_TERMS: usize = 1 << 20;

/// Minimum wall time of the coordinate replay.
const REPLAY_SECONDS: f64 = 0.5;

/// Samples from the layout loop.
#[derive(Debug, Default)]
pub struct LoopSamples {
    /// Parse + lean build, seconds (in and before each layout).
    pub setup_s: Vec<f64>,
    /// Parse alone, seconds (in and before each layout).
    pub parse_s: Vec<f64>,
    /// GFA megabytes parsed per second, per parse.
    pub parse_mb_per_s: Vec<f64>,
    /// Lean build alone, seconds (in and before each layout).
    pub lean_s: Vec<f64>,
    /// GFA text to `.lay` bytes, seconds.
    pub ttl_s: Vec<f64>,
    /// Engine call to `.lay` bytes, milliseconds.
    pub job_ms: Vec<f64>,
    /// Engine wall time (`RunReport::wall`), seconds.
    pub engine_s: Vec<f64>,
    /// Applied terms per engine-second.
    pub updates_per_s: Vec<f64>,
    /// Trimmed sampled path stress per layout.
    pub stress: Vec<f64>,
    /// The paper's untrimmed estimate per layout (traced runs).
    pub paper_stress: Vec<f64>,
    /// Paper-estimator evaluation time, seconds (traced runs).
    pub stress_s: Vec<f64>,
    /// `.lay` encode time, seconds.
    pub encode_lay_s: Vec<f64>,
    /// Terms applied per layout.
    pub terms: Vec<u64>,
    /// Steps attempted per layout.
    pub attempted: Vec<u64>,
    /// `.lay` size of the last layout.
    pub lay_bytes: usize,
    /// The last graph built.
    pub lean: Option<LeanGraph>,
    /// The last layout computed.
    pub layout: Option<Layout2D>,
}

/// Lay out the `texts` in turn under `cfg` until `seconds` have passed
/// and at least `min_reps` layouts are done, checking every layout. Each
/// layout is one operation in `report`. Single-thread runs must be
/// bit-deterministic: each graph's layouts are compared, and when no
/// graph was laid out twice the first one is laid out again to check.
pub fn layout_loop(
    texts: &[String],
    cfg: &LayoutConfig,
    bounds: StressBounds,
    min_reps: usize,
    seconds: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> LoopSamples {
    let mut s = LoopSamples::default();
    let engine = CpuEngine::new(cfg.clone());
    let deterministic = cfg.resolved_threads() == 1;
    let mut first: Vec<Option<(u64, Layout2D)>> = vec![None; texts.len()];
    if let Ok(graph) = pangraph::parse_gfa(&texts[0]) {
        std::hint::black_box(LeanGraph::from_graph(&graph));
    }
    let start = Instant::now();
    while s.ttl_s.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let instance = s.ttl_s.len() % texts.len();
        let text = &texts[instance];
        for _ in 0..SETUPS_PER_REP {
            let t = Instant::now();
            let Ok(graph) = pangraph::parse_gfa(text) else {
                break;
            };
            let parsed = t.elapsed();
            std::hint::black_box(LeanGraph::from_graph(&graph));
            s.parse_s.push(parsed.as_secs_f64());
            s.parse_mb_per_s
                .push(text.len() as f64 / 1e6 / parsed.as_secs_f64());
            s.lean_s.push((t.elapsed() - parsed).as_secs_f64());
            s.setup_s.push(t.elapsed().as_secs_f64());
        }
        let req = tracer.request();
        let job = tracer.begin("bench.layout", req, None);
        let t0 = Instant::now();
        let graph = match tracer.time("graph.parse", req, Some(job), || pangraph::parse_gfa(text)) {
            Ok(g) => g,
            Err(e) => {
                tracer.end(job);
                report.operation(Err(format!("parse_gfa: {e}")));
                break;
            }
        };
        let t_parse = t0.elapsed();
        let lean = tracer.time("graph.lean_build", req, Some(job), || {
            LeanGraph::from_graph(&graph)
        });
        drop(graph);
        let t_setup = t0.elapsed();
        let (layout, run) = tracer.time("cpu.run", req, Some(job), || engine.run(&lean));
        let t_run = t0.elapsed();
        let lay = tracer.time("io.encode_lay", req, Some(job), || pgio::write_lay(&layout));
        let ttl = t0.elapsed();
        tracer.end(job);

        s.parse_s.push(t_parse.as_secs_f64());
        s.parse_mb_per_s
            .push(text.len() as f64 / 1e6 / t_parse.as_secs_f64());
        s.lean_s.push((t_setup - t_parse).as_secs_f64());
        s.setup_s.push(t_setup.as_secs_f64());
        s.ttl_s.push(ttl.as_secs_f64());
        s.job_ms.push((ttl - t_setup).as_secs_f64() * 1e3);
        s.engine_s.push(run.wall.as_secs_f64());
        s.encode_lay_s.push((ttl - t_run).as_secs_f64());
        s.updates_per_s.push(run.updates_per_sec());
        s.terms.push(run.terms_applied);
        s.attempted.push(run.steps_attempted);
        s.lay_bytes = lay.len();

        // Checks and the read path run after the clock stops.
        let outcome = (|| {
            check::finite(&layout)?;
            check::applied(run.terms_applied)?;
            if check::decode_lay(&lay, lean.node_count())? != layout {
                return Err("decoded .lay differs from the layout".to_string());
            }
            let (trimmed, paper, outcome) = bounds.check(&layout, &lean, tracer, req);
            s.stress.push(trimmed);
            if let Some((paper, secs)) = paper {
                s.paper_stress.push(paper);
                s.stress_s.push(secs);
            }
            outcome?;
            if deterministic {
                same_as_first(&mut first[instance], run.terms_applied, &layout)?;
            }
            Ok(())
        })();
        report.operation(outcome);
        s.lean = Some(lean);
        s.layout = Some(layout);
    }
    if deterministic && s.ttl_s.len() <= texts.len() {
        if let Some(Ok(graph)) = first[0].is_some().then(|| pangraph::parse_gfa(&texts[0])) {
            let (layout, run) = engine.run(&LeanGraph::from_graph(&graph));
            report.operation(same_as_first(&mut first[0], run.terms_applied, &layout));
        }
    }
    s
}

/// Record the first single-thread layout of a graph, or check a later
/// one against it bit for bit.
fn same_as_first(
    first: &mut Option<(u64, Layout2D)>,
    terms: u64,
    layout: &Layout2D,
) -> Result<(), String> {
    match first {
        None => {
            *first = Some((terms, layout.clone()));
            Ok(())
        }
        Some((t, l)) if *t == terms && l == layout => Ok(()),
        Some(_) => Err("single-thread layouts of one graph differ between runs".into()),
    }
}

/// Report the end-to-end metrics of a layout loop.
pub fn report_e2e(s: &LoopSamples, report: &mut Report) {
    let n = s.ttl_s.len();
    report.e2e("setup_s", median(&s.setup_s), s.setup_s.len());
    report.e2e("time_to_layout_s", median(&s.ttl_s), n);
    report.e2e("updates_per_s", median(&s.updates_per_s), n);
    report.e2e("stress", mean(&s.stress), s.stress.len());
    report.e2e("peak_rss_mb", crate::stats::peak_rss_mb(), 1);
    report.e2e("job_p50_ms", median(&s.job_ms), n);
    report.e2e("job_p90_ms", quantile(&s.job_ms, 0.9), n);
    report.e2e("jobs_per_s", n as f64 / s.ttl_s.iter().sum::<f64>(), n);
}

/// Bytes of one coordinate value under `precision`.
fn coord_bytes(precision: Precision) -> usize {
    match precision {
        Precision::F64 => 8,
        Precision::F32 => 4,
    }
}

fn elem<T>(_: &[T]) -> usize {
    std::mem::size_of::<T>()
}

/// Computed bytes one accepted term reads from the graph arrays: the
/// alias-table column (`f64` probability + `u32` alias), the path's two
/// step offsets, the Zipf parameters (`2 × f64`, cooled draws only),
/// and per endpoint its step node, step position and — for the half of
/// draws that pick the segment end — the node length.
pub fn sampler_bytes_per_term(lean: &LeanGraph, cfg: &LayoutConfig) -> f64 {
    let cool = cfg.first_cooling_iter().min(cfg.iter_max) as f64;
    let cooled_share = (0.5 * cool + (cfg.iter_max as f64 - cool)) / cfg.iter_max.max(1) as f64;
    let alias = 8 + 4;
    let offsets = 2 * elem(&lean.step_offset);
    let zipf = 16.0 * cooled_share;
    let per_end = elem(&lean.step_node) as f64
        + elem(&lean.step_pos) as f64
        + 0.5 * elem(&lean.node_len) as f64;
    (alias + offsets) as f64 + zipf + 2.0 * per_end
}

/// Computed bytes one applied term moves in the coordinate kernel: the
/// term record, then a load and a store of both endpoints' `(x, y)`.
pub fn coords_bytes_per_term(precision: Precision) -> f64 {
    (std::mem::size_of::<Term>() + 4 * 2 * coord_bytes(precision)) as f64
}

/// Bytes of the coordinate store for `nodes` nodes (four endpoint
/// coordinates and the node length per node).
pub fn coord_store_bytes(nodes: usize, precision: Precision) -> u64 {
    (nodes * 5 * coord_bytes(precision)) as u64
}

/// The traced run's layer metrics for the graph/sampler/coords/cpu/
/// metrics/io layers, from the loop's samples plus isolated passes.
pub fn report_layers(s: &LoopSamples, cfg: &LayoutConfig, tracer: &Tracer, report: &mut Report) {
    let lean = s.lean.as_ref().expect("the loop built a graph");
    let layout = s.layout.as_ref().expect("the loop computed a layout");
    let parse_s = median(&s.parse_s);
    report.layer("graph.parse_s", parse_s, s.parse_s.len());
    report.layer(
        "graph.parse_mb_per_s",
        median(&s.parse_mb_per_s),
        s.parse_mb_per_s.len(),
    );
    report.layer("graph.lean_build_s", median(&s.lean_s), s.lean_s.len());
    report.layer("graph.lean_bytes", lean.footprint_bytes() as f64, 1);

    // Sampler alone, one thread, over the engine's iteration sequence.
    let req = tracer.request();
    let threads = cfg.resolved_threads();
    let block = cfg.resolved_term_block();
    let steps_per_iter = cfg.steps_per_iter(lean.total_steps() as u64);
    let draws_per_iter = steps_per_iter.min(SAMPLER_DRAWS_PER_ITER);
    let record_per_iter = RECORDED_TERMS / cfg.iter_max.max(1) as usize;
    let sampler = PairSampler::new(lean, cfg);
    let mut rng = Xoshiro256Plus::split_streams(cfg.seed, 1).remove(0);
    let mut buf = Vec::with_capacity(block);
    let mut recorded: Vec<Vec<Term>> = Vec::with_capacity(cfg.iter_max as usize);
    let (mut draws, mut accepted) = (0u64, 0u64);
    let t = Instant::now();
    let span = tracer.begin("sampler.sample_block", req, None);
    for iter in 0..cfg.iter_max {
        let mut keep = Vec::with_capacity(record_per_iter);
        let mut left = draws_per_iter;
        while left > 0 {
            let want = left.min(block as u64) as usize;
            left -= want as u64;
            accepted += sampler.sample_block(lean, &mut rng, iter, want, &mut buf) as u64;
            if keep.len() < record_per_iter {
                let room = record_per_iter - keep.len();
                keep.extend_from_slice(&buf[..buf.len().min(room)]);
            }
        }
        draws += draws_per_iter;
        recorded.push(keep);
    }
    tracer.end(span);
    let sample_s = t.elapsed().as_secs_f64();
    let sampler_tps = accepted as f64 / sample_s;
    report.layer("sampler.terms_per_s", sampler_tps, 1);
    report.layer("sampler.accept_ratio", accepted as f64 / draws as f64, 1);
    report.layer(
        "sampler.bytes_per_term",
        sampler_bytes_per_term(lean, cfg),
        1,
    );
    if threads == 1 && draws_per_iter == steps_per_iter {
        // A full single-thread replay draws exactly the engine's stream.
        let engine_terms = *s.terms.last().expect("the loop computed a layout");
        report.operation(if accepted == engine_terms {
            Ok(())
        } else {
            Err(format!(
                "sampler replay accepted {accepted} terms, the engine applied {engine_terms}"
            ))
        });
    }

    // Coordinate kernel alone: replay the recorded terms at their
    // iterations' learning rates through the engine's kernel choice.
    let schedule = Schedule::new(cfg, (lean.max_path_nuc_len() as f64).max(1.0));
    let store = CoordStore::with_precision(cfg.data_layout, cfg.precision, lean);
    store.load_from(&init_linear(lean, cfg.init_jitter, cfg.seed));
    let simd = cfg.resolved_simd();
    let mut applied = 0u64;
    let t = Instant::now();
    let span = tracer.begin("coords.apply_block", req, None);
    while applied == 0 || t.elapsed().as_secs_f64() < REPLAY_SECONDS {
        for (iter, terms) in recorded.iter().enumerate() {
            let eta = schedule.eta(iter as u32);
            for chunk in terms.chunks(block) {
                if simd {
                    store.apply_block_simd(chunk, eta);
                } else {
                    store.apply_block(chunk, eta);
                }
                applied += chunk.len() as u64;
            }
        }
        if applied == 0 {
            break;
        }
    }
    tracer.end(span);
    let coords_tps = applied as f64 / t.elapsed().as_secs_f64();
    report.layer("coords.terms_per_s", coords_tps, 1);
    report.layer(
        "coords.bytes_per_term",
        coords_bytes_per_term(cfg.precision),
        1,
    );

    // The engine: the loop's runs, and one run at the other thread count.
    let wall = median(&s.engine_s);
    // The last layout's counts: `lean` and `layout` are the last graph's.
    let terms = *s.terms.last().expect("the loop computed a layout") as f64;
    report.layer("cpu.layout_s", wall, s.engine_s.len());
    report.layer("cpu.terms_applied", terms, 1);
    let attempted = *s.attempted.last().expect("the loop computed a layout");
    report.layer("cpu.steps_attempted", attempted as f64, 1);
    let isolated = (terms / sampler_tps + terms / coords_tps) / threads as f64;
    report.layer("cpu.sync_overhead_s", wall - isolated, s.engine_s.len());
    let other = LayoutConfig {
        threads: if threads == 1 { 2 } else { 1 },
        ..cfg.clone()
    };
    let (_, run) = tracer.time("cpu.run", req, None, || CpuEngine::new(other).run(lean));
    let other_wall = run.wall.as_secs_f64();
    let (one, two) = if threads == 1 {
        (wall, other_wall)
    } else {
        (other_wall, wall)
    };
    report.layer("cpu.scaling_eff", one / (2.0 * two), 1);

    report.layer("metrics.stress_s", median(&s.stress_s), s.stress_s.len());
    report.context.push(format!(
        "paper stress estimator (untrimmed, 100 samples/node): median {:.6} over {} layouts",
        median(&s.paper_stress),
        s.paper_stress.len()
    ));
    report.layer(
        "io.encode_lay_s",
        median(&s.encode_lay_s),
        s.encode_lay_s.len(),
    );
    let mut tsv_s = Vec::new();
    let mut tsv_bytes = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let tsv = tracer.time("io.encode_tsv", req, None, || pgio::layout_to_tsv(layout));
        tsv_s.push(t.elapsed().as_secs_f64());
        tsv_bytes = tsv.len();
    }
    report.layer("io.encode_tsv_s", median(&tsv_s), tsv_s.len());
    report.layer("io.lay_bytes", s.lay_bytes as f64, 1);
    report.layer("io.tsv_bytes", tsv_bytes as f64, 1);
}
