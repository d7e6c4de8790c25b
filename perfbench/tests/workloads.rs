//! Tiny-scale passes of every workload, and the checks that must trip
//! on bad output.

use perfbench::report::{unit_of, Report, END_TO_END, PER_LAYER};
use perfbench::{layout, run, Args, Scale};

fn tiny(workload: &str, trace: bool) -> Report {
    let report = run(&Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 1.5,
        trace,
        scale: Scale::Tiny,
    })
    .expect("known workload");
    assert!(report.correct(), "{}", report.human());
    report
}

/// Every catalogued metric appears in the human block with its unit and
/// sample count, and in the JSON line with its unit.
fn assert_prints_all(report: &Report, trace: bool) {
    let human = report.human();
    let json = report.json(trace);
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    assert!(
        report.missing(trace).is_empty(),
        "{:?}",
        report.missing(trace)
    );
    for name in names {
        let unit = unit_of(name);
        let line = human
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(name))
            .unwrap_or_else(|| panic!("{name} not printed:\n{human}"));
        assert!(
            line.contains(&format!(" {unit} ")) && line.contains("n="),
            "{line}"
        );
        let field = format!("\"{name}\": {{\"value\": ");
        let at = json
            .find(&field)
            .unwrap_or_else(|| panic!("{name} not in {json}"));
        let rest = &json[at + field.len()..];
        assert!(!rest.starts_with("null"), "{name} is not a number: {json}");
        assert!(rest.contains(&format!("\"unit\": \"{unit}\"")), "{json}");
    }
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

#[test]
fn chr1_hogwild_tiny_pass_prints_every_metric() {
    assert_prints_all(&tiny("chr1-hogwild", false), false);
}

#[test]
fn mhc_1t_tiny_traced_pass_prints_every_layer_metric() {
    let report = tiny("mhc-1t", true);
    assert_prints_all(&report, true);
    assert!(report.context.iter().any(|c| c.contains("spans written")));
}

#[test]
fn serve_mix_tiny_pass_prints_every_metric() {
    assert_prints_all(&tiny("serve-mix", false), false);
}

#[test]
fn fleet_tiny_traced_pass_prints_every_metric() {
    let report = tiny("fleet", true);
    assert_prints_all(&report, true);
    assert_prints_all(&report, false);
}

#[test]
fn unknown_workload_is_refused() {
    let bad = run(&Args {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        scale: Scale::Tiny,
    });
    assert!(bad.is_err());
}

#[test]
fn stress_beyond_the_bound_fails_the_layout() {
    let spec = workloads::PangenomeSpec::basic("t", 80, 4, 3);
    let text = pangraph::write_gfa(&workloads::generate(&spec));
    let cfg = layout_core::LayoutConfig {
        iter_max: 2,
        threads: 1,
        ..layout_core::LayoutConfig::default()
    };
    let tracer = perfbench::trace::Tracer::new(false);
    let mut report = Report::new("t");
    let bounds = layout::StressBounds {
        trimmed: 1e-12,
        paper: 1e-12,
    };
    layout::layout_loop(&[text], &cfg, bounds, 1, 0.0, &tracer, &mut report);
    assert_eq!((report.attempted, report.failed), (1, 1));
    assert!(
        report.failures[0].contains("stress"),
        "{:?}",
        report.failures
    );
    assert!(report.json(false).starts_with("{\"correct\": false"));
}

/// `BENCHMARK.json` and the catalogue name the same workloads and
/// metrics, with the same units and directions, in the same order.
#[test]
fn benchmark_json_matches_the_catalogue() {
    use perfbench::report::Better;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let section = |key: &str| {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let end = json[start..].find(']').expect("list end") + start;
        json[start..end].to_string()
    };
    let field = |text: &str, key: &str| -> Vec<String> {
        let needle = format!("\"{key}\": \"");
        text.match_indices(&needle)
            .map(|(at, _)| {
                let rest = &text[at + needle.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    };
    let workloads = section("workloads");
    assert_eq!(field(&workloads, "name"), perfbench::WORKLOADS);
    let e2e = section("end_to_end");
    let want: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|&(n, u, b)| {
            let b = if b == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            (n.to_string(), u.to_string(), b.to_string())
        })
        .collect();
    let have: Vec<(String, String, String)> = field(&e2e, "name")
        .into_iter()
        .zip(field(&e2e, "unit"))
        .zip(field(&e2e, "better"))
        .map(|((n, u), b)| (n, u, b))
        .collect();
    assert_eq!(have, want);
    let layers = section("per_layer");
    let names_units: Vec<(String, String)> = field(&layers, "name")
        .into_iter()
        .zip(field(&layers, "unit"))
        .collect();
    let want: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_units, want);
}
