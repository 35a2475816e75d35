//! README's metrics catalogue is exactly the set of series the registry
//! exports. One request of every protocol verb goes through a real `Server`
//! with a `JobManager` attached. Afterwards every catalogued series is
//! exported, in the section its type column names, with `<verb>` expanded
//! over `Request::verb()`, and every exported series is catalogued.

use std::collections::BTreeSet;
use std::sync::Arc;

use merging_phases::dse::prelude::*;
use merging_phases::model::explore::Figure;
use mp_serve::prelude::*;

/// README's catalogue as `(snapshot section, series)`, `<verb>` expanded
/// over `verbs`. A series ending in `*` names a family
/// (`warnings_total_<component>`): any name extending that prefix.
fn catalogue(verbs: &BTreeSet<&str>) -> Vec<(&'static str, String)> {
    let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"));
    let (_, table) = readme.split_once("The metrics catalogue:").expect("README has the catalogue");
    let rows = table.lines().skip_while(|line| !line.starts_with('|'));
    let mut series = Vec::new();
    // The header and its `|---|` rule come first.
    for row in rows.take_while(|line| line.starts_with('|')).skip(2) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let section = match cells[2] {
            "counter" => "counters",
            "histogram" => "histograms",
            kind if kind.starts_with("gauge") => "gauges",
            kind => panic!("unknown series type `{kind}` in row {row}"),
        };
        for name in cells[1].split(',').map(|name| name.trim().trim_matches('`')) {
            match name.split_once('<') {
                Some((prefix, "verb>")) => {
                    series.extend(verbs.iter().map(|verb| (section, format!("{prefix}{verb}"))))
                }
                Some((prefix, _)) => series.push((section, format!("{prefix}*"))),
                None => series.push((section, name.to_string())),
            }
        }
    }
    series
}

fn matches(series: &str, name: &str) -> bool {
    match series.strip_suffix('*') {
        Some(prefix) => name.len() > prefix.len() && name.starts_with(prefix),
        None => name == series,
    }
}

#[test]
fn the_readme_catalogue_is_exactly_the_exported_series() {
    // A store holding a damaged manifest: restoring it logs a warning.
    let store = std::env::temp_dir().join(format!("mp-metrics-catalogue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).unwrap();
    std::fs::write(store.join("j00042.manifest"), b"torn").unwrap();

    // The simulator memoises, so the cache series see traffic too.
    let service = Arc::new(SweepService::new(
        Arc::new(SimBackend::new()),
        &ServiceConfig { shards: 2, ..ServiceConfig::default() },
    ));
    // What `repro serve` registers beside the service's own series.
    mp_bench::alloc_track::register_metrics(service.registry());
    let jobs = JobManager::new(Arc::clone(&service), Some(store.clone()), JobConfig::default())
        .expect("the job store opens");
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::clone(&service)).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let space = ScenarioSpace::new().clear_designs().add_symmetric_grid((1..=64).map(f64::from));
    let spec = || SpaceSpec::Explicit(space.clone());
    let n = space.len();
    let mut client = Client::connect(&endpoint).unwrap();
    let mut verbs = BTreeSet::new();
    let mut call = |request: Request| {
        assert!(verbs.insert(request.verb()), "{} driven twice", request.verb());
        client.call(request).expect("every request is answered").pop()
    };
    let submit =
        Request::JobSubmit { space: spec(), start: 0, end: n, chunk: 16, checkpoint_every: 1 };
    let Some(Response::Job(JobSnapshot { id, .. })) = call(submit) else { panic!("no job") };
    for request in [
        Request::Ping,
        Request::Stats,
        Request::Metrics,
        Request::Catalogue,
        Request::Prepare { space: spec() },
        Request::Sweep { space: spec(), start: 0, end: n, chunk: 0 },
        Request::TopK { space: spec(), k: 3 },
        Request::Pareto { space: spec(), cost: CostAxis::Area },
        Request::Curve { figure: Figure::Fig3 },
        Request::JobStatus { id: id.clone() },
        Request::JobCancel { id: id.clone() },
        Request::JobResume { id },
        Request::Shutdown,
    ] {
        call(request);
    }
    serving.join().unwrap();
    drop(jobs);
    let _ = std::fs::remove_dir_all(&store);

    let snapshot = service.registry().snapshot();
    let counters = snapshot.counters.iter().map(|(name, _)| ("counters", name));
    let gauges = snapshot.gauges.iter().map(|(name, _)| ("gauges", name));
    let histograms = snapshot.histograms.iter().map(|(name, _)| ("histograms", name));
    let exported: Vec<_> = counters.chain(gauges).chain(histograms).collect();
    let catalogue = catalogue(&verbs);
    for (section, series) in &catalogue {
        assert!(
            exported.iter().any(|&(s, name)| s == *section && matches(series, name)),
            "README catalogues `{series}` as one of the {section}, and nothing exports it"
        );
    }
    for (section, name) in &exported {
        assert!(
            catalogue.iter().any(|(s, series)| s == section && matches(series, name)),
            "`{name}` is exported as one of the {section} and missing from README's catalogue"
        );
    }
}
