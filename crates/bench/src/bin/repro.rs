//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p mp-bench --bin repro -- all
//! cargo run --release -p mp-bench --bin repro -- fig4 fig5
//! cargo run --release -p mp-bench --bin repro -- --json table2
//! ```
//!
//! Each experiment prints a fixed-width table; `--json` switches to JSON so
//! results can be archived or plotted externally. `fig2c` runs the real
//! instrumented workloads on the host machine and therefore takes the longest;
//! pass `--quick` to use reduced data sets for it.

use std::process::ExitCode;

use mp_bench::figures;

/// Count heap allocations, so `repro serve`'s `metrics` verb carries the
/// allocator gauges.
#[global_allocator]
static ALLOC: mp_bench::alloc_track::CountingAllocator = mp_bench::alloc_track::CountingAllocator;
use mp_profile::report::to_json;
use mp_profile::{render_table, TableRow};

struct Experiment {
    name: &'static str,
    title: &'static str,
    precision: usize,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1", title: "Table I — baseline machine configuration", precision: 2
    },
    Experiment {
        name: "fig2a",
        title: "Figure 2(a) — application scalability (simulation, 1-16 cores)",
        precision: 2,
    },
    Experiment {
        name: "fig2b",
        title: "Figure 2(b) — serial-section growth (simulation, normalised to 1 core)",
        precision: 2,
    },
    Experiment {
        name: "fig2c",
        title: "Figure 2(c) — serial-section growth (real threads on this host)",
        precision: 2,
    },
    Experiment {
        name: "fig2d",
        title: "Figure 2(d) — model accuracy (predicted / simulated serial growth)",
        precision: 3,
    },
    Experiment {
        name: "table2",
        title: "Table II — extracted application parameters (vs paper)",
        precision: 4,
    },
    Experiment {
        name: "fig3",
        title: "Figure 3 — scalability prediction to 256 cores",
        precision: 1,
    },
    Experiment { name: "table3", title: "Table III — application classes", precision: 3 },
    Experiment {
        name: "fig4",
        title: "Figure 4 — symmetric CMP design space (256 BCE)",
        precision: 1,
    },
    Experiment {
        name: "fig5",
        title: "Figure 5 — asymmetric CMP design space (256 BCE)",
        precision: 1,
    },
    Experiment {
        name: "fig6", title: "Figure 6 — serial/reduction fraction split", precision: 1
    },
    Experiment {
        name: "fig7",
        title: "Figure 7 — communication-aware model (2-D mesh)",
        precision: 1,
    },
    Experiment {
        name: "table4",
        title: "Table IV — data-set sensitivity (vs paper)",
        precision: 4,
    },
    Experiment {
        name: "summary",
        title: "ACMP-vs-CMP advantage summary (extended model)",
        precision: 2,
    },
];

fn generate(name: &str, quick: bool) -> Vec<TableRow> {
    match name {
        "table1" => figures::table1_machine_config(),
        "fig2a" => figures::fig2a_scalability(),
        "fig2b" => figures::fig2b_serial_growth(),
        "fig2c" => {
            // The serial-section *growth* is a property of the merging phase's
            // structure (one partial per thread), so the sweep intentionally
            // goes to 8 threads even on hosts with fewer cores; only the
            // absolute speedups — which this experiment does not report —
            // would be affected by oversubscription.
            figures::fig2c_real_serial_growth(&[1, 2, 4, 8], quick)
        }
        "fig2d" => figures::fig2d_model_accuracy(),
        "table2" => figures::table2_extracted_parameters(),
        "fig3" => figures::fig3_scalability_prediction(),
        "table3" => figures::table3_application_classes(),
        "fig4" => figures::fig4_symmetric_design_space(),
        "fig5" => figures::fig5_asymmetric_design_space(),
        "fig6" => figures::fig6_reduction_split(),
        "fig7" => figures::fig7_communication_model(),
        "table4" => figures::table4_dataset_sensitivity(),
        "summary" => figures::design_space::acmp_advantage_summary(),
        other => {
            eprintln!("unknown experiment `{other}`");
            Vec::new()
        }
    }
}

fn usage() {
    eprintln!("usage: repro [--json] [--quick] <experiment>... | all");
    for usage in [
        mp_bench::dse_cmd::USAGE,
        mp_bench::calibrate_cmd::USAGE,
        mp_bench::serve_cmd::USAGE,
        mp_bench::load_cmd::USAGE,
        mp_bench::job_cmd::USAGE,
    ] {
        eprintln!("       {usage}");
    }
    eprintln!("experiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<8} {}", e.name, e.title);
    }
    eprintln!("  dse        large-scale design-space exploration (mp-dse engine)");
    eprintln!("  calibrate  run workloads, calibrate the model, sweep the design space");
    eprintln!("  serve      resident sweep service (mp-serve, JSON socket protocol)");
    eprintln!("  load       closed-loop load generator + differential checker for `serve`");
    eprintln!("  job        durable sweep jobs on a running `serve` (submit/status/cancel/resume)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `repro dse [...]` and `repro calibrate [...]` are subcommands with
    // their own flags: a large-scale design-space exploration through the
    // mp-dse engine, and the measure → calibrate → explore pipeline. Flags
    // may precede the subcommand name (`repro --json dse`,
    // `repro --threads 4 calibrate`), matching the main command's own usage
    // shape, so find the subcommand token by scanning past flags — skipping
    // the values of the subcommand flags that take one, so `--out dse` is
    // never mistaken for the subcommand.
    let value_flag = |flag: &str| {
        mp_bench::dse_cmd::VALUE_FLAGS.contains(&flag)
            || mp_bench::calibrate_cmd::VALUE_FLAGS.contains(&flag)
            || mp_bench::serve_cmd::VALUE_FLAGS.contains(&flag)
            || mp_bench::load_cmd::VALUE_FLAGS.contains(&flag)
            || mp_bench::job_cmd::VALUE_FLAGS.contains(&flag)
    };
    let mut cursor = 0usize;
    while cursor < args.len() {
        match args[cursor].as_str() {
            "dse" => {
                let mut rest = args;
                rest.remove(cursor);
                return mp_bench::dse_cmd::run(&rest);
            }
            "calibrate" => {
                let mut rest = args;
                rest.remove(cursor);
                return mp_bench::calibrate_cmd::run(&rest);
            }
            "serve" => {
                let mut rest = args;
                rest.remove(cursor);
                return mp_bench::serve_cmd::run(&rest);
            }
            "load" => {
                let mut rest = args;
                rest.remove(cursor);
                return mp_bench::load_cmd::run(&rest);
            }
            "job" => {
                let mut rest = args;
                rest.remove(cursor);
                return mp_bench::job_cmd::run(&rest);
            }
            flag if value_flag(flag) => cursor += 2,
            flag if flag.starts_with("--") => cursor += 1,
            _ => break,
        }
    }

    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();

    if selected.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }

    let names: Vec<&str> = if selected.iter().any(|s| s == "all") {
        EXPERIMENTS.iter().map(|e| e.name).collect()
    } else {
        selected.iter().map(|s| s.as_str()).collect()
    };

    for name in names {
        let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == name) else {
            eprintln!("unknown experiment `{name}` (see `repro` with no arguments for the list)");
            return ExitCode::FAILURE;
        };
        let rows = generate(exp.name, quick);
        if json {
            println!("{{\"experiment\":\"{}\",\"rows\":{}}}", exp.name, to_json(&rows));
        } else {
            println!("{}", render_table(exp.title, &rows, exp.precision));
        }
    }
    ExitCode::SUCCESS
}
