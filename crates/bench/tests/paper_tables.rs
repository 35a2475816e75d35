//! Golden text of the paper's tables as the real `repro` binary prints them.
//!
//! `repro table1 fig2a fig2b fig2d table2 table3 fig6 table4 summary` is
//! deterministic (simulated and analytic experiments only; the wall-clock
//! `fig2c` is left out) and is compared byte for byte with
//! `tests/golden/paper_tables.txt` at the workspace root.
//!
//! ## Regenerating the snapshot
//!
//! After an *intentional* change to a printed number, regenerate and commit:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p mp-bench --test paper_tables
//! git diff tests/golden/paper_tables.txt   # review every changed number!
//! ```

use std::path::PathBuf;
use std::process::Command;

const EXPERIMENTS: [&str; 9] =
    ["table1", "fig2a", "fig2b", "fig2d", "table2", "table3", "fig6", "table4", "summary"];

#[test]
fn printed_paper_tables_match_golden() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(EXPERIMENTS)
        .output()
        .expect("repro binary runs");
    assert!(output.status.success(), "repro failed: {}", String::from_utf8_lossy(&output.stderr));
    let printed = String::from_utf8(output.stdout).expect("repro prints UTF-8");
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/paper_tables.txt");
    if std::env::var("REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, printed.as_bytes()).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `REGEN_GOLDEN=1 cargo test -p mp-bench --test \
             paper_tables`",
            path.display()
        )
    });
    assert_eq!(
        printed, golden,
        "the printed paper tables diverged from their golden snapshot; if the change is \
         intentional, regenerate with `REGEN_GOLDEN=1 cargo test -p mp-bench --test \
         paper_tables` and review the diff"
    );
}
