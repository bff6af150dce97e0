//! Reruns every figure of the paper's evaluation at paper scale over the ten
//! fixed seeds, writes `REPRO.json` at the repository root and prints the
//! rows as a markdown table.
//!
//! ```sh
//! cargo run --release -p qonductor-bench --bin repro
//! ```

use qonductor_bench::{figures, to_json, to_markdown, SEEDS};

fn main() {
    let rows = figures::all(&SEEDS);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRO.json");
    std::fs::write(path, to_json(&rows)).expect("write REPRO.json");
    print!("{}", to_markdown(&rows));
}
