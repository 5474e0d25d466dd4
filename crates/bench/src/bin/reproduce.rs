//! Regenerate the paper's tables and figures from the registry in
//! `bench::figures`: `reproduce` renders everything (see EXPERIMENTS.md
//! for captured output), `reproduce <id>…` a subset, `reproduce --list`
//! prints the ids. `BRICK_FULL=1` selects the paper's full-size sweeps,
//! `BRICK_STEPS=n` the timed steps per measured run.

use bench::figures::reproduce;
use bench::harness::{Cells, Sweep};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cells = Cells::new(Sweep::from_env());
    if let Err(e) = reproduce(&args, &mut cells, &mut std::io::stdout().lock()) {
        eprintln!("reproduce: {e}");
        std::process::exit(2);
    }
}
