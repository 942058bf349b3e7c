//! `bench` — harnesses that regenerate every table and figure of the
//! paper's evaluation (§IV). Each figure has a binary under `src/bin/`
//! that prints the corresponding rows/series; microbenchmark shapes run
//! under Criterion in `benches/`. See DESIGN.md §4 for the experiment
//! index and EXPERIMENTS.md for paper-vs-measured records.

pub mod naive;
pub mod report;
pub mod spsc_unpadded;

/// Print a row-oriented table: a header, then each row as label +
/// fixed-width numeric columns.
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<f64>)], precision: usize) {
    println!("\n=== {title} ===");
    print!("{:<42}", "");
    for c in columns {
        print!("{c:>12}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<42}");
        for v in values {
            print!("{v:>12.precision$}");
        }
        println!();
    }
}

/// Parse `--machine smoky|titan` from argv (default smoky).
pub fn machine_arg() -> machine::MachineModel {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--machine") {
        Some(i) => match args.get(i + 1).map(|s| s.as_str()) {
            Some("titan") => machine::titan(),
            Some("smoky") | None => machine::smoky(),
            Some(other) => {
                eprintln!("unknown machine `{other}`, using smoky");
                machine::smoky()
            }
        },
        None => machine::smoky(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn machine_arg_defaults_to_smoky() {
        assert_eq!(super::machine_arg().name, "smoky");
    }
}
