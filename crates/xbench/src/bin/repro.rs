//! `repro` — regenerate every experiment table/figure of the reproduction.
//!
//! ```sh
//! cargo run --release -p xbench --bin repro -- all            # everything
//! cargo run --release -p xbench --bin repro -- e2-stretch     # one table
//! cargo run --release -p xbench --bin repro -- all --quick    # small sizes
//! cargo run --release -p xbench --bin repro -- list           # registry
//! cargo run --release -p xbench --bin repro -- memory --json BENCH_memory.json
//! ```

use xbench::{registry, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json: Option<std::path::PathBuf> = None;
    let mut wanted: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => match it.next() {
                Some(p) => json = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("--json needs a path argument");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}; try `repro list`");
                std::process::exit(2);
            }
            _ => wanted.push(a),
        }
    }
    let cfg = Config {
        quick,
        json,
        threads: pram::pool::threads_from_env(),
    };

    let reg = registry();
    if wanted.is_empty() || wanted[0] == "list" {
        println!("experiments (see DESIGN.md §6):");
        for (id, desc, _) in &reg {
            println!("  {id:<14} {desc}");
        }
        println!("\nusage: repro <id>|all [--quick] [--json <path>]");
        return;
    }

    let run_all = wanted.iter().any(|w| *w == "all");
    let t0 = std::time::Instant::now();
    let mut ran = 0usize;
    for (id, _, runner) in &reg {
        if run_all || wanted.iter().any(|w| w == id) {
            let t = std::time::Instant::now();
            runner(&cfg);
            eprintln!("[{id} done in {:?}]", t.elapsed());
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("unknown experiment(s) {wanted:?}; try `repro list`");
        std::process::exit(1);
    }
    eprintln!("\n[{ran} experiment(s) in {:?}]", t0.elapsed());
}
